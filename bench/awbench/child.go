package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	agilewatts "repro"
)

// roundTimeout bounds one child process; a round that takes longer is
// killed and counted as failed instead of hanging the benchmark.
const roundTimeout = 150 * time.Second

// childReply is the child's last output line.
type childReply struct {
	Digest string `json:"digest"`
	// PeakRSSMB is the child's peak resident set after its round.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// The traced pass adds its wall time, the per-layer metrics it
	// measured, its spans, and how many of its checks ran and failed.
	RunS      float64            `json:"run_s,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Attempted int                `json:"attempted,omitempty"`
	Failed    int                `json:"failed,omitempty"`
}

// childRun is one child process as the parent saw it.
type childRun struct {
	setup, run time.Duration
	reply      childReply
}

// spawn runs this binary in child mode and times it: spawn to the
// child's "ready" line is set-up, "ready" to its "done" line is the run.
// The reply line follows. The child is killed if it outlives
// roundTimeout or the context, and is always waited for.
func (b *bench) spawn(ctx context.Context, args ...string) (childRun, error) {
	var c childRun
	ctx, cancel := context.WithTimeout(ctx, roundTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.self, append([]string{"child"}, args...)...)
	cmd.Dir = b.root
	var stderr tailBuffer
	cmd.Stderr = &stderr
	cmd.WaitDelay = 5 * time.Second
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return c, err
	}
	lines := bufio.NewScanner(stdout)
	lines.Buffer(make([]byte, 64<<10), 256<<20)
	var ready, done time.Time
	replied := false
	if lines.Scan() && lines.Text() == "ready" {
		ready = time.Now()
		if lines.Scan() && lines.Text() == "done" {
			done = time.Now()
			if replied = lines.Scan(); replied {
				err = json.Unmarshal(lines.Bytes(), &c.reply)
			}
		}
	}
	io.Copy(io.Discard, stdout)
	if werr := cmd.Wait(); werr != nil {
		return c, fmt.Errorf("child %v: %v; stderr: %s", args, werr, stderr.String())
	}
	if !replied || err != nil {
		return c, fmt.Errorf("child %v: no reply (%v); stderr: %s", args, err, stderr.String())
	}
	c.setup, c.run = ready.Sub(start), done.Sub(ready)
	return c, nil
}

// peakRSSMB reads a live process's peak resident set, VmHWM, from
// /proc/<pid>/status; pid "self" is the calling process. rusage will not
// do: Go starts a child with vfork, and Linux carries the parent's peak
// RSS across the exec into the child's ru_maxrss, so a small child
// reports the benchmark's own peak.
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%s/status: %q: %w", pid, line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM line", pid)
}

// tailBuffer keeps the last few KB a process wrote to it, for error
// messages; it may be read while the process still writes.
type tailBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	const keep = 4 << 10
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > keep {
		t.b = t.b[len(t.b)-keep:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.b))
}

// childMain is the child side: build the workload's inputs from the
// seed, print "ready", run one round (or the traced pass), print "done",
// and print the reply as one JSON line.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("awbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	twin := fs.String("twin", "", "the seeded twin scenario file")
	traced := fs.Bool("trace", false, "run the traced pass instead of a round")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "awbench child: unknown workload %q\n", *name)
		return 2
	}
	in, err := w.inputs(*seed, *twin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "awbench child:", err)
		return 1
	}
	fmt.Fprintln(stdout, "ready")
	done := func() { fmt.Fprintln(stdout, "done") }
	var reply childReply
	if *traced {
		reply, err = tracedPass(w, in)
		done()
	} else {
		reply.Digest, err = batchRound(w, in, done)
		if err == nil {
			reply.PeakRSSMB, err = peakRSSMB("self")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "awbench child:", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(reply); err != nil {
		fmt.Fprintln(os.Stderr, "awbench child:", err)
		return 1
	}
	return 0
}

// batchRound runs one round of a batch workload through the public API,
// calls done when the program has returned, and returns the sha256 of
// its output: the rendered tables for paper-eval, the ScenarioResult
// JSON for the fleets.
func batchRound(w workload, in inputs, done func()) (string, error) {
	h := sha256.New()
	if w.name == wPaperEval {
		for _, name := range agilewatts.Experiments() {
			if err := agilewatts.RunExperiment(name, in.options, h); err != nil {
				return "", fmt.Errorf("experiment %s: %w", name, err)
			}
		}
		done()
		return hex.EncodeToString(h.Sum(nil)), nil
	}
	res, err := agilewatts.RunScenario(in.run)
	if err != nil {
		return "", err
	}
	done()
	// Encoding the result for the digest holds its whole JSON in memory.
	// Collecting first keeps that buffer from landing on the program's
	// uncollected garbage, which would make the child's peak RSS depend
	// on GC timing rather than on the program.
	runtime.GC()
	return resultDigest(res)
}

// resultDigest hashes a ScenarioResult's compact JSON encoding.
func resultDigest(res agilewatts.ScenarioResult) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
