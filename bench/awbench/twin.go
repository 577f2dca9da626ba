package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	agilewatts "repro"
)

// The twin session's load, closed loop with one request in flight: a
// one-epoch step per epoch, a what-if after every twinWhatIfEvery-th
// epoch, and a snapshot download plus restore upload after every
// twinRestoreEvery-th, then the final result. awserved checkpoints every
// twinCheckpointEvery epochs.
const (
	twinWhatIfEvery     = 15
	twinWhatIfEpochs    = 4
	twinRestoreEvery    = 60
	twinCheckpointEvery = 10

	// twinSessionTimeout bounds a whole session, twinRequestTimeout one
	// request and the readiness poll; past them the session fails.
	twinSessionTimeout = 150 * time.Second
	twinRequestTimeout = 60 * time.Second
)

// twinSession is one served session as the client measured it.
type twinSession struct {
	setup, run        time.Duration
	rssMB             float64
	steps             []float64 // ms, every step
	ckptSteps         []float64 // ms, the steps that wrote a checkpoint
	plainSteps        []float64 // ms, the others
	whatifs, restores []float64 // ms
	resultMS          float64
	resultBytes       int
	ckptBytesMax      int64
	digest            string
	attempted, failed int
}

// twinRounds builds awserved once, computes the in-process reference
// result for the seeded twin scenario, then serves sessions on fresh
// daemons until the measuring time is spent and the pooled requests
// support the reported tail percentiles.
func (b *bench) twinRounds(ctx context.Context, input string) (roundSet, error) {
	rs := roundSet{metrics: map[string]stat{}}
	if err := b.buildAwserved(ctx); err != nil {
		return rs, err
	}
	want, err := twinReference(input)
	if err != nil {
		return rs, fmt.Errorf("in-process reference: %w", err)
	}
	rs.want = want
	var sessions []twinSession
	start := time.Now()
	var last time.Duration
	for ctx.Err() == nil && (b.keepGoing(start, rs.n, last) || !tailsMeasured(sessions)) {
		t := time.Now()
		s, err := b.twinSession(ctx, input)
		rs.attempted += s.attempted
		rs.failed += s.failed
		if err != nil {
			if s.failed == 0 { // the daemon failed outside a request
				rs.attempted++
				rs.failed++
			}
			return rs, err
		}
		rs.n++
		rs.digests = append(rs.digests, s.digest)
		sessions = append(sessions, s)
		last = time.Since(t)
	}
	for name, s := range twinMetrics(sessions) {
		rs.metrics[name] = s
	}
	return rs, nil
}

// tailsMeasured reports whether the sessions pool enough steps and
// what-ifs for step_ms_p99 and whatif_ms_p80 to leave ten samples beyond
// each.
func tailsMeasured(sessions []twinSession) bool {
	steps, whatifs := 0, 0
	for _, s := range sessions {
		steps += len(s.steps)
		whatifs += len(s.whatifs)
	}
	return tailPercentile(steps) >= 99 && tailPercentile(whatifs) >= 80
}

// twinMetrics summarizes the sessions: medians over sessions for
// per-session values (the mean for run_s), and latency percentiles over
// the requests of all sessions pooled.
func twinMetrics(sessions []twinSession) map[string]stat {
	var setup, runS, rss, resultMS, resultBytes, ckptBytes, ckptCost []float64
	var steps, whatifs, restores [][]float64
	for _, s := range sessions {
		setup = append(setup, s.setup.Seconds())
		runS = append(runS, s.run.Seconds())
		rss = append(rss, s.rssMB)
		resultMS = append(resultMS, s.resultMS)
		resultBytes = append(resultBytes, float64(s.resultBytes))
		ckptBytes = append(ckptBytes, float64(s.ckptBytesMax))
		steps = append(steps, s.steps)
		// A checkpoint is written inside the step that triggers it, so
		// its cost is what those steps take beyond a step that writes none.
		if len(s.ckptSteps) > 0 && len(s.plainSteps) > 0 {
			ckptCost = append(ckptCost, median(s.ckptSteps)-median(s.plainSteps))
		}
		whatifs = append(whatifs, s.whatifs)
		restores = append(restores, s.restores)
	}
	return map[string]stat{
		"setup_s":                       summarize("s", setup),
		"run_s":                         summarizeMean("s", runS),
		"peak_rss_mb":                   summarize("MB", rss),
		"step_ms_p50":                   pooled("ms", 50, steps),
		"step_ms_p99":                   pooled("ms", 99, steps),
		"whatif_ms_p50":                 pooled("ms", 50, whatifs),
		"whatif_ms_p80":                 pooled("ms", 80, whatifs),
		"awserved.restore_ms_p50":       pooled("ms", 50, restores),
		"awserved.result_ms":            summarize("ms", resultMS),
		"awserved.result_bytes":         summarize("bytes", resultBytes),
		"awserved.checkpoint_bytes_max": summarize("bytes", ckptBytes),
		"awserved.checkpoint_ms_p50":    summarize("ms", ckptCost),
	}
}

// pooled reports the p-th percentile of every session's samples pooled.
// One session holds too few samples for a tail percentile of its own,
// so the spread comes from a fixed-seed bootstrap instead: the
// quartiles of the pooled percentile over sessions resampled with
// replacement.
func pooled(unit string, p float64, perSession [][]float64) stat {
	var all []float64
	for _, xs := range perSession {
		all = append(all, xs...)
	}
	rng := rand.New(rand.NewPCG(1, 1))
	boot := make([]float64, 200)
	for i := range boot {
		var resample []float64
		for range perSession {
			resample = append(resample, perSession[rng.IntN(len(perSession))]...)
		}
		boot[i] = percentile(resample, p)
	}
	q1, q3 := quartiles(boot)
	return stat{Unit: unit, Value: percentile(all, p), Q1: q1, Q3: q3, N: len(all)}
}

// buildAwserved builds the daemon once per benchmark run, before any
// timing starts.
func (b *bench) buildAwserved(ctx context.Context) error {
	if b.awserved != "" {
		return nil
	}
	bin := filepath.Join(b.tmp, "awserved")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/awserved")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building awserved: %v\n%s", err, out)
	}
	b.awserved = bin
	return nil
}

// twinReference is the sha256 of the in-process RunScenario result for
// the served file, encoded exactly as awserved encodes /v1/result.
func twinReference(input string) (string, error) {
	run, err := loadTwin(input)
	if err != nil {
		return "", err
	}
	res, err := agilewatts.RunScenario(run)
	if err != nil {
		return "", err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append(data, '\n'))
	return hex.EncodeToString(sum[:]), nil
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// twinSession starts a fresh daemon on free ports with its own
// checkpoint directory, drives one session, reads the daemon's peak RSS
// and stops it with SIGTERM. The daemon is killed and waited for,
// and the directory removed, on every path.
func (b *bench) twinSession(ctx context.Context, input string) (twinSession, error) {
	var s twinSession
	ctx, cancel := context.WithTimeout(ctx, twinSessionTimeout)
	defer cancel()
	query, err := freeAddr()
	if err != nil {
		return s, err
	}
	admin, err := freeAddr()
	if err != nil {
		return s, err
	}
	ckptDir, err := os.MkdirTemp(b.tmp, "ckpt-")
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(ckptDir)

	cmd := exec.Command(b.awserved,
		"-scenario-file", input, "-addr", query, "-admin-addr", admin,
		"-time-scale", "0", "-checkpoint-dir", ckptDir,
		"-checkpoint-every-epochs", fmt.Sprint(twinCheckpointEvery))
	var stderr tailBuffer
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return s, err
	}
	// exited is closed once the daemon has been waited for; waitErr is
	// readable after that.
	var waitErr error
	exited := make(chan struct{})
	go func() {
		waitErr = cmd.Wait()
		close(exited)
	}()
	defer func() {
		cmd.Process.Kill() // an error here means it already exited
		<-exited
	}()

	c := &twinClient{
		ctx:   ctx,
		http:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
		query: "http://" + query, admin: "http://" + admin,
	}
	defer c.http.CloseIdleConnections()
	var st statusReply
	if err := c.waitReady(exited, &st); err != nil {
		return s, fmt.Errorf("%v; daemon stderr: %s", err, stderr.String())
	}
	s.setup = time.Since(start)
	if err := c.session(&s, st.Epochs, ckptDir); err != nil {
		return s, fmt.Errorf("%v; daemon stderr: %s", err, stderr.String())
	}
	// The peak is read while the daemon still runs: once it has exited,
	// only rusage is left, and that carries this process's own peak.
	if s.rssMB, err = peakRSSMB(strconv.Itoa(cmd.Process.Pid)); err != nil {
		return s, fmt.Errorf("daemon peak RSS: %w", err)
	}

	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
		if waitErr != nil {
			return s, fmt.Errorf("daemon exit after SIGTERM: %v; stderr: %s", waitErr, stderr.String())
		}
	case <-time.After(10 * time.Second):
		return s, errors.New("daemon ignored SIGTERM for 10s")
	}
	return s, nil
}

// statusReply is the part of awserved's /v1/status reply the client
// reads.
type statusReply struct {
	Epoch  int `json:"epoch"`
	Epochs int `json:"epochs"`
}

type twinClient struct {
	ctx          context.Context
	http         *http.Client
	query, admin string
}

// do sends one request with its own deadline and returns the body of a
// 200 reply; anything else is an error.
func (c *twinClient) do(method, url string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(c.ctx, twinRequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

// waitReady polls /v1/status until the daemon answers 200, the daemon
// exits, or the request deadline passes.
func (c *twinClient) waitReady(exited <-chan struct{}, st *statusReply) error {
	deadline := time.Now().Add(twinRequestTimeout)
	for {
		data, err := c.do(http.MethodGet, c.query+"/v1/status", nil)
		if err == nil {
			return json.Unmarshal(data, st)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("awserved not ready after %v: %v", twinRequestTimeout, err)
		}
		select {
		case <-exited:
			return errors.New("awserved exited before it was ready")
		case <-c.ctx.Done():
			return c.ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// session drives every epoch, the what-ifs and restores between them,
// and the final result, counting each request as an operation and
// checking every reply it can.
func (c *twinClient) session(s *twinSession, epochs int, ckptDir string) error {
	timed := func(f func() error) (float64, error) {
		s.attempted++
		t := time.Now()
		err := f()
		if err != nil {
			s.failed++
		}
		return float64(time.Since(t).Nanoseconds()) / 1e6, err
	}
	start := time.Now()
	whatifs := 0
	for e := 1; e <= epochs; e++ {
		ms, err := timed(func() error {
			data, err := c.do(http.MethodPost, c.admin+"/v1/step?epochs=1", nil)
			if err != nil {
				return err
			}
			var tels []json.RawMessage
			if err := json.Unmarshal(data, &tels); err != nil || len(tels) != 1 {
				return fmt.Errorf("step to epoch %d: want one telemetry document, got %q", e, data)
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.steps = append(s.steps, ms)
		if fi, err := os.Stat(filepath.Join(ckptDir, fmt.Sprintf("ckpt-%06d.awck", e))); err == nil {
			s.ckptSteps = append(s.ckptSteps, ms)
			s.ckptBytesMax = max(s.ckptBytesMax, fi.Size())
		} else {
			s.plainSteps = append(s.plainSteps, ms)
		}
		if e%twinWhatIfEvery == 0 && e < epochs {
			target := 1 + whatifs%4
			whatifs++
			ms, err := timed(func() error { return c.whatIf(e, target, min(twinWhatIfEpochs, epochs-e)) })
			if err != nil {
				return err
			}
			s.whatifs = append(s.whatifs, ms)
		}
		if e%twinRestoreEvery == 0 && e < epochs {
			var snap []byte
			if _, err := timed(func() (err error) {
				snap, err = c.do(http.MethodGet, c.admin+"/v1/snapshot", nil)
				return err
			}); err != nil {
				return err
			}
			ms, err := timed(func() error { return c.restore(e, snap) })
			if err != nil {
				return err
			}
			s.restores = append(s.restores, ms)
		}
	}
	var result []byte
	ms, err := timed(func() (err error) {
		result, err = c.do(http.MethodGet, c.query+"/v1/result", nil)
		return err
	})
	if err != nil {
		return err
	}
	s.run = time.Since(start)
	s.resultMS, s.resultBytes = ms, len(result)
	sum := sha256.Sum256(result)
	s.digest = hex.EncodeToString(sum[:])
	return nil
}

func (c *twinClient) whatIf(epoch, target, forced int) error {
	body, _ := json.Marshal(map[string]int{"target_nodes": target, "epochs": twinWhatIfEpochs})
	data, err := c.do(http.MethodPost, c.query+"/v1/whatif", body)
	if err != nil {
		return err
	}
	var reply struct {
		ForkedAt int `json:"forked_at"`
		Forced   int `json:"forced_epochs"`
	}
	if err := json.Unmarshal(data, &reply); err != nil {
		return fmt.Errorf("what-if at epoch %d: %v", epoch, err)
	}
	if reply.ForkedAt != epoch || reply.Forced != forced {
		return fmt.Errorf("what-if at epoch %d: forked at %d with %d forced epochs, want %d",
			epoch, reply.ForkedAt, reply.Forced, forced)
	}
	return nil
}

func (c *twinClient) restore(epoch int, snap []byte) error {
	data, err := c.do(http.MethodPost, c.admin+"/v1/restore", snap)
	if err != nil {
		return err
	}
	var st statusReply
	if err := json.Unmarshal(data, &st); err != nil || st.Epoch != epoch {
		return fmt.Errorf("restore at epoch %d: got %q", epoch, data)
	}
	return nil
}
