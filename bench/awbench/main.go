// Command awbench is the repository's end-to-end benchmark. It runs four
// workloads against the simulator stack and the awserved daemon, checks
// that every round computed the pinned results, and prints each metric
// with its unit, value (a median; for run_s the mean over rounds),
// quartiles and sample count.
//
// Run it from the repository root:
//
//	bash bench/run.sh                         # all four workloads, 20 s each
//	bash bench/run.sh -workload twin-served -seed 7 -seconds 15
//	bash bench/run.sh -trace trace.json -out result.json
//	bash bench/run.sh compare A.json B.json
//
// Every batch round runs in a fresh child process (this binary, in child
// mode), one at a time, so each round pays the cold runner memo a user
// pays on every invocation. twin-served drives a freshly started awserved
// binary, built once before timing, over HTTP with one request in
// flight. With -workload the last line of standard output is one JSON
// object: correct, attempted, failed, and the metrics BENCHMARK.json
// lists — the end-to-end ones, or with -trace the per-layer ones.
//
// -trace adds one traced pass per workload, also in a fresh child: it
// records spans around the calls it makes into each layer and measures
// the per-layer metrics. -trace 1 keeps the spans in memory only; any
// other value except 0 names the file they are written to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the pinned digests in bench/workloads were
// taken at; any other seed checks only that rounds agree.
const defaultSeed = 1

func main() {
	// SIGPIPE means whoever reads our output went away. Stopping as on
	// SIGTERM, instead of dying mid-write, still kills the children and
	// the daemon and removes the temp files.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout)
		case "child":
			return childMain(args[1:], stdout)
		}
	}
	fs := flag.NewFlagSet("awbench", flag.ContinueOnError)
	only := fs.String("workload", "", "run only this workload (default: all four)")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 20, "measuring time per workload; rounds start while time is left")
	trace := fs.String("trace", "0", "add a traced pass per workload: 0 (off), 1, or a file to write the spans to")
	out := fs.String("out", "", "write the result file (for compare) here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "awbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "awbench: -seconds must be at least 1")
		return 2
	}
	wls := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "awbench: unknown workload %q (have %s)\n", *only, strings.Join(workloadNames(), ", "))
			return 2
		}
		wls = []workload{w}
	}
	b, err := newBench(*seed, time.Duration(*seconds)*time.Second, *trace != "0" && *trace != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "awbench:", err)
		return 1
	}
	defer b.close()

	res := resultFile{Env: stampEnv(b.root), Seed: *seed, Seconds: *seconds}
	var traces []workloadTrace
	failed := false
	for _, w := range wls {
		wr, spans, err := b.measure(ctx, w)
		if err != nil {
			fmt.Fprintf(os.Stderr, "awbench: %s: %v\n", w.name, err)
			wr.Failed = max(wr.Failed, 1)
			wr.Attempted = max(wr.Attempted, wr.Failed)
			wr.Correct = false
		}
		wr.Metrics["error_rate"] = errorRate(wr.Attempted, wr.Failed)
		failed = failed || !wr.Correct || wr.Failed > 0
		printWorkload(stdout, wr)
		res.Workloads = append(res.Workloads, wr)
		traces = append(traces, workloadTrace{Workload: w.name, Spans: spans})
		if ctx.Err() != nil {
			break
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "awbench:", err)
			failed = true
		}
	}
	if b.traced && *trace != "1" {
		if err := writeJSON(*trace, traces); err != nil {
			fmt.Fprintln(os.Stderr, "awbench:", err)
			failed = true
		}
	}
	if len(wls) == 1 && len(res.Workloads) == 1 {
		line, err := json.Marshal(benchmarkLine(res.Workloads[0], b.traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, "awbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if failed || ctx.Err() != nil {
		return 1
	}
	return 0
}

// bench holds what every workload's measurement shares: the repository
// root, a private temp dir inside the checkout, this binary (re-run in
// child mode), the awserved binary once built, and the run settings.
type bench struct {
	root, tmp, self string
	seed            uint64
	seconds         time.Duration
	traced          bool
	pinned          map[string]string
	awserved        string
}

func newBench(seed uint64, seconds time.Duration, traced bool) (*bench, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pinned := map[string]string{}
	if err := readJSON(filepath.Join(root, digestsPath), &pinned); err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "awbench-")
	if err != nil {
		return nil, err
	}
	return &bench{root: root, tmp: tmp, self: self, seed: seed, seconds: seconds, traced: traced, pinned: pinned}, nil
}

func (b *bench) close() { os.RemoveAll(b.tmp) }

// findRoot returns the repository root: the working directory or the
// nearest parent holding both go.mod and the benchmark's twin input, so
// `go -C bench run ./awbench` works as well as bench/run.sh.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errMod := os.Stat(filepath.Join(dir, "go.mod"))
		_, errTwin := os.Stat(filepath.Join(dir, twinPath))
		if errMod == nil && errTwin == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repository: no directory above holds go.mod and " + twinPath)
		}
		dir = parent
	}
}

// measure runs one workload: untraced rounds until the measuring time is
// spent (but at least minRounds), then the traced pass when tracing is
// on.
func (b *bench) measure(ctx context.Context, w workload) (workloadResult, []span, error) {
	wr := workloadResult{Name: w.name, Correct: true, Metrics: map[string]stat{}}
	input, err := writeTwinInput(b.root, b.tmp, b.seed)
	if err != nil {
		return wr, nil, err
	}
	var rounds roundSet
	if w.name == wTwin {
		rounds, err = b.twinRounds(ctx, input)
	} else {
		rounds, err = b.batchRounds(ctx, w, input)
	}
	wr.Rounds = rounds.n
	wr.Attempted, wr.Failed = rounds.attempted, rounds.failed
	wr.Digest, wr.DigestCheck, wr.Correct = digestVerdict(rounds.digests, rounds.want, b.pinned[w.name], b.seed == defaultSeed)
	wr.count(wr.Correct)
	for name, s := range rounds.metrics {
		wr.Metrics[name] = s
	}
	if err != nil {
		return wr, nil, err
	}
	if !b.traced {
		return wr, nil, nil
	}
	reply, err := b.spawn(ctx, "-workload", w.name, "-seed", fmt.Sprint(b.seed), "-twin", input, "-trace")
	wr.Attempted += reply.reply.Attempted
	wr.Failed += reply.reply.Failed
	if err != nil {
		return wr, nil, err
	}
	d, status, ok := digestVerdict([]string{reply.reply.Digest}, rounds.want, b.pinned[w.name], b.seed == defaultSeed)
	wr.count(ok && d == wr.Digest)
	if !ok || d != wr.Digest {
		wr.Correct = false
		fmt.Fprintf(os.Stderr, "awbench: %s: traced pass digest %s: %s (untraced rounds: %s)\n",
			w.name, short(d), status, short(wr.Digest))
	}
	for name, v := range reply.reply.Layers {
		m, _ := metricByName(name)
		wr.Metrics[name] = summarize(m.Unit, []float64{v})
	}
	if s, ok := wr.Metrics["step_ms_p50"]; ok {
		if l, ok := reply.reply.Layers["cluster.step_ms_p50"]; ok {
			wr.Metrics["awserved.http_overhead_ms"] = summarize("ms", []float64{s.Value - l})
		}
	}
	if run, ok := wr.Metrics["run_s"]; ok {
		overhead := reply.reply.RunS - run.Value
		wr.TraceOverheadS = &overhead
	}
	return wr, reply.reply.Spans, nil
}

// roundSet is what a workload's untraced rounds produced: per-metric
// summaries, one output digest per round, the digest a correct round
// must produce when known in advance, and the operation counts.
type roundSet struct {
	n                 int
	metrics           map[string]stat
	digests           []string
	want              string
	attempted, failed int
}

// minRounds is the least number of rounds a measurement takes, however
// long they run.
const minRounds = 3

// keepGoing reports whether another round should start: always below
// minRounds, otherwise only if a round as long as the last one still
// fits in the measuring time.
func (b *bench) keepGoing(start time.Time, rounds int, last time.Duration) bool {
	return rounds < minRounds || time.Since(start)+last <= b.seconds
}

// batchRounds runs a batch workload round by round, each in a fresh
// child process, timing spawn to ready (setup) and ready to done (run).
func (b *bench) batchRounds(ctx context.Context, w workload, input string) (roundSet, error) {
	rs := roundSet{metrics: map[string]stat{}}
	var setup, runS, rss []float64
	start := time.Now()
	var last time.Duration
	for ctx.Err() == nil && b.keepGoing(start, rs.n, last) {
		t := time.Now()
		rs.attempted++
		c, err := b.spawn(ctx, "-workload", w.name, "-seed", fmt.Sprint(b.seed), "-twin", input)
		if err != nil {
			rs.failed++
			return rs, err
		}
		rs.n++
		rs.digests = append(rs.digests, c.reply.Digest)
		setup = append(setup, c.setup.Seconds())
		runS = append(runS, c.run.Seconds())
		rss = append(rss, c.reply.PeakRSSMB)
		last = time.Since(t)
	}
	rs.metrics["setup_s"] = summarize("s", setup)
	rs.metrics["run_s"] = summarizeMean("s", runS)
	rs.metrics["peak_rss_mb"] = summarize("MB", rss)
	return rs, nil
}

// count records one more checked operation.
func (wr *workloadResult) count(ok bool) {
	wr.Attempted++
	if !ok {
		wr.Failed++
	}
}

func errorRate(attempted, failed int) stat {
	s := summarize("ratio", []float64{float64(failed) / float64(max(attempted, 1))})
	s.N = attempted
	return s
}

// digestVerdict is the correctness gate on one workload's output
// digests: every round must agree, and agree with want, the digest of an
// in-process reference, when there is one. At the default seed the
// digest must also be the pinned one; any other seed checks agreement
// only.
func digestVerdict(digests []string, want, pinned string, atDefaultSeed bool) (digest, status string, ok bool) {
	if len(digests) == 0 {
		return "", "no rounds", false
	}
	digest = digests[0]
	for _, d := range digests[1:] {
		if d != digest {
			return digest, "rounds disagree", false
		}
	}
	if want != "" && digest != want {
		return digest, "differs from the in-process reference", false
	}
	if !atDefaultSeed {
		return digest, "rounds agree (seed not pinned)", true
	}
	if digest != pinned {
		return digest, "differs from the pinned digest " + short(pinned), false
	}
	return digest, "matches the pinned digest", true
}

func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// benchmarkLine is the last output line with -workload: the metrics
// BENCHMARK.json lists for the mode, as measured.
func benchmarkLine(wr workloadResult, traced bool) map[string]any {
	metrics := map[string]any{}
	for _, m := range metricDefs {
		if !m.Listed || m.Layer != traced {
			continue
		}
		if s, ok := wr.Metrics[m.Name]; ok {
			metrics[m.Name] = map[string]any{"value": s.Value, "unit": m.Unit}
		}
	}
	return map[string]any{
		"correct":   wr.Correct && wr.Failed == 0,
		"attempted": max(wr.Attempted, 1),
		"failed":    wr.Failed,
		"metrics":   metrics,
	}
}

// printWorkload prints one workload's metrics as a table.
func printWorkload(w io.Writer, wr workloadResult) {
	fmt.Fprintf(w, "\n%s: %d rounds, %d/%d ops failed, digest %s (%s)\n",
		wr.Name, wr.Rounds, wr.Failed, wr.Attempted, short(wr.Digest), wr.DigestCheck)
	fmt.Fprintf(w, "  %-30s %-6s %12s %12s %12s %6s\n", "metric", "unit", "value", "q1", "q3", "n")
	for _, m := range metricDefs {
		if s, ok := wr.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "  %-30s %-6s %12.6g %12.6g %12.6g %6d\n", m.Name, s.Unit, s.Value, s.Q1, s.Q3, s.N)
		}
	}
	if wr.TraceOverheadS != nil {
		fmt.Fprintf(w, "  tracing overhead (traced run_s - untraced run_s): %.4f s\n", *wr.TraceOverheadS)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
