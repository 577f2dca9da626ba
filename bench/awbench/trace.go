package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	agilewatts "repro"
	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
)

// span is one timed call the traced pass made into a layer. Parent is
// the enclosing span's ID (0 at the top); Req groups the spans of one
// round, epoch or request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// workloadTrace is one workload's spans in the -trace file.
type workloadTrace struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// tracer keeps spans in memory; they leave the process in the reply.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tracedPass runs the workload once in this process with spans around
// each call into the program, then probes each layer on the workload's
// scenario, or on the twin scenario for paper-eval, which has no single
// one. It returns the pass's output digest and every per-layer metric;
// its one check, Live against batch, counts as an operation.
func tracedPass(w workload, in inputs) (childReply, error) {
	tr := &tracer{t0: time.Now()}
	layers := map[string]float64{}
	reply := childReply{Layers: layers}
	before := sampleProc()
	start := time.Now()
	var batch string // the probe scenario's RunScenario digest, once known
	var err error
	switch w.name {
	case wPaperEval:
		reply.Digest, err = tracePaperEval(tr, in.options, layers)
	case wTwin:
		reply.Digest, err = traceTwinSession(tr, in.run)
	default:
		reply.Digest, err = traceRunScenario(tr, in.run, layers)
		batch = reply.Digest
	}
	reply.RunS = time.Since(start).Seconds()
	if err != nil {
		return reply, err
	}
	sampleProc().since(before, layers)

	probe := in.run
	if w.name == wPaperEval {
		if probe, err = loadTwin(in.twin); err != nil {
			return reply, err
		}
	}
	if batch == "" {
		if batch, err = traceRunScenario(tr, probe, layers); err != nil {
			return reply, err
		}
	}
	live, err := probeLive(tr, probe, layers)
	if err != nil {
		return reply, err
	}
	reply.Attempted++
	if live != batch {
		reply.Failed++
		fmt.Fprintf(os.Stderr, "awbench child: Live stepped to the end (%s) differs from RunScenario (%s)\n",
			short(live), short(batch))
	}
	if err := probeTimeline(tr, probe, layers); err != nil {
		return reply, err
	}
	probeEngine(tr, layers)
	if err := probeParse(tr, in.twin, layers); err != nil {
		return reply, err
	}
	reply.Spans = tr.spans
	return reply, nil
}

// procSample is the process counters the traced pass reports deltas of.
type procSample struct {
	alloc                    uint64
	gc                       uint32
	cpu                      time.Duration
	hits, misses             uint64
	nodes, classes, replicas uint64
}

func sampleProc() procSample {
	var p procSample
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.alloc, p.gc = m.TotalAlloc, m.NumGC
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	p.hits, p.misses = agilewatts.RunnerStats()
	p.nodes, p.classes, p.replicas = agilewatts.RunnerDedupStats()
	return p
}

// since records the change from before to p as proc.* and runner.*
// metrics.
func (p procSample) since(before procSample, layers map[string]float64) {
	layers["proc.alloc_mb"] = float64(p.alloc-before.alloc) / (1 << 20)
	layers["proc.gc_cycles"] = float64(p.gc - before.gc)
	layers["proc.cpu_s"] = (p.cpu - before.cpu).Seconds()
	hits, misses := float64(p.hits-before.hits), float64(p.misses-before.misses)
	layers["runner.memo_hits"] = hits
	layers["runner.memo_misses"] = misses
	layers["runner.memo_hit_ratio"] = 0
	if hits+misses > 0 {
		layers["runner.memo_hit_ratio"] = hits / (hits + misses)
	}
	layers["runner.class_nodes"] = float64(p.nodes - before.nodes)
	layers["runner.classes"] = float64(p.classes - before.classes)
	layers["runner.replica_runs"] = float64(p.replicas - before.replicas)
}

// tracePaperEval runs every experiment under its own span and adds each
// span to its experiments.*_ms bucket.
func tracePaperEval(tr *tracer, o agilewatts.Options, layers map[string]float64) (string, error) {
	for name := range experimentBuckets {
		layers["experiments."+name+"_ms"] = 0
	}
	layers["experiments.other_ms"] = 0
	root := tr.begin("paper-eval", 0, 0)
	h := sha256.New()
	for i, name := range agilewatts.Experiments() {
		id := tr.begin("RunExperiment "+name, root, i)
		if err := agilewatts.RunExperiment(name, o, h); err != nil {
			return "", fmt.Errorf("experiment %s: %w", name, err)
		}
		bucket := "experiments.other_ms"
		if experimentBuckets[name] {
			bucket = "experiments." + name + "_ms"
		}
		layers[bucket] += ms(tr.end(id))
	}
	tr.end(root)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// traceRunScenario runs the scenario in batch, first in this process so
// on a cold runner memo, and records cluster.run_scenario_s.
func traceRunScenario(tr *tracer, run agilewatts.ScenarioRun, layers map[string]float64) (string, error) {
	id := tr.begin("RunScenario", 0, 0)
	res, err := agilewatts.RunScenario(run)
	layers["cluster.run_scenario_s"] = tr.end(id).Seconds()
	if err != nil {
		return "", err
	}
	return resultDigest(res)
}

// traceTwinSession replays the served session's calls in process: a Step
// per epoch, a checkpoint snapshot at the daemon's cadence, a fork
// stepped with forced targets and summarized per what-if, a snapshot
// and restore, and the final result, encoded as /v1/result encodes it.
func traceTwinSession(tr *tracer, run agilewatts.ScenarioRun) (string, error) {
	root := tr.begin("twin session", 0, 0)
	defer tr.end(root)
	id := tr.begin("NewLiveScenario", root, 0)
	live, err := agilewatts.NewLiveScenario(run)
	tr.end(id)
	if err != nil {
		return "", err
	}
	epochs, whatifs := live.Epochs(), 0
	for e := 1; e <= epochs; e++ {
		id := tr.begin("Step", root, e)
		_, err := live.Step()
		tr.end(id)
		if err != nil {
			return "", err
		}
		if e%twinCheckpointEvery == 0 {
			id := tr.begin("Snapshot (checkpoint)", root, e)
			_, err := live.Snapshot()
			tr.end(id)
			if err != nil {
				return "", err
			}
		}
		if e%twinWhatIfEvery == 0 && e < epochs {
			if err := traceWhatIf(tr, root, e, live, 1+whatifs%4); err != nil {
				return "", err
			}
			whatifs++
		}
		if e%twinRestoreEvery == 0 && e < epochs {
			id := tr.begin("Snapshot", root, e)
			snap, err := live.Snapshot()
			tr.end(id)
			if err != nil {
				return "", err
			}
			id = tr.begin("RestoreLiveScenario", root, e)
			live, err = agilewatts.RestoreLiveScenario(run, snap)
			tr.end(id)
			if err != nil {
				return "", err
			}
		}
	}
	id = tr.begin("Result", root, epochs)
	res, err := live.Result()
	tr.end(id)
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

func traceWhatIf(tr *tracer, root, epoch int, live *agilewatts.LiveScenario, target int) error {
	w := tr.begin("what-if", root, epoch)
	defer tr.end(w)
	id := tr.begin("Fork", w, epoch)
	fork := live.Fork()
	tr.end(id)
	for i := 0; i < twinWhatIfEpochs && !fork.Done(); i++ {
		id := tr.begin("StepTarget", w, epoch)
		_, err := fork.StepTarget(target)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	id = tr.begin("Result", w, epoch)
	_, err := fork.Result()
	tr.end(id)
	return err
}

// probeLive steps the scenario's live fleet to its last epoch, then
// times a snapshot, a fork with one forced step, and a restore there,
// steps the last epoch and takes the result. It returns the result's
// digest, which must equal RunScenario's.
func probeLive(tr *tracer, run agilewatts.ScenarioRun, layers map[string]float64) (string, error) {
	root := tr.begin("live probe", 0, 0)
	defer tr.end(root)
	id := tr.begin("NewLiveScenario", root, 0)
	live, err := agilewatts.NewLiveScenario(run)
	layers["cluster.new_live_ms"] = ms(tr.end(id))
	if err != nil {
		return "", err
	}
	var steps []float64
	step := func() error {
		id := tr.begin("Step", root, live.Epoch()+1)
		_, err := live.Step()
		steps = append(steps, ms(tr.end(id)))
		return err
	}
	for live.Epoch() < live.Epochs()-1 {
		if err := step(); err != nil {
			return "", err
		}
	}
	id = tr.begin("Snapshot", root, live.Epoch())
	snap, err := live.Snapshot()
	layers["cluster.snapshot_ms"] = ms(tr.end(id))
	layers["cluster.snapshot_bytes"] = float64(len(snap))
	if err != nil {
		return "", err
	}
	id = tr.begin("Fork+StepTarget", root, live.Epoch())
	_, err = live.Fork().StepTarget(max(1, run.Nodes/2))
	layers["cluster.fork_ms"] = ms(tr.end(id))
	if err != nil {
		return "", err
	}
	id = tr.begin("RestoreLiveScenario", root, live.Epoch())
	restored, err := agilewatts.RestoreLiveScenario(run, snap)
	layers["cluster.restore_ms"] = ms(tr.end(id))
	if err != nil {
		return "", err
	}
	if restored.Epoch() != live.Epoch() {
		return "", fmt.Errorf("restored at epoch %d, snapshot taken at %d", restored.Epoch(), live.Epoch())
	}
	if err := step(); err != nil {
		return "", err
	}
	id = tr.begin("Result", root, live.Epoch())
	res, err := live.Result()
	layers["cluster.result_ms"] = ms(tr.end(id))
	if err != nil {
		return "", err
	}
	sum := 0.0
	for _, s := range steps {
		sum += s
	}
	layers["cluster.step_ms_p50"] = median(steps)
	layers["cluster.step_ms_max"] = percentile(steps, 100)
	layers["cluster.step_ms_sum"] = sum
	return resultDigest(res)
}

// nodeSpec is the scenario's representative node timeline: the node
// template run through every epoch at an even share of the schedule's
// mean rate over that epoch.
func nodeSpec(run agilewatts.ScenarioRun) (runner.TimelineSpec, error) {
	sched := run.Schedule
	if sched == nil {
		var err error
		if sched, err = agilewatts.NamedSchedule(run.Scenario, run.RateQPS, run.TotalNS); err != nil {
			return runner.TimelineSpec{}, err
		}
	}
	spec := runner.TimelineSpec{
		Node: server.Config{Platform: run.Platform, Profile: run.Service, Warmup: run.WarmupNS, Seed: run.Seed},
		Park: run.ParkDrained,
	}
	for t := sim.Time(0); t < sched.Duration(); t += run.EpochNS {
		end := min(t+run.EpochNS, sched.Duration())
		spec.Intervals = append(spec.Intervals, runner.Interval{
			Window: end - t,
			Rate:   sched.AvgRate(t, end) / float64(run.Nodes),
		})
	}
	return spec, nil
}

// perCall times fn over enough calls to fill 50 ms (at least ten).
func perCall(fn func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for n < 10 || time.Since(start) < 50*time.Millisecond {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

// probeTimeline measures the runner and server layers on the
// representative node timeline: keying it, running it as a memo miss
// and a hit on a fresh runner, and running it on a bare instance, which
// is then snapshotted and restored.
func probeTimeline(tr *tracer, run agilewatts.ScenarioRun, layers map[string]float64) error {
	spec, err := nodeSpec(run)
	if err != nil {
		return err
	}
	id := tr.begin("TimelineKey", 0, 0)
	d, _ := perCall(func() error { runner.TimelineKey(spec); return nil })
	tr.end(id)
	layers["runner.timeline_key_us"] = us(d)

	r := runner.New(0)
	id = tr.begin("RunTimeline (miss)", 0, 0)
	_, err = r.RunTimeline(spec)
	layers["runner.timeline_ms"] = ms(tr.end(id))
	if err != nil {
		return err
	}
	id = tr.begin("RunTimeline (hit)", 0, 0)
	d, err = perCall(func() error { _, err := r.RunTimeline(spec); return err })
	tr.end(id)
	layers["runner.timeline_hit_us"] = us(d)
	if err != nil {
		return err
	}

	root := tr.begin("server timeline", 0, 0)
	defer tr.end(root)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ins, err := server.NewInstance(spec.Node, spec.Park)
	if err != nil {
		return err
	}
	simNS, requests := float64(spec.Node.Warmup), 0.0
	for i, iv := range spec.Intervals {
		id := tr.begin("RunInterval", root, i)
		res, err := ins.RunInterval(iv.Window, iv.Rate)
		tr.end(id)
		if err != nil {
			return err
		}
		simNS += float64(iv.Window)
		requests += res.Result.CompletedPerSec * res.Result.MeasuredDuration.Seconds()
	}
	wall := float64(time.Since(start).Nanoseconds())
	runtime.ReadMemStats(&m1)
	layers["server.ns_per_sim_ms"] = wall / (simNS / 1e6)
	layers["server.ns_per_request"] = wall / requests
	layers["server.allocs_per_interval"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(spec.Intervals))

	id = tr.begin("Instance.Snapshot", root, 0)
	snap, err := ins.Snapshot()
	layers["server.snapshot_us"] = us(tr.end(id))
	if err != nil {
		return err
	}
	id = tr.begin("server.Restore", root, 0)
	_, err = server.Restore(snap)
	layers["server.restore_ms"] = ms(tr.end(id))
	return err
}

// probeEngine measures raw event throughput: schedule and fire one event
// per step through a rolling 64-deep queue, as BenchmarkEngineChurn does.
func probeEngine(tr *tracer, layers map[string]float64) {
	const depth, events = 64, 2_000_000
	e := sim.NewEngine()
	var fn sim.Handler
	fn = func(sim.Time) { e.Schedule(depth, fn) }
	for i := 0; i < depth; i++ {
		e.Schedule(sim.Time(i), fn)
	}
	id := tr.begin("engine churn", 0, 0)
	for i := 0; i < events; i++ {
		e.Step()
	}
	layers["sim.ns_per_event"] = float64(tr.end(id).Nanoseconds()) / events
}

// probeParse measures loading the twin scenario file.
func probeParse(tr *tracer, path string, layers map[string]float64) error {
	id := tr.begin("LoadScenarioFiles", 0, 0)
	d, err := perCall(func() error { _, err := agilewatts.LoadScenarioFiles(path); return err })
	tr.end(id)
	layers["scenariofile.parse_us"] = us(d)
	return err
}
