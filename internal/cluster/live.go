package cluster

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/snapbuf"
)

// Live is a warm fleet scenario stepped one epoch at a time under
// caller control — the digital-twin engine behind the awserved daemon.
// Where RunScenario executes the whole plan and returns, a Live holds
// the fleet mid-scenario: Step advances it by one epoch (controller
// decisions and fault plan applied exactly as RunScenario would),
// StepTarget forces the next epoch's active-node target (the what-if
// knob), Telemetry exposes each finished epoch's fleet sample, Fork
// spawns an independent bit-identical copy, and Snapshot/RestoreLive
// checkpoint the whole fleet across processes.
//
// Determinism contract: RunScenario is a Live stepped to completion,
// so stepping one by hand and calling Result returns exactly (DeepEqual)
// the ScenarioResult RunScenario returns for the same config. A fork's
// subsequent timeline is bit-identical to its parent's, and an
// open-loop run's per-node measurements are bit-identical to running
// each node's own timeline alone. These properties are pinned by tests.
//
// A Live is single-goroutine, like the instances it wraps.
type Live struct {
	scenarioPlan
	// ctrl decides each unforced epoch's target; nil for open-loop and
	// oracle runs, which route across the whole up fleet.
	ctrl Controller
	// adm is the run-time admission state (nil when overload control is
	// disabled): every epoch admits against its active set at step time,
	// and the queue policy's backlog carries across forced and unforced
	// epochs alike.
	adm *admission

	classes  []*liveClass
	realized []epochWindow
	targets  []int
	forced   []bool
	tels     []FleetTelemetry
	epoch    int
}

// NewLive builds the steppable fleet for the scenario config. Every
// config RunScenario accepts is steppable.
func NewLive(cfg ScenarioConfig) (*Live, error) {
	p, err := newScenarioPlan(cfg)
	if err != nil {
		return nil, err
	}
	l := &Live{scenarioPlan: p, adm: p.c.newAdmission()}
	l.ctrl = l.makeController()
	if l.classes, err = initialLiveClasses(p.c, p.r); err != nil {
		return nil, err
	}
	return l, nil
}

// makeController builds the configured controller, or nil for
// open-loop and oracle runs. Without a controller it skips the O(nodes)
// capacity scan that sizes one.
func (l *Live) makeController() Controller {
	if !l.c.Controller.enabled() {
		return nil
	}
	return newController(l.c.Controller, FleetInfo{
		Nodes:      len(l.c.Nodes),
		PerNodeQPS: meanCapacityQPS(l.c.Nodes),
		TargetUtil: l.c.Controller.TargetUtil,
		Epoch:      l.c.Epoch,
	})
}

// Epochs returns the plan length; Epoch the number already completed;
// Done whether the scenario has run out of schedule.
func (l *Live) Epochs() int { return len(l.plan) }
func (l *Live) Epoch() int  { return l.epoch }
func (l *Live) Done() bool  { return l.epoch >= len(l.plan) }

// Clock returns the fleet's simulated position: the end of the last
// completed epoch.
func (l *Live) Clock() sim.Time {
	if l.epoch == 0 {
		return 0
	}
	return l.realized[l.epoch-1].end
}

// Telemetry returns the last completed epoch's fleet sample; ok is
// false before the first Step.
func (l *Live) Telemetry() (FleetTelemetry, bool) {
	if l.epoch == 0 {
		return FleetTelemetry{}, false
	}
	return l.tels[l.epoch-1], true
}

// History returns a copy of the fleet samples for every completed
// epoch, in epoch order — the stream a monitoring frontend replays
// after attaching mid-run (or after a restore, whose re-stepped epochs
// land here exactly as the original run recorded them).
func (l *Live) History() []FleetTelemetry {
	out := make([]FleetTelemetry, l.epoch)
	copy(out, l.tels[:l.epoch])
	return out
}

// Step advances the fleet one epoch: the controller (or, open-loop and
// under the oracle, the whole fleet) decides the active set, admission
// control clips the epoch's demand to that set's capacity, the
// dispatcher routes the admitted rate across it, every class simulates
// its window, and the boundary telemetry is folded and returned. The
// controller decides against the *finished* epoch's telemetry: one full
// epoch of lag, the honest feedback regime.
func (l *Live) Step() (FleetTelemetry, error) {
	return l.step(0, false)
}

// StepTarget advances the fleet one epoch with the active-node target
// forced to target — the what-if knob ("park all but 8 nodes for the
// next hour" is a sequence of StepTarget(8) calls on a fork). The
// forced epoch bypasses the controller entirely: its state does not
// advance, exactly as if an operator had overridden the autoscaler for
// the window.
func (l *Live) StepTarget(target int) (FleetTelemetry, error) {
	return l.step(target, true)
}

func (l *Live) step(forcedTarget int, force bool) (FleetTelemetry, error) {
	if l.Done() {
		return FleetTelemetry{}, fmt.Errorf("cluster: live scenario finished (all %d epochs stepped)", len(l.plan))
	}
	e := l.epoch
	realized := l.plan[e]
	var frow []runner.Fault
	if l.faults != nil {
		frow = l.faults[e]
	}
	n := len(l.c.Nodes)
	target := n // cold start: everything active until telemetry arrives
	switch {
	case force:
		target = clampTarget(forcedTarget, n)
	case l.ctrl != nil && e > 0:
		target = clampTarget(l.ctrl.Observe(l.tels[e-1]), n)
	}
	up := l.activeSet(target, frow)
	// The active set is the capacity the policy admits against, so a
	// consolidated fleet saturates before a fully unparked one would.
	route := realized.rate
	if l.adm != nil {
		winSec := float64(realized.end-realized.start) / 1e9
		route, realized.overloadAccount = l.adm.admit(realized.rate, l.c.overloadCapacity(up), winSec)
	}
	rates := partitionOver(l.c, l.part, route, up)
	if l.ctrl == nil && !force {
		// Open-loop and oracle epochs report the nodes they routed load to.
		target = 0
		for _, rt := range rates {
			if rt > 0 {
				target++
			}
		}
	}

	l.classes = splitByRate(l.classes, rates, frow)
	if err := runEpoch(l.classes, realized.end-realized.start, l.r); err != nil {
		return FleetTelemetry{}, err
	}
	tel := fleetTelemetry(e, realized, l.classes, l.c.CompactNodes, n)

	l.realized = append(l.realized, realized)
	l.targets = append(l.targets, target)
	l.forced = append(l.forced, force)
	l.tels = append(l.tels, tel)
	l.epoch++
	return tel, nil
}

// activeSet returns the active node indices for a target: the first
// target up nodes in fleet order (crashed nodes skipped). With fewer
// than target up nodes the whole surviving fleet serves. An epoch
// without a fault row gets a prefix of the plan's identity set, so a
// healthy fleet pays no O(nodes) index list per epoch.
func (l *Live) activeSet(target int, faults []runner.Fault) []int {
	if faults == nil {
		return l.all[:target]
	}
	up := make([]int, 0, target)
	for i := range l.c.Nodes {
		if faults[i].Down {
			continue
		}
		up = append(up, i)
		if len(up) == target {
			break
		}
	}
	return up
}

// Result packages the epochs completed so far: realized timelines
// become timeline classes, replicas add seeded error bars, and one
// fold does the park/restart bookkeeping and the fleet and phase
// aggregation. RunScenario is this, called once on a Live stepped to
// completion.
func (l *Live) Result() (ScenarioResult, error) {
	if l.epoch == 0 {
		return ScenarioResult{}, fmt.Errorf("cluster: live scenario has no completed epochs to report")
	}
	out := l.c.newResult()
	realized := l.realized[:l.epoch]
	// Classes are ordered by first member, the order that fixes each
	// class's replica seeds and the fold's summation order, whatever
	// order the splits left them in.
	classes := append([]*liveClass(nil), l.classes...)
	sort.Slice(classes, func(i, j int) bool { return classes[i].rep < classes[j].rep })
	tclasses := make([]timelineClass, len(classes))
	for ci, cl := range classes {
		tclasses[ci] = timelineClass{
			rep:     cl.rep,
			members: cl.members,
			spec:    runner.TimelineSpec{Node: cl.node, Park: l.c.ParkDrained, Intervals: cl.intervals},
			results: make([][]server.IntervalResult, l.c.Replicas+1),
		}
		tclasses[ci].results[0] = cl.results
	}
	out.Classes = len(tclasses)
	out.ReplicaRuns = len(tclasses) * l.c.Replicas
	if l.c.Replicas > 0 {
		if err := runReplicas(tclasses, l.c.Replicas, l.r); err != nil {
			return ScenarioResult{}, err
		}
	}
	foldEpochs(l.c, realized, tclasses, &out)
	out.CI = scenarioClassCI(tclasses, realized, l.c.Replicas)
	if l.c.Controller.enabled() {
		out.Controller = l.c.Controller.displayName()
		prev := -1
		for e := range out.Epochs {
			out.Epochs[e].TargetNodes = l.targets[e]
			if prev >= 0 && l.targets[e] != prev {
				out.ControllerChanges++
			}
			prev = l.targets[e]
		}
	}
	out.finish()
	return out, nil
}

// Fork returns an independent copy of the fleet at the current epoch
// boundary. The copy shares nothing mutable with the parent: class
// timelines are copied, every class's warm cursor is cloned in
// O(node state) whatever the history length (the mechanism a class
// split uses too), and the controller is rebuilt by replaying its
// observation history. Stepping the fork and the parent through
// identical futures yields bit-identical measurements — what-if
// queries run on forks so the live fleet is never disturbed.
func (l *Live) Fork() *Live {
	n := &Live{
		scenarioPlan: l.scenarioPlan,
		realized:     append([]epochWindow(nil), l.realized...),
		targets:      append([]int(nil), l.targets...),
		forced:       append([]bool(nil), l.forced...),
		tels:         append([]FleetTelemetry(nil), l.tels...),
		epoch:        l.epoch,
	}
	if l.adm != nil {
		admCopy := *l.adm
		n.adm = &admCopy
	}
	n.classes = make([]*liveClass, len(l.classes))
	for ci, cl := range l.classes {
		n.classes[ci] = &liveClass{
			rep:       cl.rep,
			members:   append([]int(nil), cl.members...),
			node:      cl.node,
			ins:       cl.ins.Clone(),
			intervals: append([]runner.Interval(nil), cl.intervals...),
			results:   append([]server.IntervalResult(nil), cl.results...),
			rate:      cl.rate,
			fault:     cl.fault,
		}
	}
	n.ctrl = n.rebuildController()
	return n
}

// rebuildController reconstructs the controller's internal state by
// replaying its observation history: controllers are deterministic
// functions of the telemetry sequence they observed, and forced
// (StepTarget) epochs bypassed Observe, so replaying the unforced
// prefix reproduces the state machine exactly.
func (l *Live) rebuildController() Controller {
	ctrl := l.makeController()
	if ctrl == nil {
		return nil
	}
	for e := 1; e < l.epoch; e++ {
		if !l.forced[e] {
			ctrl.Observe(l.tels[e-1])
		}
	}
	return ctrl
}

// liveSnapshotVersion versions the fleet checkpoint document. Same
// policy as the instance format: bumped on any encoding or replay-
// equivalence change, no cross-version migration. Version 2 added the
// overload admission policy to the identity block. Version 3 keeps the
// encoding but replays differently: an unforced open-loop or oracle
// epoch after a forced one now admits against the backlog the forced
// epoch left, not against a precomputed plan's.
const liveSnapshotVersion = 3

// Snapshot checkpoints the fleet: an identity block naming the
// scenario shape (restore rejects a mismatched config), the decision
// history (per-epoch targets and which were forced), and a per-class
// verification block with each representative's full instance
// snapshot. RestoreLive re-steps the scenario deterministically and
// then proves byte-equality of every rebuilt instance against the
// captured ones, so a checkpoint can never silently restore onto a
// diverged simulator or a different scenario file.
func (l *Live) Snapshot() ([]byte, error) {
	var e snapbuf.Encoder
	e.U8(liveSnapshotVersion)

	// Identity block.
	e.I64(int64(len(l.c.Nodes)))
	e.I64(int64(len(l.plan)))
	e.I64(int64(l.c.total))
	e.I64(int64(l.c.Epoch))
	e.Str(l.c.Schedule.Name())
	e.Str(l.c.Dispatch)
	e.Str(l.c.Controller.Name)
	e.Bool(l.c.ParkDrained)
	e.Bool(l.c.CompactNodes)
	e.I64(int64(l.c.Replicas))
	e.Str(l.c.Overload.Policy)
	e.F64(l.c.Overload.MaxUtil)
	e.F64(l.c.Overload.MaxBacklogSec)

	// Decision history.
	e.I64(int64(l.epoch))
	for i := 0; i < l.epoch; i++ {
		e.I64(int64(l.targets[i]))
		e.Bool(l.forced[i])
	}

	// Per-class verification block.
	e.I64(int64(len(l.classes)))
	for _, cl := range l.classes {
		e.I64(int64(cl.rep))
		e.I64(int64(len(cl.members)))
		e.Bool(cl.ins.Down())
		e.I64(int64(cl.ins.Restarts()))
		if ins := cl.ins.Instance(); ins != nil {
			blob, err := ins.Snapshot()
			if err != nil {
				return nil, fmt.Errorf("cluster: snapshot: node %d: %w", cl.rep, err)
			}
			e.Bytes(blob)
		} else {
			e.Bytes(nil) // crashed: no warm state to capture
		}
	}
	return e.Buf, nil
}

// RestoreLive rebuilds a fleet checkpoint taken by Live.Snapshot. The
// caller supplies the same ScenarioConfig the checkpoint was taken
// under (the daemon holds the scenario file; the payload carries only
// an identity block to reject mismatches). The decision history is
// re-stepped through the normal engine — deterministic replay — and
// every rebuilt class representative is verified byte-for-byte against
// its captured instance snapshot.
func RestoreLive(cfg ScenarioConfig, data []byte) (*Live, error) {
	d := snapbuf.NewDecoder(data)
	if v := d.U8(); d.Err() == nil && v != liveSnapshotVersion {
		return nil, fmt.Errorf("cluster: restore: unknown fleet snapshot version %d (want %d)", v, liveSnapshotVersion)
	}
	l, err := NewLive(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}

	// Identity block.
	type ident struct {
		nodes, plan          int64
		total, epoch         int64
		sched, disp          string
		ctrl                 string
		park, compact        bool
		replicas             int64
		overload             string
		maxUtil, maxBacklogS float64
	}
	got := ident{
		nodes: int64(len(l.c.Nodes)), plan: int64(len(l.plan)),
		total: int64(l.c.total), epoch: int64(l.c.Epoch),
		sched: l.c.Schedule.Name(), disp: l.c.Dispatch,
		ctrl: l.c.Controller.Name, park: l.c.ParkDrained,
		compact: l.c.CompactNodes, replicas: int64(l.c.Replicas),
		overload: l.c.Overload.Policy, maxUtil: l.c.Overload.MaxUtil,
		maxBacklogS: l.c.Overload.MaxBacklogSec,
	}
	want := ident{
		nodes: d.I64(), plan: d.I64(), total: d.I64(), epoch: d.I64(),
		sched: d.Str(), disp: d.Str(), ctrl: d.Str(),
		park: d.Bool(), compact: d.Bool(), replicas: d.I64(),
		overload: d.Str(), maxUtil: d.F64(), maxBacklogS: d.F64(),
	}
	if d.Err() == nil && got != want {
		return nil, fmt.Errorf("cluster: restore: scenario config does not match the checkpoint (have %+v, checkpoint %+v)", got, want)
	}

	// Decision history.
	nEpochs := d.I64()
	if d.Err() == nil && (nEpochs < 0 || nEpochs > int64(len(l.plan))) {
		return nil, fmt.Errorf("cluster: restore: checkpoint has %d epochs, plan has %d", nEpochs, len(l.plan))
	}
	targets := make([]int, 0, nEpochs)
	forced := make([]bool, 0, nEpochs)
	for i := int64(0); i < nEpochs && d.Err() == nil; i++ {
		targets = append(targets, int(d.I64()))
		forced = append(forced, d.Bool())
	}

	// Verification block (decoded fully before any replay runs, so a
	// truncated payload is rejected without burning simulation time).
	type classCheck struct {
		rep, members, restarts int64
		down                   bool
		blob                   []byte
	}
	nClasses := d.I64()
	if d.Err() == nil && (nClasses < 0 || nClasses > int64(len(l.c.Nodes))) {
		return nil, fmt.Errorf("cluster: restore: implausible class count %d for a %d-node fleet", nClasses, len(l.c.Nodes))
	}
	checks := make([]classCheck, 0, nClasses)
	for i := int64(0); i < nClasses && d.Err() == nil; i++ {
		c := classCheck{rep: d.I64(), members: d.I64()}
		c.down = d.Bool()
		c.restarts = d.I64()
		c.blob = d.Bytes()
		checks = append(checks, c)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}

	// Deterministic re-step: forced epochs replay their recorded target,
	// unforced epochs re-derive theirs (controller or whole fleet) — and must
	// land on the recorded value, or the simulator/scenario has diverged
	// from the checkpoint.
	for e := 0; e < len(targets); e++ {
		var err error
		if forced[e] {
			_, err = l.StepTarget(targets[e])
		} else {
			_, err = l.Step()
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: restore: replay epoch %d: %w", e, err)
		}
		if l.targets[e] != targets[e] {
			return nil, fmt.Errorf("cluster: restore: replay epoch %d chose target %d, checkpoint recorded %d (simulator changed since capture?)",
				e, l.targets[e], targets[e])
		}
	}

	// Class-structure and instance-state verification.
	if len(l.classes) != len(checks) {
		return nil, fmt.Errorf("cluster: restore: replay produced %d classes, checkpoint recorded %d (simulator changed since capture?)",
			len(l.classes), len(checks))
	}
	for ci, cl := range l.classes {
		ck := checks[ci]
		if int64(cl.rep) != ck.rep || int64(len(cl.members)) != ck.members {
			return nil, fmt.Errorf("cluster: restore: class %d is node %d x%d, checkpoint recorded node %d x%d (simulator changed since capture?)",
				ci, cl.rep, len(cl.members), ck.rep, ck.members)
		}
		if cl.ins.Down() != ck.down || int64(cl.ins.Restarts()) != ck.restarts {
			return nil, fmt.Errorf("cluster: restore: class %d crash state diverged from the checkpoint (simulator changed since capture?)", ci)
		}
		ins := cl.ins.Instance()
		if ins == nil {
			if len(ck.blob) != 0 {
				return nil, fmt.Errorf("cluster: restore: class %d replayed as crashed but the checkpoint captured warm state", ci)
			}
			continue
		}
		blob, err := ins.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: restore: class %d: %w", ci, err)
		}
		if !bytes.Equal(blob, ck.blob) {
			return nil, fmt.Errorf("cluster: restore: class %d instance state diverged from the checkpoint (simulator changed since capture?)", ci)
		}
	}
	return l, nil
}
