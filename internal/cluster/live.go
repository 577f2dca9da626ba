package cluster

import (
	"fmt"
	"sort"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
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
	// snapLen is the length of the last checkpoint, the next one's
	// starting buffer capacity; hist caches the epoch records' encoding
	// (see Snapshot).
	snapLen int
	hist    encodedHistory
}

// NewLive builds the steppable fleet for the scenario config. Every
// config RunScenario accepts is steppable.
func NewLive(cfg ScenarioConfig) (*Live, error) {
	l, err := newLive(cfg)
	if err != nil {
		return nil, err
	}
	l.ctrl = l.makeController()
	if l.classes, err = initialLiveClasses(l.c, l.r, initialGroups(l.c)); err != nil {
		return nil, err
	}
	return l, nil
}

// newLive builds a fleet with its plan and admission state but no
// classes and no controller yet: what NewLive starts from and what
// RestoreLive decodes into.
func newLive(cfg ScenarioConfig) (*Live, error) {
	p, err := newScenarioPlan(cfg)
	if err != nil {
		return nil, err
	}
	return &Live{scenarioPlan: p, adm: p.c.newAdmission()}, nil
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
// after attaching mid-run (or after a restore, which decodes the
// samples exactly as the original run recorded them).
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
			results: make([][]server.IntervalResult, l.c.Replicas+1),
		}
		tclasses[ci].results[0] = cl.results
	}
	out.Classes = len(tclasses)
	out.ReplicaRuns = len(tclasses) * l.c.Replicas
	if l.c.Replicas > 0 {
		if err := l.runReplicas(classes, tclasses); err != nil {
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

// timeline returns the class's realized timeline: each completed
// epoch's window from the realized plan, its rate from the class's
// measurement and its fault from the plan's fault row.
func (l *Live) timeline(cl *liveClass) []runner.Interval {
	ivs := make([]runner.Interval, l.epoch)
	for e := range ivs {
		w := &l.realized[e]
		ivs[e] = runner.Interval{Window: w.end - w.start, Rate: cl.results[e].RateQPS}
		if l.faults != nil && l.faults[e] != nil {
			ivs[e].Fault = l.faults[e][cl.rep]
		}
	}
	return ivs
}

// Fork returns an independent copy of the fleet at the current epoch
// boundary. The copy shares nothing mutable with the parent: class
// measurements are copied, every class's warm cursor is cloned in
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
			rep:     cl.rep,
			members: append([]int(nil), cl.members...),
			node:    cl.node,
			ins:     cl.ins.Clone(),
			results: append([]server.IntervalResult(nil), cl.results...),
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
