package cluster

import (
	"fmt"

	"repro/internal/runner"
	"repro/internal/server"
)

// Overload policy names accepted by OverloadSpec.Policy.
const (
	// OverloadShed drops the demand the active fleet cannot absorb:
	// every epoch admits at most the active-set capacity (at MaxUtil)
	// and accounts the rest, request by request, in SheddedRequests —
	// the classic load-shedding front door.
	OverloadShed = "shed"
	// OverloadDegrade admits everything and lets latency absorb the
	// excess: nothing is dropped, but every epoch whose offered rate
	// exceeds the admission capacity is marked Saturated — the
	// SLO-violation ledger an operator reads after the fact.
	OverloadDegrade = "degrade"
	// OverloadQueue carries the excess into the next epoch as backlog:
	// admitted rate is capped at capacity, the remainder queues (up to
	// MaxBacklogSec of full-fleet capacity) and drains when headroom
	// returns; backlog past the cap spills into SheddedRequests.
	OverloadQueue = "queue"
)

// OverloadPolicies lists the built-in overload policy names.
func OverloadPolicies() []string {
	return []string{OverloadShed, OverloadDegrade, OverloadQueue}
}

// OverloadSpec is the scenario's admission-control description: what
// happens when the offered rate exceeds what the active fleet can
// absorb. Each epoch the engine compares demand against the active
// set's capacity at MaxUtil (per-node capacityQPS summed over the up,
// routed nodes) and applies the policy to the excess. The zero value
// disables admission control entirely and keeps every scenario result
// bit-identical to a run that predates it.
type OverloadSpec struct {
	// Policy picks a built-in policy (see OverloadPolicies). Empty
	// disables admission control.
	Policy string
	// MaxUtil is the per-node utilization the admission capacity is
	// computed at — the ceiling the operator is willing to run the
	// active set to under pressure, deliberately above the dispatcher's
	// TargetUtil comfort point. 0 means the 0.85 default.
	MaxUtil float64
	// MaxBacklogSec bounds the queue policy's backlog: at most this many
	// seconds of full-fleet capacity (at MaxUtil) may queue; overflow is
	// shed. 0 means the 1.0 default. Ignored by shed/degrade.
	MaxBacklogSec float64
}

// enabled reports whether the spec selects any policy.
func (s OverloadSpec) enabled() bool { return s.Policy != "" }

// normalizeOverload resolves the spec's defaults and rejects unusable
// tunings. Called from Normalize, so RunScenario, Validate and the CLIs
// report identical errors for identical mistakes.
func normalizeOverload(s OverloadSpec) (OverloadSpec, error) {
	if !s.enabled() {
		return s, nil
	}
	switch s.Policy {
	case OverloadShed, OverloadDegrade, OverloadQueue:
	default:
		return s, fmt.Errorf("cluster: unknown overload policy %q (known: %v)", s.Policy, OverloadPolicies())
	}
	if s.MaxUtil == 0 {
		s.MaxUtil = 0.85
	}
	if s.MaxUtil < 0 || s.MaxUtil > 1 {
		return s, fmt.Errorf("cluster: overload max utilization %g outside (0, 1]", s.MaxUtil)
	}
	if s.MaxBacklogSec == 0 {
		s.MaxBacklogSec = 1.0
	}
	if s.MaxBacklogSec < 0 {
		return s, fmt.Errorf("cluster: negative overload backlog cap %g", s.MaxBacklogSec)
	}
	return s, nil
}

// overloadCapacity is the admission capacity of the given active set:
// each up node contributes its 100%-utilization capacity scaled to the
// MaxUtil ceiling.
func (c resolvedScenario) overloadCapacity(up []int) float64 {
	var sum float64
	for _, i := range up {
		sum += c.Overload.MaxUtil * capacityQPS(&c.Nodes[i])
	}
	return sum
}

// AdmissionCapacityQPS reports the admission ceiling of a full healthy
// fleet at maxUtil — the rate past which a scenario with an overload
// policy starts clipping. Exposed so experiment and CLI layers can size
// overload fixtures relative to real capacity instead of guessing.
func AdmissionCapacityQPS(nodes []server.Config, maxUtil float64) float64 {
	var sum float64
	for i := range nodes {
		sum += maxUtil * capacityQPS(&nodes[i])
	}
	return sum
}

// overloadAccount is one epoch's admission outcome: whether demand
// exceeded capacity, the requests dropped, and the requests still
// queued at the epoch boundary (queue policy).
type overloadAccount struct {
	saturated  bool
	shedded    float64
	backlogReq float64
}

// admission carries the overload-control state across epochs — for the
// shed and degrade policies it is stateless bookkeeping, for queue it
// holds the backlog. One admission instance follows one fleet timeline
// (a fork copies it), and the plan adjuster runs its own, so replayed
// epochs and run-time decisions see identical sequences.
type admission struct {
	policy     string
	maxBacklog float64 // requests; the queue policy's cap
	backlog    float64 // requests queued but not yet admitted
}

// newAdmission builds the run's admission state, or nil when admission
// control is disabled — the nil return mirrors faultPlan's and is what
// guarantees the zero OverloadSpec leaves every code path untouched.
func (c resolvedScenario) newAdmission() *admission {
	if !c.Overload.enabled() {
		return nil
	}
	return &admission{
		policy:     c.Overload.Policy,
		maxBacklog: c.Overload.MaxBacklogSec * c.overloadCapacity(allNodes(len(c.Nodes))),
	}
}

// allNodes is the identity active set: every node index.
func allNodes(n int) []int {
	up := make([]int, n)
	for i := range up {
		up[i] = i
	}
	return up
}

// admit applies the overload policy for one epoch: offered is the
// schedule's mean rate over the window, capacity the active set's
// admission ceiling, winSec the window length. It returns the rate the
// dispatcher should actually route and the epoch's account. When the
// admitted rate equals the offered rate exactly, callers keep the
// original partition untouched (bit-for-bit) — admission only ever
// re-partitions epochs it actually clipped.
func (a *admission) admit(offered, capacity, winSec float64) (float64, overloadAccount) {
	switch a.policy {
	case OverloadDegrade:
		return offered, overloadAccount{saturated: offered > capacity}
	case OverloadQueue:
		demand := offered
		if a.backlog > 0 {
			demand += a.backlog / winSec
		}
		admitted := demand
		if admitted > capacity {
			admitted = capacity
		}
		carried := (demand - admitted) * winSec
		var shed float64
		if carried > a.maxBacklog {
			shed = carried - a.maxBacklog
			carried = a.maxBacklog
		}
		a.backlog = carried
		return admitted, overloadAccount{
			saturated:  demand > capacity,
			shedded:    shed,
			backlogReq: carried,
		}
	default: // OverloadShed
		if offered <= capacity {
			return offered, overloadAccount{}
		}
		return capacity, overloadAccount{
			saturated: true,
			shedded:   (offered - capacity) * winSec,
		}
	}
}

// upSet returns the indices of the nodes not crashed under this epoch's
// fault row (nil means healthy) — the open-loop active set.
func upSet(n int, frow []runner.Fault) []int {
	if frow == nil {
		return allNodes(n)
	}
	up := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !frow[i].Down {
			up = append(up, i)
		}
	}
	return up
}

// applyOverloadPlan runs admission control over the precomputed epoch
// plan — the open-loop (and oracle-replay) counterpart of the run-time
// admission the controller path performs. It walks the plan in epoch
// order (the queue policy's backlog is sequential state), clips each
// epoch's rate to the up set's capacity per the policy, re-partitions
// only the epochs it clipped, and records each epoch's account on its
// window. Runs after applyFaultRates, so capacity reflects crashed
// nodes.
func applyOverloadPlan(c resolvedScenario, part func(Config) []float64, plan []epochWindow, faults [][]runner.Fault) {
	adm := c.newAdmission()
	if adm == nil {
		return
	}
	for e := range plan {
		pw := &plan[e]
		var frow []runner.Fault
		if faults != nil {
			frow = faults[e]
		}
		up := upSet(len(c.Nodes), frow)
		winSec := float64(pw.end-pw.start) / 1e9
		admitted, acct := adm.admit(pw.rate, c.overloadCapacity(up), winSec)
		if admitted != pw.rate {
			pw.rates = partitionOver(c, part, admitted, up)
		}
		pw.saturated = acct.saturated
		pw.shedded = acct.shedded
		pw.backlogReq = acct.backlogReq
	}
}

// account packages a planned window's recorded admission outcome.
func (pw epochWindow) account() overloadAccount {
	return overloadAccount{saturated: pw.saturated, shedded: pw.shedded, backlogReq: pw.backlogReq}
}
