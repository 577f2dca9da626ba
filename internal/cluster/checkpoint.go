package cluster

import (
	"errors"
	"fmt"

	"repro/internal/runner"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/snapbuf"
)

// liveSnapshotVersion versions the fleet checkpoint document. Same
// policy as the instance format: bumped on any change to the encoding
// or to the state it captures, no cross-version migration. Version 2
// added the overload admission policy to the identity block; version 3
// changed how an unforced epoch after a forced one replayed its
// admission. Version 4 stores the fleet's state instead of a history to
// replay, and ends in a CRC-32C. Version 5 carries instance state
// without the engine's per-event priority word. Version 6 drops what
// the rest of the document already holds: the class intervals and
// current rate and fault, the cursor position and the telemetry fields
// that copy the epoch's window.
const liveSnapshotVersion = 6

// Byte sizes the decoder checks counts against before it allocates:
// the smallest encoding of one epoch record (decision, window, account
// and fleet telemetry without per-node samples), node sample, class
// (representative and one member, down) and interval result.
const (
	epochBytes   = 8 + 1 + 3*8 + 1 + 2*8 + telemetryBytes
	nodeTelBytes = 6*8 + 2
	classBytes   = 3 * 8
	resultBytes  = 1 + 3
)

// telemetryBytes is the encoded size of the FleetTelemetry fields
// windowTelemetry does not derive, without per-node samples.
const telemetryBytes = 9*8 + 1

// Snapshot checkpoints the fleet's state. The document holds:
//
//   - an identity block naming the scenario shape (RestoreLive rejects
//     a mismatched config);
//   - per completed epoch, the decision (target, forced), the realized
//     window with its overload account, and the fleet telemetry;
//   - the admission backlog;
//   - each class in its current order: representative, members, per
//     completed epoch its measurement, and the warm instance state
//     (none while down).
//
// A CRC-32C trailer closes it. Nothing is written twice: the
// telemetry leaves out what the window record holds, a class's
// timeline is the windows, its measured rates and the plan's faults,
// and its cursor's position follows from its measurements. Interval
// results leave out their Config, which RestoreLive rebuilds from the
// node config, and the controller is not encoded: it is rebuilt from
// the telemetry.
//
// The per-epoch records only ever grow, so their encodings are kept
// between checkpoints (encodedHistory) and each checkpoint encodes just
// the epochs stepped since the previous one; the rest is copied.
func (l *Live) Snapshot() ([]byte, error) {
	e := snapbuf.Encoder{Buf: make([]byte, 0, l.snapLen+l.snapLen/8)}
	e.U8(liveSnapshotVersion)
	l.appendIdentity(&e)

	e.I64(int64(l.epoch))
	e.Buf = append(e.Buf, l.hist.extend(l.epoch, l.appendEpoch)...)
	e.Bool(l.adm != nil)
	if l.adm != nil {
		e.F64(l.adm.backlog)
	}

	e.I64(int64(len(l.classes)))
	for _, cl := range l.classes {
		e.I64(int64(cl.rep))
		e.I64(int64(len(cl.members)))
		for _, m := range cl.members {
			e.I64(int64(m))
		}
		e.Buf = append(e.Buf, cl.hist.extend(len(cl.results), cl.appendEpoch)...)
		if err := cl.ins.AppendState(&e); err != nil {
			return nil, fmt.Errorf("cluster: snapshot: node %d: %w", cl.rep, err)
		}
	}
	e.Seal()
	l.snapLen = len(e.Buf)
	return e.Buf, nil
}

// encodedHistory caches the checkpoint encoding of an append-only
// record list: buf holds records [0, n).
type encodedHistory struct {
	n   int
	buf []byte
}

// extend encodes records [h.n, n) onto the cache with appendRecord and
// returns the encoding of all n.
func (h *encodedHistory) extend(n int, appendRecord func(e *snapbuf.Encoder, i int)) []byte {
	e := snapbuf.Encoder{Buf: h.buf}
	for ; h.n < n; h.n++ {
		appendRecord(&e, h.n)
	}
	h.buf = e.Buf
	return h.buf
}

// appendEpoch appends epoch i's record: the decision, the realized
// window with its overload account, and the fleet telemetry.
func (l *Live) appendEpoch(e *snapbuf.Encoder, i int) {
	e.I64(int64(l.targets[i]))
	e.Bool(l.forced[i])
	w := &l.realized[i]
	e.I64(int64(w.start))
	e.I64(int64(w.end))
	e.F64(w.rate)
	e.Bool(w.saturated)
	e.F64(w.shedded)
	e.F64(w.backlogReq)
	appendTelemetry(e, &l.tels[i])
}

// appendEpoch appends the class's measurement of epoch i.
func (cl *liveClass) appendEpoch(e *snapbuf.Encoder, i int) {
	server.AppendIntervalResult(e, &cl.results[i])
}

// identity is the scenario shape a checkpoint records and RestoreLive
// compares against the config it is given.
type identity struct {
	nodes, plan          int64
	total, epoch         int64
	sched, disp          string
	ctrl                 string
	park, compact        bool
	replicas             int64
	overload             string
	maxUtil, maxBacklogS float64
}

// identity returns the fleet's scenario shape.
func (l *Live) identity() identity {
	return identity{
		nodes: int64(len(l.c.Nodes)), plan: int64(len(l.plan)),
		total: int64(l.c.total), epoch: int64(l.c.Epoch),
		sched: l.c.Schedule.Name(), disp: l.c.Dispatch,
		ctrl: l.c.Controller.Name, park: l.c.ParkDrained,
		compact: l.c.CompactNodes, replicas: int64(l.c.Replicas),
		overload: l.c.Overload.Policy, maxUtil: l.c.Overload.MaxUtil,
		maxBacklogS: l.c.Overload.MaxBacklogSec,
	}
}

func (l *Live) appendIdentity(e *snapbuf.Encoder) {
	id := l.identity()
	e.I64(id.nodes)
	e.I64(id.plan)
	e.I64(id.total)
	e.I64(id.epoch)
	e.Str(id.sched)
	e.Str(id.disp)
	e.Str(id.ctrl)
	e.Bool(id.park)
	e.Bool(id.compact)
	e.I64(id.replicas)
	e.Str(id.overload)
	e.F64(id.maxUtil)
	e.F64(id.maxBacklogS)
}

func decodeIdentity(d *snapbuf.Decoder) identity {
	return identity{
		nodes: d.I64(), plan: d.I64(), total: d.I64(), epoch: d.I64(),
		sched: d.Str(), disp: d.Str(), ctrl: d.Str(),
		park: d.Bool(), compact: d.Bool(), replicas: d.I64(),
		overload: d.Str(), maxUtil: d.F64(), maxBacklogS: d.F64(),
	}
}

// appendTelemetry appends the fields of t that windowTelemetry does
// not derive.
func appendTelemetry(e *snapbuf.Encoder, t *FleetTelemetry) {
	e.F64(t.CompletedQPS)
	e.I64(int64(t.ActiveNodes))
	e.I64(int64(t.ParkedNodes))
	e.I64(int64(t.DownNodes))
	e.F64(t.Utilization)
	e.F64(t.QueueDepth)
	e.I64(int64(t.LiveQueue))
	e.F64(t.WorstP99US)
	e.F64(t.FleetPowerW)
	e.Bool(t.Nodes != nil)
	if t.Nodes == nil {
		return
	}
	e.I64(int64(len(t.Nodes)))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		e.I64(int64(n.Node))
		e.F64(n.RateQPS)
		e.F64(n.Utilization)
		e.F64(n.QueueDepth)
		e.I64(int64(n.LiveQueue))
		e.F64(n.P99US)
		e.Bool(n.Parked)
		e.Bool(n.Down)
	}
}

// decodeTelemetry reads what appendTelemetry wrote into t, whose
// window fields windowTelemetry has filled.
func decodeTelemetry(d *snapbuf.Decoder, t *FleetTelemetry) {
	t.CompletedQPS = d.F64()
	t.ActiveNodes = int(d.I64())
	t.ParkedNodes = int(d.I64())
	t.DownNodes = int(d.I64())
	t.Utilization = d.F64()
	t.QueueDepth = d.F64()
	t.LiveQueue = int(d.I64())
	t.WorstP99US = d.F64()
	t.FleetPowerW = d.F64()
	if !d.Bool() {
		return
	}
	t.Nodes = make([]NodeTelemetry, d.Count(nodeTelBytes))
	for i := range t.Nodes {
		t.Nodes[i] = NodeTelemetry{
			Node:        int(d.I64()),
			RateQPS:     d.F64(),
			Utilization: d.F64(),
			QueueDepth:  d.F64(),
			LiveQueue:   int(d.I64()),
			P99US:       d.F64(),
			Parked:      d.Bool(),
			Down:        d.Bool(),
		}
	}
}

// RestoreLive rebuilds a fleet checkpoint taken by Live.Snapshot. The
// caller supplies the same ScenarioConfig the checkpoint was taken
// under (the daemon holds the scenario file; the payload carries only
// an identity block to reject mismatches, and each realized window is
// checked against the plan). The checksum is verified before anything
// is decoded. Every class's node is rebuilt from its config and its
// warm state decoded over it, and the controller is rebuilt from the
// recorded telemetry: nothing is re-simulated, so a restore costs
// O(state), not O(history).
func RestoreLive(cfg ScenarioConfig, data []byte) (*Live, error) {
	d, err := snapbuf.Open(data)
	if err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}
	if v := d.U8(); d.Err() == nil && v != liveSnapshotVersion {
		return nil, fmt.Errorf("cluster: restore: unknown fleet snapshot version %d (want %d)", v, liveSnapshotVersion)
	}
	l, err := newLive(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}
	if got, want := l.identity(), decodeIdentity(d); d.Err() == nil && got != want {
		return nil, fmt.Errorf("cluster: restore: scenario config does not match the checkpoint (have %+v, checkpoint %+v)", got, want)
	}
	if err := l.decodeEpochs(d); err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}
	if err := l.decodeClasses(d); err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}
	if err := d.Close(); err != nil {
		return nil, fmt.Errorf("cluster: restore: %w", err)
	}
	l.ctrl = l.rebuildController()
	return l, nil
}

// decodeEpochs reads the per-epoch records and the admission backlog.
// A realized window must be the plan's (the phase is taken from the
// plan), so a checkpoint of another schedule under the same identity
// is rejected.
func (l *Live) decodeEpochs(d *snapbuf.Decoder) error {
	n := d.Count(epochBytes)
	if d.Err() == nil && n > len(l.plan) {
		return fmt.Errorf("checkpoint has %d epochs, plan has %d", n, len(l.plan))
	}
	l.targets = make([]int, n)
	l.forced = make([]bool, n)
	l.realized = make([]epochWindow, n)
	l.tels = make([]FleetTelemetry, n)
	for e := 0; e < n && d.Err() == nil; e++ {
		l.targets[e] = int(d.I64())
		l.forced[e] = d.Bool()
		w := &l.realized[e]
		*w = l.plan[e]
		start, end, rate := sim.Time(d.I64()), sim.Time(d.I64()), d.F64()
		w.saturated, w.shedded, w.backlogReq = d.Bool(), d.F64(), d.F64()
		t := &l.tels[e]
		*t = windowTelemetry(e, *w, len(l.c.Nodes))
		decodeTelemetry(d, t)
		if d.Err() != nil {
			break
		}
		if start != w.start || end != w.end || rate != w.rate {
			return fmt.Errorf("epoch %d window differs from the plan's (scenario config does not match the checkpoint)", e)
		}
		if (t.Nodes == nil) != l.c.CompactNodes || (t.Nodes != nil && len(t.Nodes) != len(l.c.Nodes)) {
			return fmt.Errorf("epoch %d telemetry does not cover the fleet", e)
		}
	}
	if has := d.Bool(); d.Err() == nil && has != (l.adm != nil) {
		return errors.New("admission state does not match the scenario config")
	}
	if l.adm != nil {
		l.adm.backlog = d.F64()
	}
	l.epoch = n
	return d.Err()
}

// decodeClasses reads the classes in their recorded order. The members
// must partition the fleet, each class listing its members in fleet
// order, representative first, and descending from one initial group:
// that group's first member's config is the node the class runs, as
// it was when the class split off. Interval results get their Config
// back from that node: the config of the instance that measured them,
// which a restart re-seeds.
func (l *Live) decodeClasses(d *snapbuf.Decoder) error {
	n := len(l.c.Nodes)
	root := make([]int, n)
	for _, g := range initialGroups(l.c) {
		for _, m := range g {
			root[m] = g[0]
		}
	}
	count := d.Count(classBytes)
	if d.Err() == nil && (count == 0 || count > n) {
		return fmt.Errorf("implausible class count %d for a %d-node fleet", count, n)
	}
	seen := make([]bool, n)
	covered := 0
	l.classes = make([]*liveClass, count)
	for ci := range l.classes {
		rep := d.I64()
		members := make([]int, d.Count(8))
		for i := range members {
			members[i] = int(d.I64())
		}
		if err := d.Err(); err != nil {
			return err
		}
		if len(members) == 0 || rep != int64(members[0]) {
			return fmt.Errorf("class %d: corrupt member list", ci)
		}
		for i, m := range members {
			if m < 0 || m >= n || seen[m] || (i > 0 && m <= members[i-1]) || root[m] != root[rep] {
				return fmt.Errorf("class %d: corrupt member %d", ci, m)
			}
			seen[m] = true
		}
		covered += len(members)
		cl := &liveClass{rep: int(rep), members: members, node: l.c.Nodes[root[rep]]}
		if d.Remaining() < l.epoch*resultBytes {
			return errors.New("truncated class timeline")
		}
		cl.results = make([]server.IntervalResult, l.epoch)
		restarts := 0
		resCfg := server.ResultConfig(cl.node)
		for i := range cl.results {
			r := &cl.results[i]
			*r = server.DecodeIntervalResult(d, resCfg.Cores)
			if r.Restarted {
				restarts++
				resCfg = server.ResultConfig(runner.InstanceConfig(cl.node, restarts))
			}
			server.SetResultConfig(r, &resCfg)
		}
		var err error
		if cl.ins, err = runner.DecodeCursor(d, cl.node, l.c.ParkDrained, cl.results); err != nil {
			return fmt.Errorf("class %d: %w", ci, err)
		}
		l.classes[ci] = cl
	}
	if d.Err() == nil && covered != n {
		return fmt.Errorf("classes cover %d of %d nodes", covered, n)
	}
	return d.Err()
}
