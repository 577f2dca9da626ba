// Package scenariofile defines the declarative scenario-file format: a
// JSON document describing one time-varying fleet simulation end to end
// — the load schedule, the fleet, the engine and elasticity knobs, and
// the fault-injection spec. The package is purely syntactic: it decodes
// strictly (unknown fields are errors, so a typo'd knob can never
// silently become a default) and round-trips losslessly, while every
// semantic rule — rate bounds, fault windows, controller names — stays
// with cluster.ScenarioConfig.Normalize, so a file rejected at run time
// is rejected with exactly the error Validate would have given.
//
// Durations are float64 milliseconds (suffix _ms) on the schedule
// clock; the zero value of every optional field means the same default
// the programmatic API applies.
package scenariofile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// PhaseSpec is one explicit schedule phase: a linear rate segment from
// StartQPS to EndQPS over DurationMS.
type PhaseSpec struct {
	Name       string  `json:"name,omitempty"`
	DurationMS float64 `json:"duration_ms"`
	StartQPS   float64 `json:"start_qps"`
	EndQPS     float64 `json:"end_qps"`
}

// ScheduleSpec selects the load timeline: either a named shape (Shape,
// built around BaseQPS over TotalMS) or an explicit phase list. Setting
// both is rejected at load time — the file would be ambiguous.
type ScheduleSpec struct {
	// Shape names a built-in scenario shape (constant, diurnal, spike,
	// ramp); BaseQPS and TotalMS parameterize it.
	Shape   string  `json:"shape,omitempty"`
	BaseQPS float64 `json:"base_qps,omitempty"`
	TotalMS float64 `json:"total_ms,omitempty"`
	// Phases is the explicit piecewise timeline.
	Phases []PhaseSpec `json:"phases,omitempty"`
}

// FleetSpec describes the fleet: size, platform and service by name,
// seeding, and the cluster dispatch policy.
type FleetSpec struct {
	// Nodes is the fleet size (default 1).
	Nodes int `json:"nodes,omitempty"`
	// Platform names a platform configuration (default Baseline);
	// Service a workload profile (default memcached).
	Platform string `json:"platform,omitempty"`
	Service  string `json:"service,omitempty"`
	// WarmupMS precedes each node's measured timeline (default 50ms).
	WarmupMS float64 `json:"warmup_ms,omitempty"`
	// Seed fixes all randomness (default 1); SharedSeeds gives every
	// node the same seed so identical timelines collapse to one class.
	Seed        uint64 `json:"seed,omitempty"`
	SharedSeeds bool   `json:"shared_seeds,omitempty"`
	// Dispatch is the cluster partitioning policy (default spread);
	// TargetUtil the consolidate fill level (default 0.6).
	Dispatch   string  `json:"dispatch,omitempty"`
	TargetUtil float64 `json:"target_util,omitempty"`
	// ParkDrained parks nodes the policy drains.
	ParkDrained bool `json:"park_drained,omitempty"`
}

// ExecutionSpec groups the replica and compact-aggregation knobs.
type ExecutionSpec struct {
	Replicas     int  `json:"replicas,omitempty"`
	CompactNodes bool `json:"compact_nodes,omitempty"`
}

// ControllerSpec selects and tunes the fleet controller by name.
type ControllerSpec struct {
	Name       string  `json:"name,omitempty"`
	UpUtil     float64 `json:"up_util,omitempty"`
	DownUtil   float64 `json:"down_util,omitempty"`
	TargetUtil float64 `json:"target_util,omitempty"`
	Cooldown   int     `json:"cooldown,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
}

// ElasticitySpec groups the autoscaling knobs.
type ElasticitySpec struct {
	Controller ControllerSpec `json:"controller,omitempty"`
}

// NodeFaultSpec is one explicit per-node fault window.
type NodeFaultSpec struct {
	Node    int     `json:"node"`
	Kind    string  `json:"kind"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Factor  float64 `json:"factor,omitempty"`
}

// CorrelatedSpec is the cluster-level correlated fault process.
type CorrelatedSpec struct {
	Kind        string  `json:"kind,omitempty"`
	GroupSize   int     `json:"group_size,omitempty"`
	Probability float64 `json:"probability,omitempty"`
	DurationMS  float64 `json:"duration_ms,omitempty"`
	Factor      float64 `json:"factor,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
}

// FaultsSpec is the fault-injection description; its zero value is a
// healthy fleet.
type FaultsSpec struct {
	Nodes            []NodeFaultSpec `json:"nodes,omitempty"`
	Correlated       CorrelatedSpec  `json:"correlated,omitempty"`
	RestartLatencyMS float64         `json:"restart_latency_ms,omitempty"`
	RestartPowerW    float64         `json:"restart_power_w,omitempty"`
	RestartFree      bool            `json:"restart_free,omitempty"`
}

// OverloadSpec is the admission-control description: what happens when
// the offered rate exceeds the active fleet's capacity. Its zero value
// disables admission control.
type OverloadSpec struct {
	// Policy picks an overload policy: shed, degrade or queue.
	Policy string `json:"policy,omitempty"`
	// MaxUtil is the per-node utilization the admission capacity is
	// computed at (default 0.85).
	MaxUtil float64 `json:"max_util,omitempty"`
	// MaxBacklogSec bounds the queue policy's backlog in seconds of
	// full-fleet capacity (default 1.0).
	MaxBacklogSec float64 `json:"max_backlog_sec,omitempty"`
}

// File is the root of a scenario file.
type File struct {
	// Name labels the scenario in reports and golden fingerprints.
	Name     string       `json:"name,omitempty"`
	Schedule ScheduleSpec `json:"schedule"`
	Fleet    FleetSpec    `json:"fleet"`
	// EpochMS is the re-dispatch interval (default: one epoch spanning
	// the whole schedule).
	EpochMS    float64        `json:"epoch_ms,omitempty"`
	Execution  ExecutionSpec  `json:"execution,omitempty"`
	Elasticity ElasticitySpec `json:"elasticity,omitempty"`
	Faults     FaultsSpec     `json:"faults,omitempty"`
	Overload   OverloadSpec   `json:"overload,omitempty"`
}

// decodeError dresses a raw json.Decoder error with the information a
// user editing a scenario file actually needs: the byte offset where
// decoding failed (json's syntax and type errors carry one but print
// without it) and the scenario's name when the document got far enough
// to have one.
func decodeError(err error, name string) error {
	where := ""
	var syn *json.SyntaxError
	var typ *json.UnmarshalTypeError
	switch {
	case errors.As(err, &syn):
		where = fmt.Sprintf(" at byte %d", syn.Offset)
	case errors.As(err, &typ):
		where = fmt.Sprintf(" at byte %d (field %q)", typ.Offset, typ.Field)
	}
	if name != "" {
		return fmt.Errorf("scenariofile: scenario %q%s: %w", name, where, err)
	}
	return fmt.Errorf("scenariofile%s: %w", where, err)
}

// parseDoc decodes one raw scenario document from dec, canonicalizing
// explicit empty lists to nil: omitempty drops them on encode, so
// leaving them non-nil would break the round-trip property (an accepted
// document must re-parse to the same value). Errors are dec's own —
// io.EOF at a clean document boundary, json errors otherwise.
func parseDoc(dec *json.Decoder) (File, error) {
	var f File
	if err := dec.Decode(&f); err != nil {
		return File{}, err
	}
	if len(f.Schedule.Phases) == 0 {
		f.Schedule.Phases = nil
	}
	if len(f.Faults.Nodes) == 0 {
		f.Faults.Nodes = nil
	}
	return f, nil
}

// checkSchedule rejects the ambiguous schedule shapes: both a named
// shape and explicit phases, or neither.
func checkSchedule(f File) error {
	if f.Schedule.Shape != "" && len(f.Schedule.Phases) > 0 {
		return fmt.Errorf("scenariofile: scenario %q: schedule sets both a named shape and explicit phases", f.Name)
	}
	if f.Schedule.Shape == "" && len(f.Schedule.Phases) == 0 {
		return fmt.Errorf("scenariofile: scenario %q: schedule needs a named shape or explicit phases", f.Name)
	}
	return nil
}

// Parse decodes a scenario file strictly: unknown fields, malformed
// JSON and trailing content are errors, as is a schedule that sets both
// a named shape and explicit phases (or neither). Decode errors carry
// the byte offset of the failure.
func Parse(data []byte) (File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	f, err := parseDoc(dec)
	if errors.Is(err, io.EOF) {
		return File{}, fmt.Errorf("scenariofile: empty scenario document")
	}
	if err != nil {
		return File{}, decodeError(err, "")
	}
	if err := checkSchedule(f); err != nil {
		return File{}, err
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return File{}, fmt.Errorf("scenariofile: trailing content after the scenario document at byte %d", dec.InputOffset())
	}
	return f, nil
}

// ParseAll decodes a multi-document scenario stream: one or more
// scenario documents concatenated in one file (JSON's decoder delimits
// them naturally). Each document is decoded as strictly as Parse
// decodes a single one, and duplicate scenario names are rejected —
// last-write-wins would make "which steady did I run?" unanswerable.
func ParseAll(data []byte) ([]File, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var files []File
	seen := map[string]int{}
	for i := 0; ; i++ {
		f, err := parseDoc(dec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, decodeError(fmt.Errorf("document %d: %w", i, err), "")
		}
		if err := checkSchedule(f); err != nil {
			return nil, err
		}
		if prev, dup := seen[f.Name]; dup {
			return nil, fmt.Errorf("scenariofile: duplicate scenario name %q (documents %d and %d)", f.Name, prev, i)
		}
		seen[f.Name] = i
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("scenariofile: no scenario documents in the file")
	}
	return files, nil
}

// Load reads and parses the scenario file at path.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, fmt.Errorf("scenariofile: %w", err)
	}
	f, err := Parse(data)
	if err != nil {
		return File{}, fmt.Errorf("%w (%s)", err, path)
	}
	return f, nil
}

// LoadAll reads and parses a (possibly multi-document) scenario file.
func LoadAll(path string) ([]File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenariofile: %w", err)
	}
	fs, err := ParseAll(data)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	return fs, nil
}
