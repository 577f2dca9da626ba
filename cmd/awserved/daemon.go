package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	agilewatts "repro"
)

// daemonOptions groups the crash-safety and back-pressure knobs main
// wires from flags; the zero value means no checkpointing and an
// unbounded-in-name-only what-if pool (callers should use
// defaultDaemonOptions).
type daemonOptions struct {
	// ckptDir enables self-checkpointing: every cadence hit writes the
	// fleet snapshot to ckpt-NNNNNN.awck in this directory (temp file +
	// atomic rename), and startup recovers from the newest valid one.
	ckptDir string
	// ckptEveryEpochs and ckptEvery are the checkpoint cadences: a
	// checkpoint after every N completed epochs, or once T wall time has
	// passed since the last one, whichever fires first. Zero disables
	// that cadence.
	ckptEveryEpochs int
	ckptEvery       time.Duration
	// whatifMax caps concurrent what-if forks (excess gets 429);
	// whatifTimeout bounds one fork's stepping time (expiry gets 503).
	whatifMax     int
	whatifTimeout time.Duration
}

// defaultDaemonOptions is the no-checkpointing default with the
// production what-if bounds.
func defaultDaemonOptions() daemonOptions {
	return daemonOptions{whatifMax: 4, whatifTimeout: 30 * time.Second}
}

// daemon owns one live fleet. A LiveScenario is single-goroutine, so
// every touch of d.live goes through d.mu: the scaled-time clock loop,
// the admin handlers and the query handlers all serialize on it. What-if
// queries fork under the lock and then step the fork outside it — a
// fork shares nothing mutable with the live fleet, so an expensive
// hypothetical never stalls the simulation it is asking about.
type daemon struct {
	name  string
	run   agilewatts.ScenarioRun
	scale float64
	opts  daemonOptions

	// whatif is the fork-pool semaphore: a slot per in-flight what-if.
	whatif chan struct{}

	mu     sync.Mutex
	live   *agilewatts.LiveScenario
	paused bool
	// closing tells follow streams the process is shutting down.
	closing bool
	// epochCh broadcasts fleet progress: closed and replaced under mu
	// whenever the live fleet moves, so follow streams wake exactly when
	// there is something new instead of polling.
	epochCh chan struct{}
	// lastCkptEpoch / lastCkptWall drive the checkpoint cadence; -1
	// means no checkpoint exists yet for this timeline.
	lastCkptEpoch int
	lastCkptWall  time.Time
}

func newDaemon(name string, run agilewatts.ScenarioRun, scale float64, opts daemonOptions) (*daemon, error) {
	live, err := agilewatts.NewLiveScenario(run)
	if err != nil {
		return nil, err
	}
	d := &daemon{
		name: name, run: run, scale: scale, opts: opts,
		whatif:  make(chan struct{}, opts.whatifMax),
		live:    live,
		epochCh: make(chan struct{}),

		lastCkptEpoch: -1,
		lastCkptWall:  time.Now(),
	}
	if opts.ckptDir != "" {
		if err := d.recoverFromCheckpoints(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// recoverFromCheckpoints restores the fleet from the newest valid
// checkpoint in the checkpoint directory, newest first. A corrupt or
// mismatched checkpoint is skipped with a logged warning — a crash mid-
// rename or a scenario-file edit must never brick the daemon — and when
// none restores the fleet starts from epoch 0.
func (d *daemon) recoverFromCheckpoints() error {
	if err := os.MkdirAll(d.opts.ckptDir, 0o755); err != nil {
		return fmt.Errorf("checkpoint dir: %w", err)
	}
	paths, err := filepath.Glob(filepath.Join(d.opts.ckptDir, "ckpt-*.awck"))
	if err != nil {
		return err
	}
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	for _, path := range paths {
		blob, err := os.ReadFile(path)
		if err == nil {
			var live *agilewatts.LiveScenario
			if live, err = agilewatts.RestoreLiveScenario(d.run, blob); err == nil {
				d.live = live
				d.lastCkptEpoch = live.Epoch()
				fmt.Fprintf(os.Stderr, "awserved: recovered epoch %d from %s\n", live.Epoch(), path)
				return nil
			}
		}
		fmt.Fprintf(os.Stderr, "awserved: skipping checkpoint %s: %v\n", path, err)
	}
	return nil
}

// wakeFollowersLocked broadcasts fleet progress to every follow stream:
// closing the channel releases all current waiters, the fresh channel
// collects the next round. Callers hold d.mu.
func (d *daemon) wakeFollowersLocked() {
	close(d.epochCh)
	d.epochCh = make(chan struct{})
}

// afterStepLocked runs the per-step bookkeeping: wake the follow
// streams and checkpoint if the cadence says so. Callers hold d.mu.
func (d *daemon) afterStepLocked() {
	d.wakeFollowersLocked()
	if d.opts.ckptDir == "" {
		return
	}
	byEpochs := d.opts.ckptEveryEpochs > 0 &&
		d.live.Epoch()-d.lastCkptEpoch >= d.opts.ckptEveryEpochs
	byWall := d.opts.ckptEvery > 0 && time.Since(d.lastCkptWall) >= d.opts.ckptEvery
	if byEpochs || byWall {
		d.checkpointLocked()
	}
}

// checkpointKeep bounds the checkpoint directory: older files beyond
// the newest few are pruned after every successful write.
const checkpointKeep = 3

// checkpointLocked writes the fleet snapshot to the checkpoint
// directory crash-safely: the bytes land in a temp file first and the
// final ckpt-NNNNNN.awck name appears only through an atomic rename, so
// a crash mid-write can never leave a half-checkpoint under a name
// recovery would trust. Failures are logged, not fatal — a full disk
// should degrade durability, not kill the simulation. Callers hold
// d.mu.
func (d *daemon) checkpointLocked() {
	blob, err := d.live.Snapshot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "awserved: checkpoint:", err)
		return
	}
	epoch := d.live.Epoch()
	final := filepath.Join(d.opts.ckptDir, fmt.Sprintf("ckpt-%06d.awck", epoch))
	tmp, err := os.CreateTemp(d.opts.ckptDir, ".ckpt-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "awserved: checkpoint:", err)
		return
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), final)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		fmt.Fprintln(os.Stderr, "awserved: checkpoint:", werr)
		return
	}
	d.lastCkptEpoch = epoch
	d.lastCkptWall = time.Now()
	if paths, err := filepath.Glob(filepath.Join(d.opts.ckptDir, "ckpt-*.awck")); err == nil && len(paths) > checkpointKeep {
		sort.Strings(paths)
		for _, old := range paths[:len(paths)-checkpointKeep] {
			os.Remove(old)
		}
	}
}

// shutdown is the graceful-exit path: a final checkpoint if the fleet
// moved since the last one, and the closing broadcast that unblocks
// every follow stream so the HTTP servers can drain.
func (d *daemon) shutdown() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closing = true
	d.wakeFollowersLocked()
	if d.opts.ckptDir != "" && d.live.Epoch() != d.lastCkptEpoch {
		d.checkpointLocked()
	}
}

// runClock advances the fleet in scaled time: each epoch's simulated
// window costs window/scale of wall time. scale <= 0 means the fleet
// only moves when the admin API steps it.
func (d *daemon) runClock(stop <-chan struct{}) {
	if d.scale <= 0 {
		return
	}
	for {
		d.mu.Lock()
		if d.live.Done() {
			d.mu.Unlock()
			return
		}
		if d.paused {
			d.mu.Unlock()
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		before := d.live.Clock()
		_, err := d.live.Step()
		after := d.live.Clock()
		if err == nil {
			d.afterStepLocked()
		}
		d.mu.Unlock()
		if err != nil {
			return
		}
		wall := time.Duration(float64(after-before) / d.scale)
		select {
		case <-stop:
			return
		case <-time.After(wall):
		}
	}
}

// queryMux serves the read-mostly surface: status, the per-epoch
// telemetry stream, the completed-epochs result, and what-if forks.
func (d *daemon) queryMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", d.handleStatus)
	mux.HandleFunc("/v1/telemetry", d.handleTelemetry)
	mux.HandleFunc("/v1/result", d.handleResult)
	mux.HandleFunc("/v1/whatif", d.handleWhatIf)
	return mux
}

// adminMux serves the mutating surface: manual stepping, the pause
// switch, and checkpoint download/upload.
func (d *daemon) adminMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", d.handleStatus)
	mux.HandleFunc("/v1/step", d.handleStep)
	mux.HandleFunc("/v1/pause", d.handlePause(true))
	mux.HandleFunc("/v1/resume", d.handlePause(false))
	mux.HandleFunc("/v1/snapshot", d.handleSnapshot)
	mux.HandleFunc("/v1/restore", d.handleRestore)
	return mux
}

func replyJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func replyError(w http.ResponseWriter, code int, err error) {
	replyJSON(w, code, map[string]string{"error": err.Error()})
}

// Request body limits: a what-if is a small JSON document, a restore a
// fleet checkpoint.
const (
	maxWhatIfBody     = 1 << 20
	maxCheckpointBody = 64 << 20
)

// bodyStatus is the reply status for an error reading a request body
// through http.MaxBytesReader: 413 when the body is over the limit,
// otherwise fallback. Reading past the limit fails outright, so an
// oversized body is never cut short and then parsed.
func bodyStatus(err error, fallback int) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return fallback
}

func wantMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		replyError(w, http.StatusMethodNotAllowed, fmt.Errorf("%s needs %s", r.URL.Path, method))
		return false
	}
	return true
}

type statusReply struct {
	Scenario  string  `json:"scenario"`
	Epoch     int     `json:"epoch"`
	Epochs    int     `json:"epochs"`
	Done      bool    `json:"done"`
	Paused    bool    `json:"paused"`
	ClockMS   float64 `json:"clock_ms"`
	TimeScale float64 `json:"time_scale"`
}

func (d *daemon) status() statusReply {
	return statusReply{
		Scenario:  d.name,
		Epoch:     d.live.Epoch(),
		Epochs:    d.live.Epochs(),
		Done:      d.live.Done(),
		Paused:    d.paused,
		ClockMS:   float64(d.live.Clock()) / 1e6,
		TimeScale: d.scale,
	}
}

func (d *daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	d.mu.Lock()
	st := d.status()
	d.mu.Unlock()
	replyJSON(w, http.StatusOK, st)
}

// handleTelemetry streams one JSON document per completed epoch
// (NDJSON), starting at ?from=N (default 0). With ?follow=1 the stream
// stays open and emits each further epoch as the fleet completes it,
// until the scenario ends or the client goes away.
func (d *daemon) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	from := 0
	if s := r.URL.Query().Get("from"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			replyError(w, http.StatusBadRequest, fmt.Errorf("bad from=%q: want a non-negative epoch index", s))
			return
		}
		from = v
	}
	follow := r.URL.Query().Get("follow") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for {
		d.mu.Lock()
		hist := d.live.History()
		done := d.live.Done()
		closing := d.closing
		wake := d.epochCh
		d.mu.Unlock()
		for ; from < len(hist); from++ {
			if err := enc.Encode(hist[from]); err != nil {
				return
			}
		}
		if flusher != nil {
			flusher.Flush()
		}
		if !follow || done || closing {
			return
		}
		// Block until the fleet actually moves (wake is closed under mu on
		// every step, restore and shutdown) or the client goes away — no
		// polling, and a dropped client releases its handler immediately.
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

func (d *daemon) handleResult(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	d.mu.Lock()
	res, err := d.live.Result()
	d.mu.Unlock()
	if err != nil {
		replyError(w, http.StatusConflict, err)
		return
	}
	replyJSON(w, http.StatusOK, res)
}

type whatIfRequest struct {
	// TargetNodes is forced as the active-node target for the next
	// Epochs epochs of the fork — "park all but N nodes".
	TargetNodes int `json:"target_nodes"`
	Epochs      int `json:"epochs"`
	// RunToEnd keeps stepping the fork (controller- or plan-driven
	// again) after the forced window, to the end of the schedule.
	RunToEnd bool `json:"run_to_end"`
}

type whatIfSummary struct {
	FleetEnergyJ   float64 `json:"fleet_energy_j"`
	AvgFleetPowerW float64 `json:"avg_fleet_power_w"`
	QPSPerWatt     float64 `json:"qps_per_watt"`
	WorstP99US     float64 `json:"worst_p99_us"`
	Unparks        int     `json:"unparks"`
	Restarts       int     `json:"restarts"`
}

type whatIfReply struct {
	ForkedAt    int                         `json:"forked_at"`
	TargetNodes int                         `json:"target_nodes"`
	Forced      int                         `json:"forced_epochs"`
	Epochs      []agilewatts.FleetTelemetry `json:"epochs"`
	// Summary aggregates the fork's whole realized timeline (shared
	// prefix + hypothetical future); present once the fork has any
	// completed epochs.
	Summary *whatIfSummary `json:"summary,omitempty"`
}

// handleWhatIf answers a hypothetical against a fork of the live fleet:
// the fork clones every node's warm state under the lock, in O(state)
// whatever the history length, the forced target overrides its
// controller for the requested window, and the live fleet never
// observes any of it.
func (d *daemon) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) {
		return
	}
	var req whatIfRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWhatIfBody)).Decode(&req); err != nil {
		replyError(w, bodyStatus(err, http.StatusBadRequest), fmt.Errorf("bad what-if request: %w", err))
		return
	}
	if req.Epochs < 1 {
		replyError(w, http.StatusBadRequest, fmt.Errorf("bad what-if request: epochs must be >= 1, got %d", req.Epochs))
		return
	}
	if req.TargetNodes < 0 {
		replyError(w, http.StatusBadRequest, fmt.Errorf("bad what-if request: target_nodes must be >= 0, got %d", req.TargetNodes))
		return
	}
	// Bounded fork pool: a what-if steps a whole fleet fork, so an
	// unbounded burst of them is a CPU-exhaustion hole. Full pool says
	// try-again-later rather than queueing — the live fleet keeps moving
	// either way.
	select {
	case d.whatif <- struct{}{}:
		defer func() { <-d.whatif }()
	default:
		replyError(w, http.StatusTooManyRequests,
			fmt.Errorf("what-if pool exhausted (%d in flight); retry later", cap(d.whatif)))
		return
	}
	deadline := time.Now().Add(d.opts.whatifTimeout)
	overdue := func() bool {
		return time.Now().After(deadline) || r.Context().Err() != nil
	}
	d.mu.Lock()
	fork := d.live.Fork()
	d.mu.Unlock()

	reply := whatIfReply{ForkedAt: fork.Epoch(), TargetNodes: req.TargetNodes}
	for i := 0; i < req.Epochs && !fork.Done(); i++ {
		if overdue() {
			replyError(w, http.StatusServiceUnavailable,
				fmt.Errorf("what-if abandoned after %v (%d epochs stepped)", d.opts.whatifTimeout, len(reply.Epochs)))
			return
		}
		tel, err := fork.StepTarget(req.TargetNodes)
		if err != nil {
			replyError(w, http.StatusInternalServerError, err)
			return
		}
		reply.Forced++
		reply.Epochs = append(reply.Epochs, tel)
	}
	for req.RunToEnd && !fork.Done() {
		if overdue() {
			replyError(w, http.StatusServiceUnavailable,
				fmt.Errorf("what-if abandoned after %v (%d epochs stepped)", d.opts.whatifTimeout, len(reply.Epochs)))
			return
		}
		tel, err := fork.Step()
		if err != nil {
			replyError(w, http.StatusInternalServerError, err)
			return
		}
		reply.Epochs = append(reply.Epochs, tel)
	}
	if fork.Epoch() > 0 {
		res, err := fork.Result()
		if err != nil {
			replyError(w, http.StatusInternalServerError, err)
			return
		}
		reply.Summary = &whatIfSummary{
			FleetEnergyJ:   res.FleetEnergyJ,
			AvgFleetPowerW: res.AvgFleetPowerW,
			QPSPerWatt:     res.QPSPerWatt,
			WorstP99US:     res.WorstP99US,
			Unparks:        res.Unparks,
			Restarts:       res.Restarts,
		}
	}
	replyJSON(w, http.StatusOK, reply)
}

// handleStep advances the live fleet ?epochs=N epochs (default 1) —
// the manual clock for -time-scale 0 deployments and tests.
func (d *daemon) handleStep(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) {
		return
	}
	n := 1
	if s := r.URL.Query().Get("epochs"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			replyError(w, http.StatusBadRequest, fmt.Errorf("bad epochs=%q: want a positive count", s))
			return
		}
		n = v
	}
	var tels []agilewatts.FleetTelemetry
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.live.Done() {
		replyError(w, http.StatusConflict, fmt.Errorf("scenario finished (all %d epochs stepped)", d.live.Epochs()))
		return
	}
	for i := 0; i < n && !d.live.Done(); i++ {
		tel, err := d.live.Step()
		if err != nil {
			replyError(w, http.StatusInternalServerError, err)
			return
		}
		tels = append(tels, tel)
		d.afterStepLocked()
	}
	replyJSON(w, http.StatusOK, tels)
}

func (d *daemon) handlePause(pause bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !wantMethod(w, r, http.MethodPost) {
			return
		}
		d.mu.Lock()
		d.paused = pause
		st := d.status()
		d.mu.Unlock()
		replyJSON(w, http.StatusOK, st)
	}
}

// handleSnapshot downloads the fleet checkpoint: the exact bytes
// /v1/restore (or RestoreLiveScenario in another process) rebuilds the
// fleet from, with bit-identical future behavior.
func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodGet) {
		return
	}
	d.mu.Lock()
	blob, err := d.live.Snapshot()
	epoch := d.live.Epoch()
	d.mu.Unlock()
	if err != nil {
		replyError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Scenario-Epoch", strconv.Itoa(epoch))
	w.Write(blob)
}

// handleRestore replaces the live fleet with the checkpoint in the
// request body. The checkpoint must have been taken from this
// scenario's configuration; a mismatch (or any corruption) rejects the
// upload and leaves the current fleet untouched.
func (d *daemon) handleRestore(w http.ResponseWriter, r *http.Request) {
	if !wantMethod(w, r, http.MethodPost) {
		return
	}
	blob, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxCheckpointBody))
	if err != nil {
		replyError(w, bodyStatus(err, http.StatusBadRequest), err)
		return
	}
	live, err := agilewatts.RestoreLiveScenario(d.run, blob)
	if err != nil {
		replyError(w, http.StatusUnprocessableEntity, err)
		return
	}
	d.mu.Lock()
	d.live = live
	// The restored fleet is a new timeline: followers re-read history,
	// and the checkpoint cadence restarts from the restored epoch.
	d.lastCkptEpoch = -1
	d.wakeFollowersLocked()
	st := d.status()
	d.mu.Unlock()
	replyJSON(w, http.StatusOK, st)
}
