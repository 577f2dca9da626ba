package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	agilewatts "repro"
)

const fixturePath = "../../testdata/scenarios/crash-under-spike.json"

// testDaemon builds a manual-clock daemon from the checked-in fixture
// and serves both API surfaces from httptest listeners.
func testDaemon(t testing.TB, scale float64) (*daemon, *httptest.Server, *httptest.Server) {
	t.Helper()
	name, run, err := selectScenario(fixturePath, "")
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(name, run, scale, defaultDaemonOptions())
	if err != nil {
		t.Fatal(err)
	}
	query := httptest.NewServer(d.queryMux())
	admin := httptest.NewServer(d.adminMux())
	t.Cleanup(query.Close)
	t.Cleanup(admin.Close)
	return d, query, admin
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func postJSON(t testing.TB, url string, req, v any) *http.Response {
	t.Helper()
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(data)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp
}

func TestSelectScenario(t *testing.T) {
	name, run, err := selectScenario(fixturePath, "")
	if err != nil {
		t.Fatal(err)
	}
	if name != "crash-under-spike" || run.Nodes != 4 {
		t.Errorf("selected %q with %d nodes, want crash-under-spike with 4", name, run.Nodes)
	}

	single, err := os.ReadFile(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	other := strings.Replace(string(single), `"crash-under-spike"`, `"variant"`, 1)
	multi := filepath.Join(t.TempDir(), "multi.json")
	if err := os.WriteFile(multi, append(single, other...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := selectScenario(multi, ""); err == nil || !strings.Contains(err.Error(), "pick one with -scenario") {
		t.Errorf("multi-document file without -scenario: err = %v", err)
	}
	if name, _, err = selectScenario(multi, "variant"); err != nil || name != "variant" {
		t.Errorf("selectScenario(variant) = %q, %v", name, err)
	}
	if _, _, err := selectScenario(multi, "absent"); err == nil || !strings.Contains(err.Error(), "crash-under-spike, variant") {
		t.Errorf("unknown name should list the available scenarios, got %v", err)
	}
}

// TestDaemonEndToEnd drives the full admin+query session the daemon is
// for: manual stepping, the telemetry stream, a what-if fork, a
// snapshot/restore round-trip mid-run, and a final result that is
// byte-identical to RunScenario on the same description — even though
// the serving fleet was replaced by its own checkpoint halfway through.
func TestDaemonEndToEnd(t *testing.T) {
	_, query, admin := testDaemon(t, 0)

	var st statusReply
	getJSON(t, query.URL+"/v1/status", &st)
	if st.Scenario != "crash-under-spike" || st.Epoch != 0 || st.Epochs != 6 || st.Done {
		t.Fatalf("initial status %+v", st)
	}

	if resp, err := http.Get(query.URL + "/v1/result"); err != nil || resp.StatusCode != http.StatusConflict {
		t.Fatalf("result before any epoch: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	var tels []agilewatts.FleetTelemetry
	postJSON(t, admin.URL+"/v1/step?epochs=2", nil, &tels)
	if len(tels) != 2 || tels[1].Epoch != 1 {
		t.Fatalf("step returned %+v", tels)
	}

	// What-if: park all but one node for two epochs, then run out the
	// schedule. The fork answers; the live fleet must not move.
	var wi whatIfReply
	postJSON(t, query.URL+"/v1/whatif", whatIfRequest{TargetNodes: 1, Epochs: 2, RunToEnd: true}, &wi)
	if wi.ForkedAt != 2 || wi.Forced != 2 || len(wi.Epochs) != 4 {
		t.Fatalf("what-if reply: forked_at=%d forced=%d epochs=%d", wi.ForkedAt, wi.Forced, len(wi.Epochs))
	}
	if wi.Epochs[0].ActiveNodes != 1 {
		t.Errorf("forced epoch ran %d active nodes, want 1", wi.Epochs[0].ActiveNodes)
	}
	if wi.Summary == nil || wi.Summary.FleetEnergyJ <= 0 {
		t.Errorf("what-if summary missing or empty: %+v", wi.Summary)
	}
	getJSON(t, query.URL+"/v1/status", &st)
	if st.Epoch != 2 {
		t.Fatalf("what-if moved the live fleet to epoch %d", st.Epoch)
	}

	// Telemetry backlog: two completed epochs, NDJSON.
	resp, err := http.Get(query.URL + "/v1/telemetry?from=0")
	if err != nil {
		t.Fatal(err)
	}
	var lines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var tel agilewatts.FleetTelemetry
		if err := json.Unmarshal(sc.Bytes(), &tel); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if tel.Epoch != lines {
			t.Errorf("telemetry line %d reports epoch %d", lines, tel.Epoch)
		}
		lines++
	}
	resp.Body.Close()
	if lines != 2 {
		t.Fatalf("telemetry stream carried %d epochs, want 2", lines)
	}

	// Snapshot the fleet and feed the checkpoint straight back: the
	// restored fleet replaces the live one at the same position.
	resp, err = http.Get(admin.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %s %v", resp.Status, err)
	}
	if got := resp.Header.Get("X-Scenario-Epoch"); got != "2" {
		t.Errorf("snapshot epoch header %q, want 2", got)
	}
	resp, err = http.Post(admin.URL+"/v1/restore", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restore rejected its own snapshot: %s", resp.Status)
	}
	getJSON(t, query.URL+"/v1/status", &st)
	if st.Epoch != 2 {
		t.Fatalf("restored fleet at epoch %d, want 2", st.Epoch)
	}

	// Corrupt checkpoints must not replace the fleet.
	bad := append([]byte{}, blob...)
	bad[0]++
	resp, err = http.Post(admin.URL+"/v1/restore", "application/octet-stream", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt restore: %s, want 422", resp.Status)
	}

	// Run out the schedule on the restored fleet and compare the final
	// result with the reference engine, byte for byte.
	postJSON(t, admin.URL+"/v1/step?epochs=10", nil, &tels)
	getJSON(t, query.URL+"/v1/status", &st)
	if !st.Done || st.Epoch != 6 {
		t.Fatalf("final status %+v", st)
	}
	if resp := postJSON(t, admin.URL+"/v1/step", nil, nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("step past the end: %s, want 409", resp.Status)
	}

	resp, err = http.Get(query.URL + "/v1/result")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s %v", resp.Status, err)
	}
	_, run, err := selectScenario(fixturePath, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := agilewatts.RunScenario(run)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(gotJSON)) != string(wantJSON) {
		t.Error("daemon result diverged from RunScenario on the same scenario file")
	}
}

func TestDaemonWhatIfRejects(t *testing.T) {
	_, query, _ := testDaemon(t, 0)
	for name, req := range map[string]whatIfRequest{
		"zero epochs":    {TargetNodes: 1},
		"negative nodes": {TargetNodes: -1, Epochs: 1},
	} {
		if resp := postJSON(t, query.URL+"/v1/whatif", req, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %s, want 400", name, resp.Status)
		}
	}
	resp, err := http.Post(query.URL+"/v1/whatif", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %s, want 400", resp.Status)
	}
}

// TestDaemonScaledClock runs the fleet on the scaled-time clock fast
// enough for a test: the whole 60ms schedule passes in well under a
// second of wall time, including a pause/resume cycle.
func TestDaemonScaledClock(t *testing.T) {
	d, query, admin := testDaemon(t, 50)
	if resp := postJSON(t, admin.URL+"/v1/pause", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: %s", resp.Status)
	}
	stop := make(chan struct{})
	defer close(stop)
	go d.runClock(stop)

	time.Sleep(50 * time.Millisecond)
	var st statusReply
	getJSON(t, query.URL+"/v1/status", &st)
	if st.Epoch != 0 || !st.Paused {
		t.Fatalf("paused clock moved: %+v", st)
	}
	if resp := postJSON(t, admin.URL+"/v1/resume", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: %s", resp.Status)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, query.URL+"/v1/status", &st)
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clock never finished the schedule: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The follow stream drains every epoch of a finished run and closes.
	resp, err := http.Get(query.URL + "/v1/telemetry?from=0&follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	if lines != st.Epochs {
		t.Errorf("follow stream carried %d epochs, want %d", lines, st.Epochs)
	}
}

// TestDaemonConcurrentWhatIf races what-if forks against the live
// clock: forks share only the memoizing runner with the parent, so
// concurrent hypotheticals must neither disturb the fleet nor trip the
// race detector.
func TestDaemonConcurrentWhatIf(t *testing.T) {
	d, query, admin := testDaemon(t, 200)
	stop := make(chan struct{})
	defer close(stop)
	go d.runClock(stop)

	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(target int) {
			var wi whatIfReply
			data, _ := json.Marshal(whatIfRequest{TargetNodes: target, Epochs: 2, RunToEnd: true})
			resp, err := http.Post(query.URL+"/v1/whatif", "application/json", bytes.NewReader(data))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("whatif: %s", resp.Status)
				return
			}
			errs <- json.NewDecoder(resp.Body).Decode(&wi)
		}(1 + i)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Drain the schedule and make sure the fleet still finishes clean.
	deadline := time.Now().Add(10 * time.Second)
	var st statusReply
	for {
		getJSON(t, admin.URL+"/v1/status", &st)
		if st.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clock never finished under concurrent what-ifs: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// ckptDaemon builds a manual-clock daemon that checkpoints every epoch
// into dir.
func ckptDaemon(t *testing.T, dir string) (*daemon, *httptest.Server, *httptest.Server) {
	t.Helper()
	name, run, err := selectScenario(fixturePath, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := defaultDaemonOptions()
	opts.ckptDir = dir
	opts.ckptEveryEpochs = 1
	d, err := newDaemon(name, run, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	query := httptest.NewServer(d.queryMux())
	admin := httptest.NewServer(d.adminMux())
	t.Cleanup(query.Close)
	t.Cleanup(admin.Close)
	return d, query, admin
}

// TestDaemonCheckpointRecovery is the crash-safety contract in-process:
// a daemon that checkpoints every epoch dies (simply dropped on the
// floor — no graceful path runs), a fresh daemon pointed at the same
// directory resumes from the newest checkpoint, and the resumed fleet
// finishes with exactly the batch-path result.
func TestDaemonCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	_, _, admin := ckptDaemon(t, dir)
	postJSON(t, admin.URL+"/v1/step?epochs=3", nil, nil)

	ckpts, err := filepath.Glob(filepath.Join(dir, "ckpt-*.awck"))
	if err != nil || len(ckpts) != 3 {
		t.Fatalf("checkpoints after 3 epochs: %v (err %v), want 3", ckpts, err)
	}

	d2, query2, admin2 := ckptDaemon(t, dir)
	if got := d2.live.Epoch(); got != 3 {
		t.Fatalf("recovered at epoch %d, want 3", got)
	}
	var st statusReply
	getJSON(t, query2.URL+"/v1/status", &st)
	for !st.Done {
		postJSON(t, admin2.URL+"/v1/step", nil, nil)
		getJSON(t, query2.URL+"/v1/status", &st)
	}
	resp, err := http.Get(query2.URL + "/v1/result")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s %v", resp.Status, err)
	}

	_, run, err := selectScenario(fixturePath, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := agilewatts.RunScenario(run)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(gotJSON)) != string(wantJSON) {
		t.Error("recovered run diverged from RunScenario on the same scenario file")
	}

	// The pruner keeps only the newest few checkpoints.
	ckpts, _ = filepath.Glob(filepath.Join(dir, "ckpt-*.awck"))
	if len(ckpts) > checkpointKeep {
		t.Errorf("%d checkpoints on disk, want at most %d: %v", len(ckpts), checkpointKeep, ckpts)
	}
}

// TestDaemonRecoverySkipsCorrupt pins the recovery ladder: a corrupt
// newest checkpoint (a crash mid-everything can leave one) is skipped
// with the fleet restored from the next one down, and a directory of
// only-corrupt checkpoints degrades to a fresh epoch-0 fleet rather
// than a dead daemon.
func TestDaemonRecoverySkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	_, _, admin := ckptDaemon(t, dir)
	postJSON(t, admin.URL+"/v1/step?epochs=2", nil, nil)

	// Corrupt the newest checkpoint; epoch 1's stays valid.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-000002.awck"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, _, _ := ckptDaemon(t, dir)
	if got := d2.live.Epoch(); got != 1 {
		t.Errorf("recovered at epoch %d, want 1 (newest valid)", got)
	}

	// All corrupt: start fresh.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-000001.awck"), []byte("also bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	d3, _, _ := ckptDaemon(t, dir)
	if got := d3.live.Epoch(); got != 0 {
		t.Errorf("recovered at epoch %d from corrupt-only dir, want 0", got)
	}
}

// TestDaemonWhatIfBounds pins the fork-pool back-pressure: a full pool
// answers 429 without touching the fleet, and an expired deadline
// abandons the fork with 503.
func TestDaemonWhatIfBounds(t *testing.T) {
	name, run, err := selectScenario(fixturePath, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := defaultDaemonOptions()
	opts.whatifMax = 0 // zero-capacity semaphore: every acquire fails
	d, err := newDaemon(name, run, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	query := httptest.NewServer(d.queryMux())
	t.Cleanup(query.Close)
	req := whatIfRequest{TargetNodes: 1, Epochs: 1}
	if resp := postJSON(t, query.URL+"/v1/whatif", req, nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("full pool: status %s, want 429", resp.Status)
	}

	opts = defaultDaemonOptions()
	opts.whatifTimeout = -time.Second // already expired: first step check trips
	d2, err := newDaemon(name, run, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	query2 := httptest.NewServer(d2.queryMux())
	t.Cleanup(query2.Close)
	if resp := postJSON(t, query2.URL+"/v1/whatif", req, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("expired deadline: status %s, want 503", resp.Status)
	}
}

// zeros is an endless stream of zero bytes: an upload of any size
// without holding it in memory.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestDaemonOversizedBodies pins the body limits: a checkpoint upload
// one byte over 64 MiB and a what-if one byte over 1 MiB get 413, not a
// truncated read reported as a corrupt checkpoint or bad JSON, and the
// live fleet is left as it was.
func TestDaemonOversizedBodies(t *testing.T) {
	d, query, admin := testDaemon(t, 0)
	var tels []agilewatts.FleetTelemetry
	postJSON(t, admin.URL+"/v1/step?epochs=2", nil, &tels)
	snapshot := func() []byte {
		t.Helper()
		resp, err := http.Get(admin.URL + "/v1/snapshot")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot: %s %v", resp.Status, err)
		}
		return blob
	}
	blob := snapshot()
	d.mu.Lock()
	live := d.live
	d.mu.Unlock()

	// A valid checkpoint padded to 64 MiB + 1: cut at the limit, it used
	// to be rejected as corrupt.
	body := io.MultiReader(bytes.NewReader(blob), io.LimitReader(zeros{}, maxCheckpointBody+1-int64(len(blob))))
	resp, err := http.Post(admin.URL+"/v1/restore", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized restore: %s, want 413", resp.Status)
	}

	whatIf := func(pad int) int {
		t.Helper()
		req := strings.Repeat(" ", pad) + `{"target_nodes":1,"epochs":1}`
		resp, err := http.Post(query.URL+"/v1/whatif", "application/json", strings.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := whatIf(maxWhatIfBody - 100); code != http.StatusOK {
		t.Errorf("what-if just under the limit: %d, want 200", code)
	}
	if code := whatIf(maxWhatIfBody + 1); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized what-if: %d, want 413", code)
	}

	d.mu.Lock()
	same := d.live == live
	d.mu.Unlock()
	var st statusReply
	getJSON(t, query.URL+"/v1/status", &st)
	if !same || st.Epoch != 2 || !bytes.Equal(snapshot(), blob) {
		t.Fatalf("oversized uploads touched the live fleet: replaced=%v epoch=%d", !same, st.Epoch)
	}
}

// BenchmarkDaemonStep measures one /v1/step round trip per op on
// testDaemon's fleet: the HTTP request, one epoch of the live fleet and
// the telemetry reply. The fixture's scenario has six epochs, so the
// daemon is rebuilt, off the clock, whenever its scenario ends.
func BenchmarkDaemonStep(b *testing.B) {
	var query, admin *httptest.Server
	left := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if left == 0 {
			b.StopTimer()
			if query != nil {
				query.Close()
				admin.Close()
			}
			var d *daemon
			d, query, admin = testDaemon(b, 0)
			left = d.live.Epochs()
			b.StartTimer()
		}
		if resp := postJSON(b, admin.URL+"/v1/step", nil, nil); resp.StatusCode != http.StatusOK {
			b.Fatalf("step: %s", resp.Status)
		}
		left--
	}
}
