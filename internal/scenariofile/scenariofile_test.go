package scenariofile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// library globs the checked-in adversarial scenario files; they double
// as the decoder's integration fixtures.
func library(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no scenario files under testdata/scenarios")
	}
	return paths
}

func TestParseHappyPath(t *testing.T) {
	doc := `{
	  "name": "unit",
	  "schedule": {"shape": "spike", "base_qps": 400000, "total_ms": 60},
	  "fleet": {"nodes": 4, "platform": "AW", "dispatch": "consolidate", "park_drained": true},
	  "epoch_ms": 10,
	  "faults": {
	    "nodes": [{"node": 0, "kind": "crash", "start_ms": 20, "end_ms": 40}],
	    "restart_latency_ms": 8
	  }
	}`
	f, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "unit" || f.Schedule.Shape != "spike" || f.Schedule.BaseQPS != 400000 {
		t.Errorf("schedule decoded wrong: %+v", f.Schedule)
	}
	if f.Fleet.Nodes != 4 || f.Fleet.Platform != "AW" || !f.Fleet.ParkDrained {
		t.Errorf("fleet decoded wrong: %+v", f.Fleet)
	}
	if f.EpochMS != 10 || f.Faults.RestartLatencyMS != 8 {
		t.Errorf("epoch/restart decoded wrong: epoch=%g restart=%g", f.EpochMS, f.Faults.RestartLatencyMS)
	}
	want := NodeFaultSpec{Node: 0, Kind: "crash", StartMS: 20, EndMS: 40}
	if len(f.Faults.Nodes) != 1 || f.Faults.Nodes[0] != want {
		t.Errorf("faults decoded wrong: %+v", f.Faults.Nodes)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"malformed JSON", `{"schedule":`, "scenariofile:"},
		{"unknown field", `{"schedule": {"shape": "constant"}, "warp_drive": true}`, "warp_drive"},
		{"typo'd nested knob", `{"schedule": {"shape": "constant", "base_pqs": 1}}`, "base_pqs"},
		{"trailing content", `{"schedule": {"shape": "constant"}} {"again": true}`, "trailing content"},
		{"trailing garbage", `{"schedule": {"shape": "constant"}} ]`, "trailing content"},
		{
			"both shape and phases",
			`{"schedule": {"shape": "constant", "phases": [{"duration_ms": 1, "start_qps": 1, "end_qps": 1}]}}`,
			"both a named shape and explicit phases",
		},
		{"neither shape nor phases", `{"schedule": {}}`, "needs a named shape or explicit phases"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatal("Parse accepted the invalid document")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseErrorContext pins the decode-error dressing: syntax and type
// errors must carry the byte offset of the failure (and the offending
// field for type errors) so a scenario author can find the problem in a
// large file without bisecting it.
func TestParseErrorContext(t *testing.T) {
	cases := []struct {
		name, doc string
		wants     []string
	}{
		{"syntax offset", `{"schedule": {"shape": }}`, []string{"at byte"}},
		{
			"type offset and field",
			`{"schedule": {"shape": "constant", "base_qps": "fast"}}`,
			[]string{"at byte", `"schedule.base_qps"`},
		},
		{"empty input", ``, []string{"empty scenario document"}},
		{"whitespace only", "\n\t  ", []string{"empty scenario document"}},
		{"trailing offset", `{"schedule": {"shape": "constant"}} junk`, []string{"trailing content", "at byte"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatal("Parse accepted the invalid document")
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

const twoDocs = `{"name": "a", "schedule": {"shape": "constant", "base_qps": 1, "total_ms": 10}}
{"name": "b", "schedule": {"shape": "spike", "base_qps": 2, "total_ms": 20}}`

func TestParseAll(t *testing.T) {
	fs, err := ParseAll([]byte(twoDocs))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 || fs[0].Name != "a" || fs[1].Name != "b" {
		t.Fatalf("ParseAll decoded %+v", fs)
	}

	// A single-document stream matches Parse exactly.
	single := `{"name": "solo", "schedule": {"shape": "constant", "base_qps": 1, "total_ms": 10}}`
	one, err := ParseAll([]byte(single))
	if err != nil {
		t.Fatal(err)
	}
	want, err := Parse([]byte(single))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || !reflect.DeepEqual(one[0], want) {
		t.Errorf("ParseAll single-doc = %+v, Parse = %+v", one, want)
	}
}

func TestParseAllRejects(t *testing.T) {
	cases := []struct {
		name, doc string
		wants     []string
	}{
		{"empty stream", ``, []string{"no scenario documents"}},
		{
			"duplicate names",
			`{"name": "steady", "schedule": {"shape": "constant", "base_qps": 1, "total_ms": 10}}
			 {"name": "steady", "schedule": {"shape": "spike", "base_qps": 2, "total_ms": 20}}`,
			[]string{`duplicate scenario name "steady"`, "documents 0 and 1"},
		},
		{
			"second document malformed",
			`{"name": "a", "schedule": {"shape": "constant", "base_qps": 1, "total_ms": 10}}
			 {"name": "b", "schedule": {"shape": }}`,
			[]string{"document 1", "at byte"},
		},
		{
			"second document bad schedule",
			`{"name": "a", "schedule": {"shape": "constant", "base_qps": 1, "total_ms": 10}}
			 {"name": "b", "schedule": {}}`,
			[]string{`scenario "b"`, "needs a named shape or explicit phases"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseAll([]byte(tc.doc))
			if err == nil {
				t.Fatal("ParseAll accepted the invalid stream")
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

func TestLoadAll(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "multi.json")
	if err := os.WriteFile(path, []byte(twoDocs), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := LoadAll(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 2 {
		t.Fatalf("LoadAll decoded %d documents, want 2", len(fs))
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schedule": }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAll(bad); err == nil {
		t.Fatal("LoadAll accepted a malformed file")
	} else if !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q does not mention the path %q", err, bad)
	}

	if _, err := LoadAll(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("LoadAll accepted a missing file")
	}
}

// TestLoadLibrary parses every checked-in adversarial scenario and
// checks the file's label matches its basename — the convention the
// golden tests key on.
func TestLoadLibrary(t *testing.T) {
	for _, path := range library(t) {
		f, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := strings.TrimSuffix(filepath.Base(path), ".json"); f.Name != want {
			t.Errorf("%s: name = %q, want %q", path, f.Name, want)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("Load accepted a missing file")
	}
}

// encode renders the file back to indented JSON: a parsed file
// re-encodes to a document Parse accepts with the identical value — the
// round-trip property the decoder fuzzer pins.
func encode(f File) ([]byte, error) {
	data, err := json.MarshalIndent(f, "", "  ")
	return append(data, '\n'), err
}

// TestEncodeRoundTrip pins the lossless property on the real library:
// encode(Parse(file)) re-parses to the identical value.
func TestEncodeRoundTrip(t *testing.T) {
	for _, path := range library(t) {
		f, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		data, err := encode(f)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: re-encoded document rejected: %v", path, err)
		}
		if !reflect.DeepEqual(f, again) {
			t.Errorf("%s: round-trip drifted:\n was %+v\n now %+v", path, f, again)
		}
	}
}
