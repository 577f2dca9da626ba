// Command benchgate compares two `go test -bench` output files and fails
// when any benchmark regressed beyond a threshold. CI uses it as the
// enforcement half of the benchmark comparison (benchstat renders the
// human-readable report; benchgate decides pass/fail), guarding the
// internal/sim, internal/stats, internal/server and internal/cluster
// microbenchmarks against silent slowdowns.
//
// Usage:
//
//	benchgate -new new.txt [-base old.txt] [-threshold 20] [-filter REGEX]
//	          [-emit BENCH_2026-01-02.json] [-commit SHA]
//
// Each file may contain multiple runs of the same benchmark (-count=N);
// the median ns/op per benchmark is compared, which tolerates scheduler
// noise far better than single samples. Benchmarks present in only one
// file are reported and skipped. Exit status is 1 when any shared
// benchmark's median slowed down by more than threshold percent.
//
// -emit writes a machine-readable JSON snapshot of the -new medians
// (ns/op, allocs/op when the run used -benchmem, sample counts, and —
// when -base is given — the baseline median and speedup factor). The
// snapshot is stamped with the environment the -new run recorded
// (GOOS/GOARCH and CPU model from the bench headers, GOMAXPROCS from the
// benchmark name suffix), the Go version benchgate was built with, and
// the -commit it measured. When -base ran in a different environment
// the snapshot leaves out base_ns_op and speedup, which would compare
// two machines, and a warning says so. The CI bench job emits one per
// run as the repo's recorded perf trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchLine matches "BenchmarkName-8  1234  567.8 ns/op [ 99 B/op  3 allocs/op ]".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op(?:\s+([0-9.]+) B/op\s+(\d+) allocs/op)?`)

// benchEnv is the environment a bench output file records: the goos,
// goarch and cpu header lines, and GOMAXPROCS from the "-N" suffix go
// test adds to benchmark names (no suffix means 1). Procs is 0 when the
// file has no benchmark lines or its lines disagree (a -cpu list).
type benchEnv struct {
	GOOS   string `json:"goos,omitempty"`
	GOARCH string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Procs  int    `json:"gomaxprocs,omitempty"`
}

// differences names the fields in which e and o differ.
func (e benchEnv) differences(o benchEnv) []string {
	var out []string
	if e.GOOS != o.GOOS || e.GOARCH != o.GOARCH {
		out = append(out, fmt.Sprintf("GOOS/GOARCH %s/%s vs %s/%s", e.GOOS, e.GOARCH, o.GOOS, o.GOARCH))
	}
	if e.CPU != o.CPU {
		out = append(out, fmt.Sprintf("cpu %q vs %q", e.CPU, o.CPU))
	}
	if e.Procs != o.Procs {
		out = append(out, fmt.Sprintf("GOMAXPROCS %d vs %d", e.Procs, o.Procs))
	}
	return out
}

// sample is one benchmark line's measurements.
type sample struct {
	nsOp   float64
	bOp    float64
	allocs float64
	hasMem bool
}

// parse returns benchmark name -> samples, and the environment the
// file records.
func parse(path string) (map[string][]sample, benchEnv, error) {
	var env benchEnv
	f, err := os.Open(path)
	if err != nil {
		return nil, env, err
	}
	defer f.Close()
	out := make(map[string][]sample)
	procs := map[int]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "goos: "); ok {
			env.GOOS = v
		}
		if v, ok := strings.CutPrefix(line, "goarch: "); ok {
			env.GOARCH = v
		}
		if v, ok := strings.CutPrefix(line, "cpu: "); ok {
			env.CPU = strings.TrimSpace(v)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		s := sample{nsOp: v}
		if m[4] != "" {
			s.bOp, _ = strconv.ParseFloat(m[4], 64)
			s.allocs, _ = strconv.ParseFloat(m[5], 64)
			s.hasMem = true
		}
		out[m[1]] = append(out[m[1]], s)
		p := 1
		if m[2] != "" {
			p, _ = strconv.Atoi(m[2])
		}
		procs[p] = true
	}
	if len(procs) == 1 {
		for p := range procs {
			env.Procs = p
		}
	}
	return out, env, sc.Err()
}

func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(ss []sample) float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = s.nsOp
	}
	return medianOf(v)
}

// emitEntry is one benchmark's snapshot in the emitted JSON.
type emitEntry struct {
	NsOp     float64  `json:"ns_op"`
	Samples  int      `json:"samples"`
	AllocsOp *float64 `json:"allocs_op,omitempty"`
	BytesOp  *float64 `json:"bytes_op,omitempty"`
	BaseNsOp *float64 `json:"base_ns_op,omitempty"`
	Speedup  *float64 `json:"speedup,omitempty"`
}

// stamp identifies what an emitted snapshot measured: the -new run's
// environment, the Go version benchgate was built with, and the commit.
type stamp struct {
	benchEnv
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit,omitempty"`
}

// emit writes the JSON perf snapshot. baseRuns must come from the same
// environment as newRuns, or be nil.
func emit(path string, st stamp, newRuns, baseRuns map[string][]sample) error {
	type doc struct {
		Date string `json:"date"`
		stamp
		Benchmarks map[string]emitEntry `json:"benchmarks"`
	}
	d := doc{Date: time.Now().UTC().Format("2006-01-02"), stamp: st, Benchmarks: map[string]emitEntry{}}
	for name, ss := range newRuns {
		e := emitEntry{NsOp: median(ss), Samples: len(ss)}
		var allocs, bytes []float64
		for _, s := range ss {
			if s.hasMem {
				allocs = append(allocs, s.allocs)
				bytes = append(bytes, s.bOp)
			}
		}
		if len(allocs) > 0 {
			a, by := medianOf(allocs), medianOf(bytes)
			e.AllocsOp, e.BytesOp = &a, &by
		}
		// Benchmarks without a usable baseline (first run of a new
		// benchmark, or a garbage base median) get a partial record —
		// ns_op and samples only — rather than zero-valued base_ns_op
		// and speedup fields that would read as a measured 0x.
		if bv, ok := baseRuns[name]; ok && len(bv) > 0 {
			if b := median(bv); b > 0 && e.NsOp > 0 {
				sp := b / e.NsOp
				e.BaseNsOp, e.Speedup = &b, &sp
			}
		}
		d.Benchmarks[name] = e
	}
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// sameEnvBase returns baseRuns when the base and new runs share an
// environment. Otherwise it warns on w and returns nil: a speedup
// across two machines measures the machines, not the code.
func sameEnvBase(w io.Writer, baseRuns map[string][]sample, baseEnv, newEnv benchEnv) map[string][]sample {
	diff := baseEnv.differences(newEnv)
	if diff == nil {
		return baseRuns
	}
	fmt.Fprintf(w, "benchgate: warning: -base and -new ran in different environments (%s); the snapshot omits base_ns_op and speedup\n",
		strings.Join(diff, "; "))
	return nil
}

func main() {
	base := flag.String("base", "", "baseline bench output file (optional with -emit)")
	next := flag.String("new", "", "new bench output file")
	threshold := flag.Float64("threshold", 20, "max allowed regression (percent)")
	filter := flag.String("filter", "", "only gate benchmarks matching this regex")
	emitPath := flag.String("emit", "", "write a JSON perf snapshot of -new (BENCH_<date>.json)")
	commit := flag.String("commit", "", "commit the -new run measured, recorded in the -emit snapshot")
	flag.Parse()
	if *next == "" || (*base == "" && *emitPath == "") {
		fmt.Fprintln(os.Stderr, "benchgate: -new and at least one of -base/-emit are required")
		os.Exit(2)
	}
	var keep *regexp.Regexp
	if *filter != "" {
		var err error
		if keep, err = regexp.Compile(*filter); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: bad -filter:", err)
			os.Exit(2)
		}
	}
	newRuns, newEnv, err := parse(*next)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	baseRuns := map[string][]sample{}
	emitBase := baseRuns
	if *base != "" {
		var baseEnv benchEnv
		if baseRuns, baseEnv, err = parse(*base); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		emitBase = sameEnvBase(os.Stderr, baseRuns, baseEnv, newEnv)
	}
	if *emitPath != "" {
		st := stamp{benchEnv: newEnv, GoVersion: runtime.Version(), Commit: *commit}
		if err := emit(*emitPath, st, newRuns, emitBase); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate: emit:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", *emitPath, len(newRuns))
	}
	if *base == "" {
		return
	}

	names := make([]string, 0, len(newRuns))
	for name := range newRuns {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	compared := 0
	for _, name := range names {
		if keep != nil && !keep.MatchString(name) {
			continue
		}
		bv, ok := baseRuns[name]
		if !ok {
			fmt.Printf("new       %-40s %12.1f ns/op (no baseline, skipped)\n", name, median(newRuns[name]))
			continue
		}
		compared++
		b, n := median(bv), median(newRuns[name])
		deltaPct := 0.0
		if b > 0 {
			deltaPct = (n - b) / b * 100
		}
		verdict := "ok"
		if deltaPct > *threshold {
			verdict = fmt.Sprintf("FAIL (> +%.0f%%)", *threshold)
			failed = true
		}
		fmt.Printf("%-9s %-40s %12.1f -> %12.1f ns/op  %+7.1f%%\n", verdict, name, b, n, deltaPct)
	}
	for name := range baseRuns {
		if _, ok := newRuns[name]; !ok && (keep == nil || keep.MatchString(name)) {
			fmt.Printf("gone      %-40s (present in baseline only)\n", name)
		}
	}
	if compared == 0 {
		fmt.Println("benchgate: no shared benchmarks to compare")
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchgate: benchmark regression beyond %.0f%%\n", *threshold)
		os.Exit(1)
	}
}
