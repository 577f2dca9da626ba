package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// resultFile is what -out writes and compare reads: the environment
// stamp and every workload's metrics.
type resultFile struct {
	Env       envStamp         `json:"env"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name        string          `json:"name"`
	Rounds      int             `json:"rounds"`
	Attempted   int             `json:"attempted"`
	Failed      int             `json:"failed"`
	Correct     bool            `json:"correct"`
	Digest      string          `json:"digest"`
	DigestCheck string          `json:"digest_check"`
	Metrics     map[string]stat `json:"metrics"`
	// TraceOverheadS is the traced pass's wall time minus the untraced
	// run_s. For twin-served it also drops the HTTP and process
	// cost, since the traced pass makes the same calls in process.
	TraceOverheadS *float64 `json:"trace_overhead_s,omitempty"`
}

// envStamp names the machine and build a result came from.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	TimeUTC    string `json:"time_utc"`
}

func stampEnv(root string) envStamp {
	e := envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		TimeUTC:    time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil {
			e.Dirty = len(strings.TrimSpace(string(out))) > 0
		}
	}
	return e
}

// cpuModel reads the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sameMachine reports why two stamps are not comparable, or "" if they
// are: the commit and time may differ, nothing else.
func sameMachine(a, b envStamp) string {
	a.Commit, a.Dirty, a.TimeUTC = "", false, ""
	b.Commit, b.Dirty, b.TimeUTC = "", false, ""
	if a != b {
		return fmt.Sprintf("different environments:\n  A %+v\n  B %+v", a, b)
	}
	return ""
}

// verdict compares metric m of a baseline a with a candidate b: ok,
// regressed when b is worse by more than the bound, or unresolved when
// either side's quartile spread exceeds the bound, unless every sample
// of b is better than every sample of a. Metrics without a bound are
// reported for information only.
func verdict(m metricDef, a, b stat) string {
	if m.Layer || m.Better == "" {
		return "info"
	}
	worse := b.Value - a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	if m.Abs {
		if worse > m.Bound {
			return "regressed"
		}
		return "ok"
	}
	if allBetter(m, a.Samples, b.Samples) {
		return "ok"
	}
	if a.spread() > m.Bound || b.spread() > m.Bound {
		return "unresolved"
	}
	if worse/math.Abs(a.Value) > m.Bound {
		return "regressed"
	}
	return "ok"
}

// allBetter reports whether every sample of b beats every sample of a.
func allBetter(m metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if m.Better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

// compareMain prints, for every (workload, metric) in both result files,
// both medians with quartiles, the change, the bound and the verdict. It
// exits 1 if any metric regressed and 2 if the files cannot be compared.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: awbench compare A.json B.json")
		return 2
	}
	var a, b resultFile
	if err := readJSON(args[0], &a); err != nil {
		fmt.Fprintln(os.Stderr, "awbench compare:", err)
		return 2
	}
	if err := readJSON(args[1], &b); err != nil {
		fmt.Fprintln(os.Stderr, "awbench compare:", err)
		return 2
	}
	regressed, err := compare(a, b, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "awbench compare:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

func compare(a, b resultFile, w io.Writer) (regressed bool, err error) {
	if why := sameMachine(a.Env, b.Env); why != "" {
		return false, fmt.Errorf("refusing to compare: %s", why)
	}
	fmt.Fprintf(w, "A: commit %s dirty=%v %s\nB: commit %s dirty=%v %s\n",
		short(a.Env.Commit), a.Env.Dirty, a.Env.TimeUTC, short(b.Env.Commit), b.Env.Dirty, b.Env.TimeUTC)
	bw := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		bw[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := bw[wa.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-30s %-28s %-28s %8s %6s  %s\n", wa.Name, "metric", "A value [q1, q3]", "B value [q1, q3]", "delta", "bound", "verdict")
		for _, m := range metricDefs {
			sa, okA := wa.Metrics[m.Name]
			sb, okB := wb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(m, sa, sb)
			regressed = regressed || v == "regressed"
			delta := "-"
			if sa.Value != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(sb.Value-sa.Value)/math.Abs(sa.Value))
			}
			bound := "-"
			if v != "info" {
				bound = fmt.Sprintf("%g%%", 100*m.Bound)
				if m.Abs {
					bound = fmt.Sprintf("%g", m.Bound)
				}
			}
			fmt.Fprintf(w, "  %-30s %-28s %-28s %8s %6s  %s\n", m.Name, fmtStat(sa), fmtStat(sb), delta, bound, v)
		}
	}
	return regressed, nil
}

func fmtStat(s stat) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Value, s.Q1, s.Q3)
}
