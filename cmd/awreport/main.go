// Command awreport runs the complete reproduction — every table, figure,
// ablation and extension — and writes a single self-contained report
// (plain text or markdown-ish) to a file or stdout. This is the artifact
// a reviewer would skim.
//
// Usage:
//
//	awreport [-quick] [-o report.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	agilewatts "repro"
)

// sections is the report's layout: every experiment, each named once
// (TestSectionsCoverEveryExperiment pins this).
var sections = []struct {
	title string
	names []string
}{
	{"Hardware model (Tables 1-4, Sec. 5.2)", []string{
		agilewatts.ExpTable1, agilewatts.ExpTable2, agilewatts.ExpTable3,
		agilewatts.ExpTable4, agilewatts.ExpLatency}},
	{"Motivation and analytical models (Sec. 2, 6.3, 7.5)", []string{
		agilewatts.ExpMotivation, agilewatts.ExpValidation, agilewatts.ExpSnoop}},
	{"Evaluation (Figs. 8-13, Table 5)", []string{
		agilewatts.ExpFigure8, agilewatts.ExpFigure9, agilewatts.ExpFigure10,
		agilewatts.ExpFigure11, agilewatts.ExpFigure12, agilewatts.ExpFigure13,
		agilewatts.ExpTable5}},
	{"Extensions and ablations", []string{
		agilewatts.ExpAMD, agilewatts.ExpRaceToHalt, agilewatts.ExpPkgIdle,
		agilewatts.ExpBreakdown, agilewatts.ExpAblateGovernor,
		agilewatts.ExpAblateZones, agilewatts.ExpAblatePower,
		agilewatts.ExpAblateNoise}},
	{"Energy proportionality and fleet studies", []string{
		agilewatts.ExpProportion, agilewatts.ExpDispatch, agilewatts.ExpCluster,
		agilewatts.ExpScenario, agilewatts.ExpFaults, agilewatts.ExpOverload}},
}

func main() {
	quick := flag.Bool("quick", false, "reduced-fidelity simulation")
	out := flag.String("o", "", "output file (default stdout)")
	seed := flag.Uint64("seed", 0, "override experiment seed")
	flag.Parse()

	opts := agilewatts.DefaultOptions()
	if *quick {
		opts = agilewatts.QuickOptions()
	}
	if *seed != 0 {
		opts.Seed = *seed
	}

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	fmt.Fprintln(w, "AgileWatts reproduction report")
	fmt.Fprintln(w, "==============================")
	fmt.Fprintf(w, "generated: %s   seed: %d   quick: %v\n\n",
		time.Now().Format(time.RFC3339), opts.Seed, *quick)

	for _, sec := range sections {
		fmt.Fprintf(w, "## %s\n\n", sec.title)
		for _, name := range sec.names {
			if err := agilewatts.RunExperiment(name, opts, w); err != nil {
				fatal(err)
			}
			w.Flush()
		}
	}
	fmt.Fprintln(w, "end of report")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "awreport:", err)
	os.Exit(1)
}
