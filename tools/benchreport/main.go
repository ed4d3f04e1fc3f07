// benchreport assembles BENCH_place.json, the machine-readable record
// of the placer's performance: the micro-benchmarks of the annealing
// inner loop (clone-and-recompute vs the incremental move kernel) and
// the end-to-end experiment timings reported by dmfb-bench -json.
//
// Usage:
//
//	benchreport -go bench.out -exp exp.json -out BENCH_place.json
//
// where bench.out is the raw output of `go test -bench ... -benchmem`
// and exp.json is the output of `dmfb-bench -json`. The report derives
// the stage-2 ns-per-iteration speedup from the Stage2IterClone /
// Stage2IterMove pair. That ratio is informational and no check gates
// it: both sides price the FTI with the same site-intersection kernel,
// so it shows only what the move kernel saves besides the FTI.
// -assay-l1/-assay-ladder, -yield and -prev refuse a report whose
// recovery ladder no longer beats L1, whose yield curve stops paying
// for its spares, or that regresses against a previous report. Fault
// campaigns and server load are timed by the perfbench module.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

type benchmark struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerMove   float64 `json:"ns_per_move,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type report struct {
	Benchmark        string          `json:"benchmark"`
	GoVersion        string          `json:"go_version,omitempty"`
	Benchmarks       []benchmark     `json:"benchmarks"`
	Stage2CloneNs    float64         `json:"stage2_clone_ns_per_op,omitempty"`
	Stage2MoveNs     float64         `json:"stage2_move_ns_per_op,omitempty"`
	Stage2Speedup    float64         `json:"stage2_speedup,omitempty"`
	Stage1CloneNs    float64         `json:"stage1_clone_ns_per_op,omitempty"`
	Stage1MoveNs     float64         `json:"stage1_move_ns_per_op,omitempty"`
	Stage1Speedup    float64         `json:"stage1_speedup,omitempty"`
	Experiments      json.RawMessage `json:"experiments,omitempty"`
	ExperimentSource string          `json:"experiment_source,omitempty"`

	// LTSARunNsPerMove is the wall time per proposal of a whole
	// stage-2 run (BenchmarkLTSARun), the figure the per-iteration
	// Stage2IterMove micro-benchmark understates: it adds rebuilds
	// after bounding-box changes and commits, and subtracts the moves
	// rejected on their cost bound.
	LTSARunNsPerMove float64 `json:"ltsa_run_ns_per_move,omitempty"`

	// AreaRunNsPerMove is the wall time per proposal of a whole
	// stage-1 run on the 4×4 in-vitro diagnostic (BenchmarkAreaRun),
	// where overlap pricing over dense span conflicts dominates.
	AreaRunNsPerMove float64 `json:"area_run_ns_per_move,omitempty"`

	// SimRunNs is the wall time of one fault-free run of the PCR
	// schedule on the assay-campaign chip under the recovery ladder
	// (BenchmarkSimRun): the simulator's own cost in a campaign trial
	// that needs no recovery.
	SimRunNs float64 `json:"sim_run_ns,omitempty"`

	// Recovery ladder: the same seeded single-fault assay campaign
	// simulated under L1-only recovery and under the full escalation
	// ladder (dmfb-campaign -mode assay -json). The report is refused
	// unless the ladder strictly improves completion and neither run
	// had errored trials.
	RecoveryTrials int     `json:"recovery_trials,omitempty"`
	SurvivalL1     float64 `json:"survival_l1,omitempty"`
	SurvivalLadder float64 `json:"survival_ladder,omitempty"`
	SurvivalGain   float64 `json:"survival_gain,omitempty"`

	// Yield vs area under space redundancy: the pinned clustered-defect
	// yield campaign run at increasing spare-line budgets (dmfb-bench
	// -exp yieldsweep). The curve needs at least 3 points, area must
	// grow with the spare budget (spares are real cells), and yield at
	// the largest budget may not fall below the spare-free yield —
	// otherwise space redundancy stopped paying for its area and the
	// report is refused. -prev refuses any per-point yield drop at the
	// same pinned defect density.
	YieldDefectProb float64      `json:"yield_defect_prob,omitempty"`
	YieldTrials     int          `json:"yield_trials,omitempty"`
	YieldCurve      []yieldPoint `json:"yield_curve,omitempty"`
}

// yieldPoint is one spare-budget point of the yield-vs-area curve.
type yieldPoint struct {
	Spares    int     `json:"spares"`
	AreaCells float64 `json:"area_cells"`
	Yield     float64 `json:"yield"`
}

// campaignRun is the slice of dmfb-campaign -json output the report
// needs.
type campaignRun struct {
	Summary      json.RawMessage `json:"summary"`
	RecoveryMode string          `json:"recovery_mode"`
}

// summarySlice is the slice of campaign.Summary the report needs.
type summarySlice struct {
	Trials       int     `json:"trials"`
	Survived     int     `json:"survived"`
	Errors       int     `json:"errors"`
	SurvivalRate float64 `json:"survival_rate"`
}

func (c campaignRun) stats(path string) summarySlice {
	var s summarySlice
	if err := json.Unmarshal(c.Summary, &s); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return s
}

func readCampaign(path string) campaignRun {
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var c campaignRun
	if err := json.Unmarshal(raw, &c); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return c
}

// expRun is the slice of one dmfb-bench -json experiment record the
// report needs for measurement extraction.
type expRun struct {
	Experiment   string `json:"experiment"`
	Measurements []struct {
		Name     string  `json:"name"`
		Measured float64 `json:"measured"`
	} `json:"measurements"`
}

func readExpRuns(path string, raw []byte) []expRun {
	var runs []expRun
	if err := json.Unmarshal(raw, &runs); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return runs
}

// measure returns the named measurement of the named experiment, or
// (0, false) when either is absent.
func measure(runs []expRun, exp, name string) (float64, bool) {
	for _, r := range runs {
		if r.Experiment != exp {
			continue
		}
		for _, m := range r.Measurements {
			if m.Name == name {
				return m.Measured, true
			}
		}
	}
	return 0, false
}

// sparesMeasure matches the per-point yieldsweep measurement names,
// e.g. "spares2_yield" and "spares2_area_cells".
var sparesMeasure = regexp.MustCompile(`^spares(\d+)_(yield|area_cells)$`)

// yieldCurve assembles the yield-vs-area points from the yieldsweep
// experiment's measurements, sorted by spare budget. A point missing
// either its yield or its area refuses the report.
func yieldCurve(runs []expRun, path string) []yieldPoint {
	type acc struct {
		yield, area float64
		hasY, hasA  bool
	}
	pts := make(map[int]*acc)
	for _, r := range runs {
		if r.Experiment != "yieldsweep" {
			continue
		}
		for _, m := range r.Measurements {
			sub := sparesMeasure.FindStringSubmatch(m.Name)
			if sub == nil {
				continue
			}
			n, _ := strconv.Atoi(sub[1])
			a := pts[n]
			if a == nil {
				a = &acc{}
				pts[n] = a
			}
			if sub[2] == "yield" {
				a.yield, a.hasY = m.Measured, true
			} else {
				a.area, a.hasA = m.Measured, true
			}
		}
	}
	budgets := make([]int, 0, len(pts))
	for n := range pts {
		budgets = append(budgets, n)
	}
	sort.Ints(budgets)
	var curve []yieldPoint
	for _, n := range budgets {
		a := pts[n]
		if !a.hasY || !a.hasA {
			fatal(fmt.Errorf("%s: yieldsweep point spares=%d is missing its yield or area measurement", path, n))
		}
		curve = append(curve, yieldPoint{Spares: n, AreaCells: a.area, Yield: a.yield})
	}
	return curve
}

// benchLine matches one line of `go test -bench -benchmem` output, e.g.
//
//	BenchmarkStage2IterMove-8   300000   743.2 ns/op   49 B/op   0 allocs/op
//	BenchmarkLTSARun-8   5   371664612 ns/op   5309 ns/move   12204297 B/op   117953 allocs/op
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) ns/move)?(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	goOut := flag.String("go", "", "`file` holding raw go test -bench output")
	expJSON := flag.String("exp", "", "`file` holding dmfb-bench -json output (optional)")
	assayL1 := flag.String("assay-l1", "", "`file` holding dmfb-campaign -mode assay -recovery l1 -json output (optional)")
	assayLadder := flag.String("assay-ladder", "", "`file` holding dmfb-campaign -mode assay -recovery ladder -json output (optional)")
	yieldJSON := flag.String("yield", "", "`file` holding dmfb-bench -exp yieldsweep -json output (optional)")
	prev := flag.String("prev", "", "previous report `file`; refuse stage-2 ns/op or fig8 regressions against it (skipped with a warning when unreadable)")
	out := flag.String("out", "BENCH_place.json", "output `file`")
	flag.Parse()
	if *goOut == "" {
		fmt.Fprintln(os.Stderr, "benchreport: -go is required")
		os.Exit(2)
	}

	rep := report{
		Benchmark: "PCR (polymerase chain reaction) assay placement",
		GoVersion: runtime.Version(),
	}

	data, err := os.ReadFile(*goOut)
	if err != nil {
		fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		b := benchmark{Name: m[1]}
		b.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		b.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			b.NsPerMove, _ = strconv.ParseFloat(m[4], 64)
		}
		if m[5] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[5], 10, 64)
			b.AllocsPerOp, _ = strconv.ParseInt(m[6], 10, 64)
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
		switch b.Name {
		case "BenchmarkStage2IterClone":
			rep.Stage2CloneNs = b.NsPerOp
		case "BenchmarkStage2IterMove":
			rep.Stage2MoveNs = b.NsPerOp
		case "BenchmarkStage1IterClone":
			rep.Stage1CloneNs = b.NsPerOp
		case "BenchmarkStage1IterMove":
			rep.Stage1MoveNs = b.NsPerOp
		case "BenchmarkLTSARun":
			rep.LTSARunNsPerMove = b.NsPerMove
		case "BenchmarkAreaRun":
			rep.AreaRunNsPerMove = b.NsPerMove
		case "BenchmarkSimRun":
			rep.SimRunNs = b.NsPerOp
		}
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *goOut))
	}
	if rep.Stage2CloneNs > 0 && rep.Stage2MoveNs > 0 {
		rep.Stage2Speedup = round2(rep.Stage2CloneNs / rep.Stage2MoveNs)
	}
	if rep.Stage1CloneNs > 0 && rep.Stage1MoveNs > 0 {
		rep.Stage1Speedup = round2(rep.Stage1CloneNs / rep.Stage1MoveNs)
	}

	if *expJSON != "" {
		raw, err := os.ReadFile(*expJSON)
		if err != nil {
			fatal(err)
		}
		if !json.Valid(raw) {
			fatal(fmt.Errorf("%s: not valid JSON", *expJSON))
		}
		rep.Experiments = json.RawMessage(strings.TrimSpace(string(raw)))
		rep.ExperimentSource = "dmfb-bench -json"
	}

	if (*assayL1 == "") != (*assayLadder == "") {
		fatal(fmt.Errorf("-assay-l1 and -assay-ladder must be given together"))
	}
	if *assayL1 != "" {
		l1, ladder := readCampaign(*assayL1), readCampaign(*assayLadder)
		if l1.RecoveryMode != "l1" || ladder.RecoveryMode != "ladder" {
			fatal(fmt.Errorf("assay runs have recovery modes %q and %q, want l1 and ladder",
				l1.RecoveryMode, ladder.RecoveryMode))
		}
		s1, sl := l1.stats(*assayL1), ladder.stats(*assayLadder)
		if s1.Trials != sl.Trials {
			fatal(fmt.Errorf("assay trial counts differ: l1 %d vs ladder %d", s1.Trials, sl.Trials))
		}
		if s1.Errors != 0 || sl.Errors != 0 {
			fatal(fmt.Errorf("assay campaigns had errored trials: l1 %d, ladder %d", s1.Errors, sl.Errors))
		}
		if sl.Survived <= s1.Survived {
			fatal(fmt.Errorf("ladder completed %d/%d trials, not strictly better than L1's %d/%d",
				sl.Survived, sl.Trials, s1.Survived, s1.Trials))
		}
		rep.RecoveryTrials = s1.Trials
		rep.SurvivalL1 = s1.SurvivalRate
		rep.SurvivalLadder = sl.SurvivalRate
		rep.SurvivalGain = round2(sl.SurvivalRate - s1.SurvivalRate)
	}

	if *yieldJSON != "" {
		raw, err := os.ReadFile(*yieldJSON)
		if err != nil {
			fatal(err)
		}
		runs := readExpRuns(*yieldJSON, raw)
		prob, ok := measure(runs, "yieldsweep", "defect_prob")
		if !ok {
			fatal(fmt.Errorf("%s: yieldsweep experiment has no defect_prob measurement", *yieldJSON))
		}
		trials, _ := measure(runs, "yieldsweep", "trials")
		rep.YieldDefectProb = prob
		rep.YieldTrials = int(trials)
		rep.YieldCurve = yieldCurve(runs, *yieldJSON)
		if len(rep.YieldCurve) < 3 {
			fatal(fmt.Errorf("yield curve has %d spare-budget points, want >= 3", len(rep.YieldCurve)))
		}
		for i := 1; i < len(rep.YieldCurve); i++ {
			a, b := rep.YieldCurve[i-1], rep.YieldCurve[i]
			if b.AreaCells <= a.AreaCells {
				fatal(fmt.Errorf("yield curve area not increasing: spares=%d at %.0f cells vs spares=%d at %.0f — spare lines are not real cells",
					b.Spares, b.AreaCells, a.Spares, a.AreaCells))
			}
		}
		first, last := rep.YieldCurve[0], rep.YieldCurve[len(rep.YieldCurve)-1]
		if last.Yield < first.Yield {
			fatal(fmt.Errorf("yield fell from %.4f (spares=%d) to %.4f (spares=%d) — space redundancy no longer pays for its area",
				first.Yield, first.Spares, last.Yield, last.Spares))
		}
	}

	if *prev != "" {
		checkRegression(*prev, rep)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchreport: wrote %s (%d benchmarks", *out, len(rep.Benchmarks))
	if rep.Stage2Speedup > 0 {
		fmt.Printf(", stage-2 speedup %.2fx", rep.Stage2Speedup)
	}
	if rep.RecoveryTrials > 0 {
		fmt.Printf(", assay survival %.4f (l1) -> %.4f (ladder)", rep.SurvivalL1, rep.SurvivalLadder)
	}
	if len(rep.YieldCurve) > 0 {
		first, last := rep.YieldCurve[0], rep.YieldCurve[len(rep.YieldCurve)-1]
		fmt.Printf(", yield %.4f -> %.4f over spares %d -> %d at q=%g",
			first.Yield, last.Yield, first.Spares, last.Spares, rep.YieldDefectProb)
	}
	fmt.Println(")")
}

// checkRegression refuses the new report when it regresses against
// the previous one: the stage-2 move kernel may not slow down by more
// than 10% (timer-noise allowance — cross-machine comparisons are the
// caller's responsibility), and the seeded fig8 experiment may not
// lose FTI or gain area at all, since it is deterministic. A missing
// or unreadable previous report skips the gate with a warning so a
// fresh checkout can still assemble its first report.
func checkRegression(path string, rep report) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: no previous report (%v); skipping regression gate\n", err)
		return
	}
	var old report
	if err := json.Unmarshal(raw, &old); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	if old.Stage2MoveNs > 0 && rep.Stage2MoveNs > old.Stage2MoveNs*1.10 {
		fatal(fmt.Errorf("stage-2 move kernel regressed: %.1f ns/op vs previous %.1f ns/op (+%.0f%%)",
			rep.Stage2MoveNs, old.Stage2MoveNs, 100*(rep.Stage2MoveNs/old.Stage2MoveNs-1)))
	}
	// The yield campaigns are seeded and deterministic, so at the same
	// pinned defect density any per-point yield drop is a real placement
	// or recovery regression, not noise.
	if len(old.YieldCurve) > 0 && len(rep.YieldCurve) > 0 &&
		old.YieldDefectProb == rep.YieldDefectProb {
		for _, op := range old.YieldCurve {
			for _, np := range rep.YieldCurve {
				if np.Spares == op.Spares && np.Yield < op.Yield {
					fatal(fmt.Errorf("yield at spares=%d q=%g regressed: %.4f vs previous %.4f",
						np.Spares, rep.YieldDefectProb, np.Yield, op.Yield))
				}
			}
		}
	}
	if len(old.Experiments) == 0 || len(rep.Experiments) == 0 {
		return
	}
	oldRuns := readExpRuns(path, old.Experiments)
	newRuns := readExpRuns("experiments", rep.Experiments)
	if oldFTI, ok := measure(oldRuns, "fig8", "twostage_fti"); ok {
		if newFTI, ok := measure(newRuns, "fig8", "twostage_fti"); ok && newFTI < oldFTI {
			fatal(fmt.Errorf("fig8 FTI regressed: %.4f vs previous %.4f", newFTI, oldFTI))
		}
	}
	if oldArea, ok := measure(oldRuns, "fig8", "twostage_area"); ok {
		if newArea, ok := measure(newRuns, "fig8", "twostage_area"); ok && newArea > oldArea {
			fatal(fmt.Errorf("fig8 area regressed: %.0f cells vs previous %.0f cells", newArea, oldArea))
		}
	}
}

func round2(v float64) float64 {
	return float64(int64(v*100+0.5)) / 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
