// dmfb-bench regenerates every table and figure of the paper's
// evaluation (Section 6) with experiment-grade annealing parameters,
// printing paper-reported values next to measured ones. Runs are
// seeded and deterministic.
//
// Usage:
//
//	dmfb-bench                 # all experiments
//	dmfb-bench -exp table2     # one experiment:
//	                           # table1 fig5 fig6 baseline fig7 fti fig8 table2
//	                           # reconfig montecarlo multistart yieldsweep
//	dmfb-bench -exp table1 -json results.json
//	dmfb-bench -trace trace.jsonl -metrics metrics.json -profile prof/
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"dmfb"
	"dmfb/internal/campaign"
	"dmfb/internal/dispatch"
	"dmfb/internal/pipeline"
	"dmfb/internal/telemetry"
	"dmfb/internal/telemetry/cliflags"
)

var (
	seed   = flag.Int64("seed", 1, "annealing seed")
	search = cliflags.SearchFlags()
	ts     *cliflags.Session
)

// measurement is one measured quantity, paired with the paper's
// reported value when the paper states one.
type measurement struct {
	Name     string  `json:"name"`
	Measured float64 `json:"measured"`
	Paper    float64 `json:"paper,omitempty"`
	Unit     string  `json:"unit,omitempty"`
}

// expResult is the machine-readable record of one experiment run.
type expResult struct {
	Experiment   string        `json:"experiment"`
	DurationMS   float64       `json:"duration_ms"`
	Measurements []measurement `json:"measurements,omitempty"`
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see usage)")
	jsonOut := flag.String("json", "", "write machine-readable results to `file`")
	os.Exit(cliflags.Main("dmfb-bench", func(session *cliflags.Session) int {
		ts = session
		return run(*exp, *jsonOut)
	}))
}

func run(exp, jsonOut string) int {
	experiments := []struct {
		name string
		run  func() []measurement
	}{
		{"table1", table1},
		{"fig5", fig5},
		{"fig6", fig6},
		{"baseline", baseline},
		{"fig7", fig7},
		{"fti", ftiExp},
		{"fig8", fig8},
		{"table2", table2},
		{"reconfig", reconfigExp},
		{"montecarlo", monteCarlo},
		{"multistart", multistart},
		{"yieldsweep", yieldsweep},
	}
	var results []expResult
	found := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		found = true
		fmt.Printf("==================== %s ====================\n", e.name)
		clock := telemetry.StartStage(e.name)
		ms := e.run()
		st := clock.Stop()
		ts.Tracer.EmitSpan("bench."+e.name, st.Wall,
			telemetry.Fields{"cpu_us": st.CPU.Microseconds(), "measurements": len(ms)})
		ts.Metrics.Histogram("bench.exp_ms", telemetry.LatencyBuckets...).
			Observe(float64(st.Wall.Microseconds()) / 1000)
		results = append(results, expResult{
			Experiment:   e.name,
			DurationMS:   float64(st.Wall.Microseconds()) / 1000,
			Measurements: ms,
		})
		fmt.Printf("(%s in %v)\n\n", e.name, st.Wall.Round(time.Millisecond))
	}
	if !found {
		fmt.Fprintf(os.Stderr, "dmfb-bench: unknown experiment %q\n", exp)
		return 2
	}
	if jsonOut != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-bench:", err)
			return 1
		}
		fmt.Println("results written to", jsonOut)
	}
	return 0
}

func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmfb-bench:", err)
		os.Exit(1)
	}
	return v
}

// placerOpts returns the shared annealing options, with progress
// telemetry attached when enabled. The -starts/-anneal-workers group
// applies to every annealing experiment; the default of one start
// reproduces the paper's single-anneal numbers.
func placerOpts() dmfb.PlacerOptions {
	return dmfb.PlacerOptions{
		Seed:     *seed,
		Search:   *search,
		Observer: dmfb.ObserveAnneal(ts.Tracer, ts.Metrics, "bench"),
		Metrics:  ts.Metrics,
	}
}

// benchPlace synthesises the PCR case study and places it via the
// shared pipeline, with the bench-stage anneal observer attached. beta
// only matters for the "twostage" placer.
func benchPlace(placer string, beta float64) pipeline.Result {
	res, err := pipeline.Run(context.Background(), pipeline.Request{
		Tool:  "dmfb-bench",
		Synth: &pipeline.SynthSpec{Assay: "pcr"},
		Place: &pipeline.PlaceSpec{
			Placer:  placer,
			Options: placerOpts(),
			FT:      dmfb.FTOptions{Beta: beta},
		},
		Tracer:  ts.Tracer,
		Metrics: ts.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return res
}

// table1 prints the module catalogue used by the PCR binding.
func table1() []measurement {
	fmt.Println("Table 1: resource binding in PCR (paper: identical by construction)")
	g, mix := dmfb.PCRAssay()
	_ = g
	sched := must(dmfb.PCRSchedule())
	fmt.Printf("%-4s %-26s %-8s %s\n", "op", "hardware", "module", "mixing time")
	n := 0
	for _, it := range sched.BoundItems() {
		fmt.Printf("%-4s %-26s %-8s %ds\n", it.Op.Name, it.Device.Hardware,
			it.Device.Size.String()+" cells", it.Device.Duration)
		n++
	}
	_ = mix
	return []measurement{
		{Name: "bound_operations", Measured: float64(n), Paper: 7, Unit: "ops"},
	}
}

// fig5 prints the PCR sequencing graph.
func fig5() []measurement {
	fmt.Println("Figure 5: sequencing graph of the PCR mixing stage")
	g, _ := dmfb.PCRAssay()
	for _, op := range g.Ops() {
		succ := g.Succ(op.ID)
		if len(succ) == 0 {
			fmt.Printf("  %-4s (%s %s) -> [final mix]\n", op.Name, op.Kind, op.Fluid)
			continue
		}
		for _, s := range succ {
			fmt.Printf("  %-4s (%s %s) -> %s\n", op.Name, op.Kind, op.Fluid, g.Op(s).Name)
		}
	}
	return []measurement{
		{Name: "graph_ops", Measured: float64(len(g.Ops())), Unit: "ops"},
	}
}

// fig6 prints the regenerated module-usage schedule.
func fig6() []measurement {
	fmt.Println("Figure 6: schedule of module usage (regenerated; the paper does not print its data)")
	sched := must(dmfb.PCRSchedule())
	fmt.Print(dmfb.RenderSchedule(sched))
	fmt.Printf("peak concurrent area: %d cells\n", sched.PeakArea())
	return []measurement{
		{Name: "makespan", Measured: float64(sched.Makespan), Unit: "s"},
		{Name: "peak_area", Measured: float64(sched.PeakArea()), Unit: "cells"},
	}
}

// baseline runs the greedy placers (paper Section 6.1: 84 cells / 189 mm²).
func baseline() []measurement {
	fmt.Println("Baseline greedy placement (paper: 84 cells = 189.00 mm2)")
	aware := benchPlace("greedy", 0).Placement
	obliv := benchPlace("greedy-oblivious", 0).Placement
	fmt.Printf("time-aware greedy:      %3d cells = %7.2f mm2\n",
		aware.ArrayCells(), dmfb.AreaMM2(aware.ArrayCells()))
	fmt.Printf("time-oblivious greedy:  %3d cells = %7.2f mm2\n",
		obliv.ArrayCells(), dmfb.AreaMM2(obliv.ArrayCells()))
	fmt.Println("(the paper's under-specified greedy falls between these bounds)")
	return []measurement{
		{Name: "greedy_time_aware", Measured: float64(aware.ArrayCells()), Paper: 84, Unit: "cells"},
		{Name: "greedy_time_oblivious", Measured: float64(obliv.ArrayCells()), Paper: 84, Unit: "cells"},
	}
}

// fig7 runs the area-only SA placer (paper: 63 cells = 141.75 mm², −25% vs baseline).
func fig7() []measurement {
	fmt.Println("Figure 7: simulated-annealing placement, area only (paper: 7x9 = 63 cells = 141.75 mm2)")
	clock := telemetry.StartStage("fig7.anneal")
	res := benchPlace("sa", 0)
	st := clock.Stop()
	p, stats := res.Placement, res.PlacerStats
	fmt.Print(dmfb.RenderPlacement(p))
	fmt.Printf("measured: %d cells = %.2f mm2 (%d evaluations, %d levels, %v)\n",
		p.ArrayCells(), dmfb.AreaMM2(p.ArrayCells()),
		stats.Evaluations, stats.Levels, st.Wall.Round(time.Millisecond))
	g := benchPlace("greedy", 0).Placement
	improvement := 100 * (1 - float64(p.ArrayCells())/float64(g.ArrayCells()))
	fmt.Printf("improvement over greedy baseline: %.1f%% (paper: 25%%)\n", improvement)
	return []measurement{
		{Name: "sa_area", Measured: float64(p.ArrayCells()), Paper: 63, Unit: "cells"},
		{Name: "sa_area_mm2", Measured: dmfb.AreaMM2(p.ArrayCells()), Paper: 141.75, Unit: "mm2"},
		{Name: "improvement_vs_greedy", Measured: improvement, Paper: 25, Unit: "%"},
	}
}

// ftiExp computes the FTI of the area-minimal placement (paper: 0.1270).
func ftiExp() []measurement {
	fmt.Println("FTI of the area-minimal placement (paper: 0.1270, computed in 1.7 s on a Pentium III)")
	p := benchPlace("sa", 0).Placement
	clock := telemetry.StartStage("fti.compute")
	r := dmfb.ComputeFTI(p)
	st := clock.Stop()
	fmt.Printf("measured: %v (computed in %v)\n", r, st.Wall)
	fmt.Print(dmfb.RenderCoverage(r))
	return []measurement{
		{Name: "fti", Measured: dmfb.Round4(r.FTI()), Paper: 0.1270},
		{Name: "fti_compute_ms", Measured: float64(st.Wall.Microseconds()) / 1000, Paper: 1700, Unit: "ms"},
	}
}

// fig8 runs the two-stage placer at β=30 (paper: 7x11 = 77 cells =
// 173.25 mm², FTI 0.8052; +534% FTI for +22.2% area).
func fig8() []measurement {
	fmt.Println("Figure 8: two-stage fault-tolerant placement, beta=30")
	fmt.Println("(paper: 77 cells = 173.25 mm2, FTI 0.8052; +534% FTI for +22.2% area)")
	res := *benchPlace("twostage", 30).TwoStage
	f1 := dmfb.ComputeFTI(res.Stage1).FTI()
	f2 := dmfb.ComputeFTI(res.Final).FTI()
	a1, a2 := res.Stage1.ArrayCells(), res.Final.ArrayCells()
	fmt.Print(dmfb.RenderPlacement(res.Final))
	fmt.Printf("stage 1: %d cells = %.2f mm2, FTI %.4f\n", a1, dmfb.AreaMM2(a1), f1)
	fmt.Printf("final:   %d cells = %.2f mm2, FTI %.4f\n", a2, dmfb.AreaMM2(a2), f2)
	if f1 > 0 {
		fmt.Printf("FTI gain: +%.0f%%, area growth: +%.1f%%\n",
			100*(f2-f1)/f1, 100*(float64(a2)/float64(a1)-1))
	}
	return []measurement{
		{Name: "twostage_area", Measured: float64(a2), Paper: 77, Unit: "cells"},
		{Name: "twostage_fti", Measured: dmfb.Round4(f2), Paper: 0.8052},
	}
}

// table2 sweeps β (paper Table 2).
func table2() []measurement {
	fmt.Println("Table 2: solutions for different beta")
	fmt.Println("(paper: area 141.75->222.75 mm2, FTI 0.2857->1.0 as beta goes 10->60)")
	prob := dmfb.PlacementProblemOf(must(dmfb.PCRSchedule()))
	pts, err := dmfb.BetaSweep(prob, placerOpts(),
		dmfb.FTOptions{Restarts: 3}, []float64{10, 20, 30, 40, 50, 60})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-10s", "beta")
	for _, p := range pts {
		fmt.Printf("%10.0f", p.Beta)
	}
	fmt.Printf("\n%-10s", "area(mm2)")
	for _, p := range pts {
		fmt.Printf("%10.2f", dmfb.AreaMM2(p.Cells))
	}
	fmt.Printf("\n%-10s", "FTI")
	for _, p := range pts {
		fmt.Printf("%10.4f", p.FTI)
	}
	fmt.Println()
	var ms []measurement
	for _, p := range pts {
		ms = append(ms,
			measurement{Name: fmt.Sprintf("beta%.0f_area_mm2", p.Beta), Measured: dmfb.AreaMM2(p.Cells), Unit: "mm2"},
			measurement{Name: fmt.Sprintf("beta%.0f_fti", p.Beta), Measured: dmfb.Round4(p.FTI)})
	}
	return ms
}

// reconfigExp demonstrates on-line recovery (paper Figure 4b / Section 5.1).
func reconfigExp() []measurement {
	fmt.Println("Partial reconfiguration during field operation (Section 5.1)")
	pres := benchPlace("twostage", 50)
	sched, p := pres.Schedule, pres.Placement
	cov := dmfb.ComputeFTI(p)
	// Inject a fault into the first covered module cell, mid-assay.
	array := p.BoundingBox()
	for y := 0; y < array.H; y++ {
		for x := 0; x < array.W; x++ {
			cell := dmfb.Point{X: array.X + x, Y: array.Y + y}
			if !cov.CoveredAt(x, y) || len(p.ModulesAt(cell)) == 0 {
				continue
			}
			sr := dmfb.Simulate(sched, p,
				dmfb.SimOptions{Telemetry: ts.Tracer, Metrics: ts.Metrics},
				dmfb.FaultInjection{TimeSec: 1, Cell: dmfb.ArrayCell(dmfb.SimOptions{}, cell)})
			fmt.Printf("fault at array cell %v at t=1s: completed=%v, %d relocation(s), %d transport steps\n",
				cell, sr.Completed, len(sr.Relocations), sr.TransportSteps)
			for _, r := range sr.Relocations {
				fmt.Println(" ", r)
			}
			completed := 0.0
			if sr.Completed {
				completed = 1
			}
			return []measurement{
				{Name: "completed", Measured: completed, Paper: 1},
				{Name: "relocations", Measured: float64(len(sr.Relocations))},
			}
		}
	}
	fmt.Println("no covered module cell found")
	return nil
}

// multistart measures the deterministic parallel multi-start search
// (extension): the same N-start derived-seed twostage search run with
// a 1-worker cap and with one worker per CPU must pick byte-identical
// winners, and the wall-clock ratio of the two runs is the multi-start
// speedup. The single-start run sets the target FTI; the parallel
// run's wall-clock is the time-to-target when its winner meets it.
// Telemetry sinks are deliberately left off: the starts anneal
// concurrently and per-move observer traffic would dominate timing.
func multistart() []measurement {
	starts := search.Starts
	if starts <= 1 {
		starts = 4
	}
	cpus := runtime.NumCPU()
	fmt.Printf("Multi-start annealing: best of %d derived-seed starts on %d CPU(s), beta=30\n", starts, cpus)

	run := func(s dmfb.SearchOptions) (pipeline.Result, float64) {
		t0 := time.Now()
		res, err := pipeline.Run(context.Background(), pipeline.Request{
			Tool:  "dmfb-bench",
			Synth: &pipeline.SynthSpec{Assay: "pcr"},
			Place: &pipeline.PlaceSpec{
				Placer:  "twostage",
				Options: dmfb.PlacerOptions{Seed: *seed, Search: s},
				FT:      dmfb.FTOptions{Beta: 30},
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return res, float64(time.Since(t0).Microseconds()) / 1000
	}

	single, singleMS := run(dmfb.SearchOptions{})
	target := dmfb.ComputeFTI(single.Placement).FTI()

	serial, serialMS := run(dmfb.SearchOptions{Starts: starts, Workers: 1})
	par, parMS := run(dmfb.SearchOptions{Starts: starts})

	identical := 0.0
	if bytes.Equal(must(dmfb.MarshalPlacement(serial.Placement)),
		must(dmfb.MarshalPlacement(par.Placement))) {
		identical = 1
	}
	winner := dmfb.ComputeFTI(par.Placement).FTI()
	speedup := 0.0
	if parMS > 0 {
		speedup = serialMS / parMS
	}
	toTarget := 0.0
	if winner >= target {
		toTarget = parMS
	}

	fmt.Printf("single start:        %8.1f ms, FTI %.4f (target)\n", singleMS, target)
	fmt.Printf("%d starts, 1 worker: %8.1f ms\n", starts, serialMS)
	fmt.Printf("%d starts, %d worker(s): %.1f ms, FTI %.4f (winner: start %d), speedup %.2fx\n",
		starts, cpus, parMS, winner, par.TwoStage.Start, speedup)
	fmt.Printf("winners byte-identical across worker counts: %v\n", identical == 1)

	return []measurement{
		{Name: "starts", Measured: float64(starts)},
		{Name: "cpus", Measured: float64(cpus)},
		{Name: "single_start_ms", Measured: singleMS, Unit: "ms"},
		{Name: "serial_ms", Measured: serialMS, Unit: "ms"},
		{Name: "parallel_ms", Measured: parMS, Unit: "ms"},
		{Name: "multistart_speedup", Measured: speedup, Unit: "x"},
		{Name: "winner_identical", Measured: identical, Paper: 1},
		{Name: "target_fti", Measured: dmfb.Round4(target)},
		{Name: "winner_fti", Measured: dmfb.Round4(winner)},
		{Name: "to_target_fti_ms", Measured: toTarget, Unit: "ms"},
	}
}

// yieldsweep measures the yield-vs-area trade-off of space redundancy
// (extension; the headline curve of the yield companion paper): the
// PCR placement with 0, 2 and 4 interstitial spare lines under a
// pinned clustered-defect model, 512 deterministic trials per point.
// More spares cost die area but give every module a local relocation
// target, so yield must not fall as the budget grows — benchreport
// gates on exactly that.
func yieldsweep() []measurement {
	const (
		q       = 0.02
		cluster = 4.0
		radius  = 2
		trials  = 512
		cseed   = 7
	)
	fmt.Printf("Yield vs area under space redundancy (clustered defects, q=%g, %d trials/point)\n", q, trials)
	ms := []measurement{
		{Name: "defect_prob", Measured: q},
		{Name: "cluster_size", Measured: cluster},
		{Name: "trials", Measured: trials},
	}
	for _, spares := range []int{0, 2, 4} {
		sp := dispatch.Spec{
			Mode: "yield", Trials: trials, Seed: cseed, PlaceSeed: *seed,
			DefectModel: "clustered", Q: q, ClusterSize: cluster, ClusterRadius: radius,
			Spares: spares,
		}.Normalized()
		built := must(sp.Build(context.Background(), dispatch.BuildOptions{
			Tool: "dmfb-bench", Tracer: ts.Tracer, Metrics: ts.Metrics,
		}))
		rep := must(campaign.Run(context.Background(), campaign.Config{
			Name: sp.Name(), Trials: built.Trials, Seed: sp.Seed,
			Fingerprint: sp.Fingerprint(), Metrics: ts.Metrics, Tracer: ts.Tracer,
		}, built.Fn))
		area := built.ArrayW * built.ArrayH
		fmt.Printf("  spares=%d: %dx%d array (%d cells), yield %.4f [%.4f, %.4f]\n",
			spares, built.ArrayW, built.ArrayH, area,
			rep.Summary.SurvivalRate, rep.Summary.Wilson95Lo, rep.Summary.Wilson95Hi)
		ms = append(ms,
			measurement{Name: fmt.Sprintf("spares%d_yield", spares), Measured: rep.Summary.SurvivalRate},
			measurement{Name: fmt.Sprintf("spares%d_area_cells", spares), Measured: float64(area), Unit: "cells"})
	}
	return ms
}

// monteCarlo validates FTI as a survivability predictor (extension).
func monteCarlo() []measurement {
	fmt.Println("Monte-Carlo validation: survival rate vs FTI (extension experiment)")
	s1 := benchPlace("sa", 0).Placement
	res := benchPlace("twostage", 60)
	var ms []measurement
	for _, c := range []struct {
		label string
		slug  string
		p     *dmfb.Placement
	}{{"area-minimal", "area_minimal", s1},
		{"fault-tolerant (beta=60)", "fault_tolerant", res.Placement}} {
		ex := dmfb.ExhaustiveSingleFault(c.p)
		mc := must(dmfb.MonteCarloSingleFault(c.p, 10000, *seed))
		fmt.Printf("%-26s exhaustive: %v\n", c.label, ex)
		fmt.Printf("%-26s montecarlo: %v\n", c.label, mc)
		// The FTI is the exact single-fault survival rate, so the
		// exhaustive rate doubles as the predicted ("paper") value for
		// the Monte-Carlo estimate.
		ms = append(ms, measurement{
			Name:     c.slug + "_mc_survival",
			Measured: dmfb.Round4(mc.SurvivalRate()),
			Paper:    dmfb.Round4(ex.SurvivalRate()),
		})
		for _, k := range []int{2, 3} {
			mk := must(dmfb.MonteCarloMultiFault(c.p, k, 2000, *seed))
			fmt.Printf("%-26s %d faults:   survived %.4f\n", c.label, k, mk.SurvivalRate())
			ms = append(ms, measurement{
				Name:     fmt.Sprintf("%s_%dfault_survival", c.slug, k),
				Measured: dmfb.Round4(mk.SurvivalRate()),
			})
		}
	}
	return ms
}
