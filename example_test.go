package dmfb_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"dmfb"
)

// Describe a bioassay, synthesise it, place it, check its fault
// tolerance, and run it on the chip simulator: the whole flow in one
// page.
func Example() {
	// 1. Describe the assay as a sequencing graph: mix a sample with a
	// reagent and measure the result.
	g := dmfb.NewAssay("quickstart")
	sample := g.AddOp("DispenseSample", dmfb.Dispense, "blood-plasma")
	reagent := g.AddOp("DispenseReagent", dmfb.Dispense, "glucose-oxidase")
	mix := g.AddOp("Mix", dmfb.Mix, "")
	det := g.AddOp("Measure", dmfb.Detect, "")
	g.MustEdge(sample, mix)
	g.MustEdge(reagent, mix)
	g.MustEdge(mix, det)
	if err := g.Validate(); err != nil {
		log.Fatal(err)
	}

	// 2. Architectural-level synthesis: bind to the Table 1 module
	// library and schedule.
	binding, err := dmfb.Bind(g, dmfb.Table1Library(), dmfb.BindFastest)
	if err != nil {
		log.Fatal(err)
	}
	sched, err := dmfb.ScheduleAssay(g, binding, dmfb.ScheduleOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(dmfb.RenderSchedule(sched))

	// 3. Placement: minimise the microfluidic array area with
	// simulated annealing (the paper's Section 4 placer).
	prob := dmfb.PlacementProblemOf(sched)
	placement, stats, err := dmfb.PlaceAnneal(prob, dmfb.PlacerOptions{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(dmfb.RenderPlacement(placement))
	fmt.Printf("placed in %d cost evaluations; array %.2f mm2\n",
		stats.Evaluations, dmfb.AreaMM2(placement.ArrayCells()))

	// 4. Fault tolerance: what fraction of single-cell faults can this
	// configuration survive by partial reconfiguration?
	fmt.Println(dmfb.ComputeFTI(placement))

	// 5. Execute on the chip simulator.
	res := dmfb.Simulate(sched, placement, dmfb.SimOptions{})
	if !res.Completed {
		log.Fatalf("assay failed: %s", res.FailReason)
	}
	fmt.Printf("assay completed in %d s (+%d ms droplet transport); product: %s\n",
		res.MakespanSec, res.TransportMS, res.ProductFluids[0])
	// Output:
	// schedule "quickstart", makespan 33s
	//         |012345678901234567890123456789012|
	// Mix     |111                              |
	// Measure |   222222222222222222222222222222|
	// array 6x4 = 24 cells
	// 111111
	// 111111
	// 111111
	// 111111
	//   1 = Mix  [0,0 6x4] [0,3)
	//   2 = Measure [0,0 3x3] [3,33)
	// placed in 66401 cost evaluations; array 54.00 mm2
	// FTI 0.0000 (0/24 cells C-covered on 6x4 array)
	// assay completed in 33 s (+140 ms droplet transport); product: blood-plasma+glucose-oxidase
}

// Inject a cell fault mid-run. On a fault-tolerant placement the
// simulator performs partial reconfiguration (paper Section 5.1): the
// modules using the failed cell are relocated by reprogramming
// electrodes, their droplets are re-routed, and the assay finishes.
// The same fault aborts the assay on the area-minimal placement.
func ExampleSimulate_faultRecovery() {
	sched, err := dmfb.PCRSchedule()
	if err != nil {
		log.Fatal(err)
	}
	prob := dmfb.PlacementProblemOf(sched)

	// Two designs for the same assay.
	minimal, _, err := dmfb.PlaceAnneal(prob, dmfb.PlacerOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	tolerant, err := dmfb.PlaceFaultTolerant(prob,
		dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
		dmfb.FTOptions{Beta: 60})
	if err != nil {
		log.Fatal(err)
	}

	for _, c := range []struct {
		label string
		p     *dmfb.Placement
	}{
		{"area-minimal placement", minimal},
		{"fault-tolerant placement (beta=60)", tolerant.Final},
	} {
		cov := dmfb.ComputeFTI(c.p)
		fmt.Printf("=== %s: %d cells, FTI %.4f ===\n", c.label, c.p.ArrayCells(), cov.FTI())

		// Fail the cell used by the most modules: the most disruptive
		// single fault.
		fault := busiestCell(c.p)
		res := dmfb.Simulate(sched, c.p, dmfb.SimOptions{},
			dmfb.FaultInjection{TimeSec: 2, Cell: dmfb.ArrayCell(dmfb.SimOptions{}, fault)})
		fmt.Printf("fault injected at array cell %v at t=2s\n", fault)
		if res.Completed {
			fmt.Printf("RECOVERED: %d relocation(s), assay finished in %d s (+%d ms transport)\n",
				len(res.Relocations), res.MakespanSec, res.TransportMS)
			for _, r := range res.Relocations {
				fmt.Println("  ", r)
			}
			fmt.Println("  master mix:", res.ProductFluids[0])
		} else {
			fmt.Printf("ABORTED: %s\n", res.FailReason)
		}
		fmt.Println()
	}
	// Output:
	// === area-minimal placement: 63 cells, FTI 0.2857 ===
	// fault injected at array cell (5,4) at t=2s
	// ABORTED: partial reconfiguration failed for M2: reconfig: module M2 (3x6) cannot be relocated for fault at (5,4): no accommodating empty rectangle
	//
	// === fault-tolerant placement (beta=60): 80 cells, FTI 0.9875 ===
	// fault injected at array cell (5,5) at t=2s
	// RECOVERED: 4 relocation(s), assay finished in 19 s (+1430 ms transport)
	//    module 1: [4,4 3x6] -> [0,7 6x3] (fault at (5,5))
	//    module 3: [5,4 3x6] -> [0,7 6x3] (fault at (5,5))
	//    module 4: [5,0 3x6] -> [0,4 3x6] (fault at (5,5))
	//    module 6: [2,5 6x4] -> [0,6 6x4] (fault at (5,5))
	//   master mix: tris-hcl+kcl+gelatin+primer+dntp+amplitaq+mgcl2+dna
}

// busiestCell returns the array cell used by the most modules.
func busiestCell(p *dmfb.Placement) dmfb.Point {
	array := p.BoundingBox()
	best, bestN := dmfb.Point{}, 0
	for y := 0; y < array.H; y++ {
		for x := 0; x < array.W; x++ {
			cell := dmfb.Point{X: array.X + x, Y: array.Y + y}
			if n := len(p.ModulesAt(cell)); n > bestN {
				best, bestN = cell, n
			}
		}
	}
	return best
}

// Detect a defect with a test droplet (the paper's references [13],
// [14]): a faulty electrode cannot pull the droplet onto itself, so the
// droplet sticks and the capacitive sensor at the sink never sees it
// arrive. The located fault then drives partial reconfiguration of the
// placement, closing the detect -> reconfigure -> continue loop.
func ExampleTestArrayOnline() {
	sched, err := dmfb.PCRSchedule()
	if err != nil {
		log.Fatal(err)
	}
	two, err := dmfb.PlaceFaultTolerant(dmfb.PlacementProblemOf(sched),
		dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
		dmfb.FTOptions{Beta: 60})
	if err != nil {
		log.Fatal(err)
	}
	p := two.Final
	array := p.BoundingBox()

	// Manufacture the chip for this placement and run the post-
	// fabrication structural test.
	chip := dmfb.NewChip(array.W, array.H)
	fmt.Println("post-fabrication test:", dmfb.TestArray(chip))

	// A defect appears during field operation; an off-assay sweep
	// detects and localises it.
	chip.InjectFault(dmfb.Point{X: array.X + 2, Y: array.Y + 2})
	rep := dmfb.TestArray(chip)
	fmt.Println("field test:", rep)

	// On-line variant: the same sweep skipping the module regions, so
	// it can run concurrently with the assay.
	var keepOut []dmfb.Rect
	for i := range p.Modules {
		keepOut = append(keepOut, p.Rect(i))
	}
	fmt.Println("concurrent test (modules masked):", dmfb.TestArrayOnline(chip, keepOut))

	// The localised fault drives partial reconfiguration.
	work := p.Clone()
	rels, err := dmfb.Recover(work, array, rep.FaultCell)
	if err != nil {
		log.Fatalf("reconfiguration failed: %v", err)
	}
	fmt.Printf("reconfigured %d module(s) away from %v:\n", len(rels), rep.FaultCell)
	for _, r := range rels {
		fmt.Println("  ", r)
	}
	fmt.Println("\nplacement after recovery:")
	fmt.Print(dmfb.RenderPlacement(work))

	// Multi-fault localisation: two more defects accumulate.
	chip.InjectFault(dmfb.Point{X: array.X, Y: array.Y})
	chip.InjectFault(dmfb.Point{X: array.X + 4, Y: array.Y + 1})
	fmt.Println("all faults localised by repeated sweeps:", dmfb.LocateAllFaults(chip))
	// Output:
	// post-fabrication test: PASS: 80/80 cells fault-free (80 steps)
	// field test: FAULT at (2,2) after testing 18/80 cells (19 steps)
	// concurrent test (modules masked): PASS: 12/80 cells fault-free (12 steps)
	// reconfigured 2 module(s) away from (2,2):
	//    module 2: [0,0 4x5] -> [0,5 4x5] (fault at (2,2))
	//    module 5: [0,0 4x4] -> [0,6 4x4] (fault at (2,2))
	//
	// placement after recovery:
	// array 8x10 = 80 cells
	// 33332444
	// 33332444
	// 33332444
	// 33332444
	// 33332444
	// ....2444
	// ....1111
	// ....1111
	// ....1111
	// ....1111
	//   1 = M1   [4,0 4x4] [0,10)
	//   2 = M2   [4,4 3x6] [5,10)
	//   3 = M3   [0,5 4x5] [0,6)
	//   4 = M4   [5,4 3x6] [0,5)
	//   5 = M5   [5,0 3x6] [10,15)
	//   6 = M6   [0,6 4x4] [6,16)
	//   7 = M7   [2,5 6x4] [16,19)
	// all faults localised by repeated sweeps: [(0,0) (4,1) (2,2)]
}

// Four droplets cross a 12×8 array simultaneously (two of them
// swapping ends head-on) around a dead electrode, under the
// electrowetting separation constraints. The plan is then compiled
// into the per-control-step electrode activation program a DMFB
// microcontroller would execute.
func ExamplePlanDropletRoutes() {
	const w, h = 12, 8
	chip := dmfb.NewChip(w, h)
	dead := dmfb.Point{X: 6, Y: 3}
	chip.InjectFault(dead)
	fmt.Printf("array %dx%d with a dead electrode at %v\n\n", w, h, dead)

	eps := []dmfb.RouteEndpoint{
		{From: dmfb.Point{X: 0, Y: 0}, To: dmfb.Point{X: 11, Y: 7}}, // diagonal
		{From: dmfb.Point{X: 11, Y: 7}, To: dmfb.Point{X: 0, Y: 0}}, // head-on swap with the first
		{From: dmfb.Point{X: 0, Y: 4}, To: dmfb.Point{X: 11, Y: 4}}, // straight through the middle
		{From: dmfb.Point{X: 11, Y: 0}, To: dmfb.Point{X: 0, Y: 7}}, // crossing diagonal
	}
	plan, err := dmfb.PlanDropletRoutes(chip, eps, dmfb.RouteOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := dmfb.ValidateDropletRoutes(chip, eps, plan, nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("all %d droplets arrive after %d control steps (%d ms), %d cell moves total\n",
		len(eps), plan.Makespan, plan.Makespan*10, plan.Steps())

	// Synchronised snapshots, top row first.
	for _, t := range []int{0, plan.Makespan / 2, plan.Makespan} {
		rows := make([][]byte, h)
		for y := range rows {
			rows[y] = []byte(strings.Repeat(".", w))
		}
		rows[dead.Y][dead.X] = '#'
		for i, path := range plan.Paths {
			rows[path[t].Y][path[t].X] = byte('A' + i)
		}
		fmt.Printf("\nt = %d steps:\n", t)
		for y := h - 1; y >= 0; y-- {
			fmt.Println(string(rows[y]))
		}
	}

	// Compile to electrode actuation.
	prog, err := dmfb.CompileActuation(plan, w, h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nactuation program: %d frames (%d ms); first three:\n",
		len(prog.Frames), prog.DurationMS())
	for _, f := range prog.Frames[:3] {
		fmt.Println(" ", f)
	}

	// And the mixing pattern a 2x4 mixer module would run afterwards.
	frames, err := dmfb.MixerActuation(dmfb.Rect{X: 2, Y: 2, W: 4, H: 2}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmixer actuation (one lap of a 2x4 functional region): %d frames\n", len(frames))
	for _, f := range frames {
		fmt.Println(" ", f)
	}
	// Output:
	// array 12x8 with a dead electrode at (6,3)
	//
	// all 4 droplets arrive after 19 control steps (190 ms), 69 cell moves total
	//
	// t = 0 steps:
	// ...........B
	// ............
	// ............
	// C...........
	// ......#.....
	// ............
	// ............
	// A..........D
	//
	// t = 9 steps:
	// ..B.........
	// ............
	// ............
	// .........C..
	// ......#.....
	// ....D.......
	// ............
	// .........A..
	//
	// t = 19 steps:
	// D..........A
	// ............
	// ............
	// ...........C
	// ......#.....
	// ............
	// ............
	// B...........
	//
	// actuation program: 20 frames (200 ms); first three:
	//   step 0: (1,0) (10,0) (1,4) (10,7)
	//   step 1: (2,0) (9,0) (2,4) (9,7)
	//   step 2: (3,0) (8,0) (3,4) (8,7)
	//
	// mixer actuation (one lap of a 2x4 functional region): 8 frames
	//   step 0: (2,2)
	//   step 1: (3,2)
	//   step 2: (4,2)
	//   step 3: (5,2)
	//   step 4: (5,3)
	//   step 5: (4,3)
	//   step 6: (3,3)
	//   step 7: (2,3)
}

// Run a randomized multi-fault campaign against a PCR placement on the
// campaign engine's worker pool, and show the two properties the
// engine guarantees. The same seed yields a byte-identical summary at
// any worker count. A checkpointed campaign killed mid-flight resumes
// where it stopped, and its summary matches an uninterrupted run.
// Finally the measured single-fault survival is compared against the
// placement's fault tolerance index (paper Section 5.2), with a Wilson
// 95% interval quantifying the Monte-Carlo error.
func ExampleRunCampaign() {
	sched, err := dmfb.PCRSchedule()
	if err != nil {
		log.Fatal(err)
	}
	p, _, err := dmfb.PlaceAnneal(dmfb.PlacementProblemOf(sched),
		dmfb.PlacerOptions{Seed: 2, ItersPerModule: 120, WindowPatience: 4})
	if err != nil {
		log.Fatal(err)
	}
	predicted := dmfb.ComputeFTI(p).FTI()
	fmt.Printf("PCR placement, predicted FTI %.4f\n\n", predicted)

	ctx := context.Background()
	trial := dmfb.MultiFaultTrial(p, 2, false, dmfb.PlacerOptions{})
	summaryBytes := func(rep dmfb.CampaignReport) string {
		b, err := rep.Summary.MarshalDeterministic()
		if err != nil {
			log.Fatal(err)
		}
		return string(b)
	}

	// 1. Same seed, different worker counts -> identical summaries.
	fmt.Println("— determinism across worker counts —")
	var first string
	for _, workers := range []int{1, 2, 4} {
		rep, err := dmfb.RunCampaign(ctx,
			dmfb.CampaignConfig{Name: "multi-k2", Trials: 4000, Seed: 7, Workers: workers}, trial)
		if err != nil {
			log.Fatal(err)
		}
		if first == "" {
			first = summaryBytes(rep)
		}
		fmt.Printf("workers=%d: %s\n  byte-identical to workers=1: %v\n",
			rep.Workers, rep.Summary, summaryBytes(rep) == first)
	}

	// 2. Kill a checkpointed campaign a third of the way in, then
	// resume it. One worker makes the kill point exact: no other trial
	// is in flight when the progress callback cancels.
	fmt.Println("\n— checkpoint and resume —")
	dir, err := os.MkdirTemp("", "campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "multi.jsonl")

	killCtx, kill := context.WithCancel(ctx)
	defer kill()
	cfg := dmfb.CampaignConfig{
		Name: "multi-k2", Trials: 4000, Seed: 7, Workers: 1, Checkpoint: ckpt,
		Progress: func(done, total int) {
			if done == total/3 {
				kill()
			}
		},
	}
	if _, err := dmfb.RunCampaign(killCtx, cfg, trial); err != nil {
		fmt.Println("interrupted:", err)
	}
	resumed, err := dmfb.RunCampaign(ctx, dmfb.CampaignConfig{
		Name: "multi-k2", Trials: 4000, Seed: 7, Checkpoint: ckpt, Resume: true}, trial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed %d trials from checkpoint, finished: %s\n", resumed.Resumed, resumed.Summary)
	fmt.Println("byte-identical to the uninterrupted run:", summaryBytes(resumed) == first)

	// 3. Measurement vs theory: single-fault survival estimates the FTI.
	fmt.Println("\n— single-fault survival vs FTI —")
	rep, err := dmfb.RunCampaign(ctx,
		dmfb.CampaignConfig{Name: "single", Trials: 20000, Seed: 1}, dmfb.SingleFaultTrial(p))
	if err != nil {
		log.Fatal(err)
	}
	s := rep.Summary
	fmt.Printf("measured %.4f, 95%% Wilson CI [%.4f, %.4f], predicted FTI %.4f\n",
		s.SurvivalRate, s.Wilson95Lo, s.Wilson95Hi, predicted)
	fmt.Println("FTI inside the confidence interval:", s.Wilson95Lo <= predicted && predicted <= s.Wilson95Hi)
	// Output:
	// PCR placement, predicted FTI 0.7792
	//
	// — determinism across worker counts —
	// workers=1: multi-k2: survived 1781/4000 (0.4452, 95% CI [0.4299, 0.4607], 0 errors)
	//   byte-identical to workers=1: true
	// workers=2: multi-k2: survived 1781/4000 (0.4452, 95% CI [0.4299, 0.4607], 0 errors)
	//   byte-identical to workers=1: true
	// workers=4: multi-k2: survived 1781/4000 (0.4452, 95% CI [0.4299, 0.4607], 0 errors)
	//   byte-identical to workers=1: true
	//
	// — checkpoint and resume —
	// interrupted: campaign: interrupted after 1333/4000 trials: context canceled
	// resumed 1333 trials from checkpoint, finished: multi-k2: survived 1781/4000 (0.4452, 95% CI [0.4299, 0.4607], 0 errors)
	// byte-identical to the uninterrupted run: true
	//
	// — single-fault survival vs FTI —
	// measured 0.7784, 95% Wilson CI [0.7726, 0.7841], predicted FTI 0.7792
	// FTI inside the confidence interval: true
}

// The fault tolerance index is the fraction of C-covered cells (paper
// Section 5.2), so under the uniform single-fault model it equals the
// probability that a random fault is survivable by partial
// reconfiguration. This validates that by Monte-Carlo injection across
// placements of varying FTI, and extends the analysis to two and three
// accumulated faults, beyond the paper's single-fault assumption: the
// table of EXPERIMENTS.md E10.
func ExampleMonteCarloMultiFault() {
	sched, err := dmfb.PCRSchedule()
	if err != nil {
		log.Fatal(err)
	}
	prob := dmfb.PlacementProblemOf(sched)

	// Placements across the fault-tolerance spectrum.
	minimal, _, err := dmfb.PlaceAnneal(prob, dmfb.PlacerOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	labels := []string{"area-minimal"}
	designs := []*dmfb.Placement{minimal}
	for _, beta := range []float64{20, 40, 60} {
		two, err := dmfb.PlaceFaultTolerant(prob,
			dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
			dmfb.FTOptions{Beta: beta})
		if err != nil {
			log.Fatal(err)
		}
		labels = append(labels, fmt.Sprintf("two-stage beta=%.0f", beta))
		designs = append(designs, two.Final)
	}

	fmt.Printf("%-22s %8s %12s %12s %10s %10s\n",
		"design", "cells", "FTI", "MC(1 fault)", "MC(2)", "MC(3)")
	for i, p := range designs {
		single, err := dmfb.MonteCarloSingleFault(p, 20000, 7)
		if err != nil {
			log.Fatal(err)
		}
		two, err := dmfb.MonteCarloMultiFault(p, 2, 4000, 7)
		if err != nil {
			log.Fatal(err)
		}
		three, err := dmfb.MonteCarloMultiFault(p, 3, 4000, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8d %12.4f %12.4f %10.4f %10.4f\n",
			labels[i], p.ArrayCells(), single.PredictedFTI,
			single.SurvivalRate(), two.SurvivalRate(), three.SurvivalRate())
	}
	// Output:
	// design                    cells          FTI  MC(1 fault)      MC(2)      MC(3)
	// area-minimal                 63       0.2857       0.2838     0.0498     0.0085
	// two-stage beta=20            60       0.2000       0.1981     0.0147     0.0010
	// two-stage beta=40            80       1.0000       1.0000     0.6755     0.3570
	// two-stage beta=60            80       0.9875       0.9876     0.6175     0.3125
}

// Extend the paper's uniform single-fault model to a defect-density
// model: every cell of the fabricated array fails independently with
// probability q. Yield is the fraction of chips each design can still
// operate, with partial reconfiguration alone and with full
// re-placement as a fallback. This quantifies the safety-critical
// argument of Section 6.3: the extra area a large β buys is what keeps
// yield high as defect density rises. The table of EXPERIMENTS.md E13.
func ExampleEstimateYield() {
	sched, err := dmfb.PCRSchedule()
	if err != nil {
		log.Fatal(err)
	}
	prob := dmfb.PlacementProblemOf(sched)

	minimal, _, err := dmfb.PlaceAnneal(prob, dmfb.PlacerOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	tolerant, err := dmfb.PlaceFaultTolerant(prob,
		dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
		dmfb.FTOptions{Beta: 60})
	if err != nil {
		log.Fatal(err)
	}

	light := dmfb.PlacerOptions{Seed: 1, ItersPerModule: 60, WindowPatience: 3}
	densities := []float64{0.002, 0.01, 0.03, 0.08}
	const trials = 150

	fmt.Printf("%-28s", "design \\ defect density q")
	for _, q := range densities {
		fmt.Printf("%10.3f", q)
	}
	fmt.Println()
	for _, d := range []struct {
		label    string
		p        *dmfb.Placement
		withFull bool
	}{
		{"area-minimal, partial", minimal, false},
		{"fault-tolerant, partial", tolerant.Final, false},
		{"area-minimal, +full", minimal, true},
		{"fault-tolerant, +full", tolerant.Final, true},
	} {
		fmt.Printf("%-28s", d.label)
		for _, q := range densities {
			y, err := dmfb.EstimateYield(d.p, q, trials, 11, d.withFull, light)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10.3f", y.SurvivalRate())
		}
		fmt.Println()
	}
	// Output:
	// design \ defect density q        0.002     0.010     0.030     0.080
	// area-minimal, partial            0.867     0.640     0.160     0.000
	// fault-tolerant, partial          1.000     0.913     0.600     0.040
	// area-minimal, +full              0.913     0.753     0.260     0.013
	// fault-tolerant, +full            1.000     0.953     0.720     0.113
}
