// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 6), plus ablations of the annealer's design
// choices and scaling runs on the in-vitro workload. Each benchmark
// attaches its headline quantity as a custom metric (cells, FTI, …),
// so `go test -bench=. -benchmem` reproduces the experiment table:
//
//	E1 Table 1   -> BenchmarkTable1ResourceBinding
//	E2 Figure 5  -> BenchmarkFigure5SequencingGraph
//	E3 Figure 6  -> BenchmarkFigure6Schedule
//	E4 §6.1      -> BenchmarkGreedyBaseline (paper: 84 cells)
//	E5 Figure 7  -> BenchmarkFigure7AnnealingPlacement (paper: 63 cells)
//	E6 §6.2 FTI  -> BenchmarkFTIFastAlgorithm / BenchmarkFTIExhaustiveOracle
//	E7 Figure 8  -> BenchmarkFigure8TwoStagePlacement (paper: 77 cells, FTI 0.8052)
//	E8 Table 2   -> BenchmarkTable2BetaSweep
//	E9 §5.1      -> BenchmarkPartialReconfiguration, BenchmarkSimulation*
//	E10 ext.     -> BenchmarkMonteCarloSurvival
//	E11 ablation -> BenchmarkAblation*
package dmfb

import (
	"sync"
	"testing"

	"dmfb/internal/faultsim"
	"dmfb/internal/invitro"
)

// fixtures are shared across benchmarks; built once.
var fixtureOnce sync.Once
var fx struct {
	sched    *Schedule
	prob     PlacementProblem
	greedy   *Placement
	minimal  *Placement
	tolerant *Placement
}

func fixtures(b *testing.B) {
	b.Helper()
	defer b.ResetTimer() // fixture construction must not count
	fixtureOnce.Do(func() {
		var err error
		fx.sched, err = PCRSchedule()
		if err != nil {
			panic(err)
		}
		fx.prob = PlacementProblemOf(fx.sched)
		fx.greedy, err = PlaceGreedy(fx.prob, true)
		if err != nil {
			panic(err)
		}
		fx.minimal, _, err = PlaceAnneal(fx.prob, PlacerOptions{Seed: 1})
		if err != nil {
			panic(err)
		}
		res, err := PlaceFaultTolerant(fx.prob, PlacerOptions{Seed: 1}, FTOptions{Beta: 30})
		if err != nil {
			panic(err)
		}
		fx.tolerant = res.Final
	})
}

// BenchmarkTable1ResourceBinding regenerates the Table 1 binding by
// synthesising the PCR case study (binding + scheduling).
func BenchmarkTable1ResourceBinding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := PCRSchedule()
		if err != nil {
			b.Fatal(err)
		}
		if len(s.BoundItems()) != 7 {
			b.Fatal("binding incomplete")
		}
	}
}

// BenchmarkFigure5SequencingGraph builds and validates the PCR graph.
func BenchmarkFigure5SequencingGraph(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g, _ := PCRAssay()
		if err := g.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure6Schedule measures area-constrained list scheduling;
// the makespan_s metric is the schedule length (19 s for our
// regenerated Figure 6).
func BenchmarkFigure6Schedule(b *testing.B) {
	var makespan int
	for i := 0; i < b.N; i++ {
		s, err := PCRSchedule()
		if err != nil {
			b.Fatal(err)
		}
		makespan = s.Makespan
	}
	b.ReportMetric(float64(makespan), "makespan_s")
}

// BenchmarkGreedyBaseline is the Section 6.1 baseline placer.
// Paper: 84 cells = 189 mm².
func BenchmarkGreedyBaseline(b *testing.B) {
	fixtures(b)
	var cells int
	for i := 0; i < b.N; i++ {
		p, err := PlaceGreedy(fx.prob, true)
		if err != nil {
			b.Fatal(err)
		}
		cells = p.ArrayCells()
	}
	b.ReportMetric(float64(cells), "cells")
	b.ReportMetric(AreaMM2(cells), "area_mm2")
}

// BenchmarkGreedyTimeOblivious is the reconfiguration-unaware variant
// (upper bound on the paper's under-specified baseline).
func BenchmarkGreedyTimeOblivious(b *testing.B) {
	fixtures(b)
	var cells int
	for i := 0; i < b.N; i++ {
		p, err := PlaceGreedy(fx.prob, false)
		if err != nil {
			b.Fatal(err)
		}
		cells = p.ArrayCells()
	}
	b.ReportMetric(float64(cells), "cells")
	b.ReportMetric(AreaMM2(cells), "area_mm2")
}

// BenchmarkFigure7AnnealingPlacement is the Section 4 placer with the
// paper's annealing parameters. Paper: 63 cells = 141.75 mm² in 5 min
// on a 1 GHz Pentium III.
func BenchmarkFigure7AnnealingPlacement(b *testing.B) {
	fixtures(b)
	var cells int
	for i := 0; i < b.N; i++ {
		p, _, err := PlaceAnneal(fx.prob, PlacerOptions{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		cells = p.ArrayCells()
	}
	b.ReportMetric(float64(cells), "cells")
	b.ReportMetric(AreaMM2(cells), "area_mm2")
}

// BenchmarkFTIFastAlgorithm is the Section 5.3 FTI computation (the
// site-intersection form of its MER test) on the area-minimal
// placement. Paper: 1.7 s on a
// Pentium III; the metric reports the measured FTI.
func BenchmarkFTIFastAlgorithm(b *testing.B) {
	fixtures(b)
	var f float64
	for i := 0; i < b.N; i++ {
		f = ComputeFTI(fx.minimal).FTI()
	}
	b.ReportMetric(f, "fti")
}

// BenchmarkFTIExhaustiveOracle is the brute-force relocation search
// the fast algorithm is validated against — the speedup between the
// two benches is the payoff of pricing a module once instead of
// searching per faulty cell.
func BenchmarkFTIExhaustiveOracle(b *testing.B) {
	fixtures(b)
	var f float64
	for i := 0; i < b.N; i++ {
		f = ExhaustiveSingleFault(fx.minimal).SurvivalRate()
	}
	b.ReportMetric(f, "fti")
}

// BenchmarkFigure8TwoStagePlacement is the Section 6.2 enhanced
// placer at β = 30. Paper: 77 cells = 173.25 mm², FTI 0.8052, 20 min
// of CPU time.
func BenchmarkFigure8TwoStagePlacement(b *testing.B) {
	fixtures(b)
	var cells int
	var f float64
	for i := 0; i < b.N; i++ {
		res, err := PlaceFaultTolerant(fx.prob, PlacerOptions{Seed: 1}, FTOptions{Beta: 30})
		if err != nil {
			b.Fatal(err)
		}
		cells = res.Final.ArrayCells()
		f = ComputeFTI(res.Final).FTI()
	}
	b.ReportMetric(float64(cells), "cells")
	b.ReportMetric(AreaMM2(cells), "area_mm2")
	b.ReportMetric(f, "fti")
}

// BenchmarkTable2BetaSweep regenerates Table 2 (β = 10..60); metrics
// report the endpoints of the trade-off curve.
func BenchmarkTable2BetaSweep(b *testing.B) {
	fixtures(b)
	var pts []SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = BetaSweep(fx.prob, PlacerOptions{Seed: 1}, FTOptions{},
			[]float64{10, 20, 30, 40, 50, 60})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(AreaMM2(pts[0].Cells), "area10_mm2")
	b.ReportMetric(pts[0].FTI, "fti10")
	b.ReportMetric(AreaMM2(pts[len(pts)-1].Cells), "area60_mm2")
	b.ReportMetric(pts[len(pts)-1].FTI, "fti60")
}

// BenchmarkPartialReconfiguration measures one on-line recovery (plan
// plus apply) on the fault-tolerant placement.
func BenchmarkPartialReconfiguration(b *testing.B) {
	fixtures(b)
	array := fx.tolerant.BoundingBox()
	cov := ComputeFTI(fx.tolerant)
	var fault Point
	found := false
	for y := 0; y < array.H && !found; y++ {
		for x := 0; x < array.W && !found; x++ {
			pt := Point{X: array.X + x, Y: array.Y + y}
			if cov.CoveredAt(x, y) && len(fx.tolerant.ModulesAt(pt)) > 0 {
				fault = pt
				found = true
			}
		}
	}
	if !found {
		b.Skip("no covered module cell")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := fx.tolerant.Clone()
		if _, err := Recover(work, array, fault); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationFaultFree runs the full PCR assay on the chip
// simulator; transport_steps reports the droplet movement cost.
func BenchmarkSimulationFaultFree(b *testing.B) {
	fixtures(b)
	var steps int
	for i := 0; i < b.N; i++ {
		res := Simulate(fx.sched, fx.minimal, SimOptions{})
		if !res.Completed {
			b.Fatal(res.FailReason)
		}
		steps = res.TransportSteps
	}
	b.ReportMetric(float64(steps), "transport_steps")
}

// BenchmarkSimulationWithRecovery runs PCR with a mid-assay fault and
// on-line partial reconfiguration.
func BenchmarkSimulationWithRecovery(b *testing.B) {
	fixtures(b)
	array := fx.tolerant.BoundingBox()
	cov := ComputeFTI(fx.tolerant)
	var fault Point
	found := false
	for y := 0; y < array.H && !found; y++ {
		for x := 0; x < array.W && !found; x++ {
			pt := Point{X: array.X + x, Y: array.Y + y}
			if cov.CoveredAt(x, y) && len(fx.tolerant.ModulesAt(pt)) > 0 {
				fault = pt
				found = true
			}
		}
	}
	if !found {
		b.Skip("no covered module cell")
	}
	inj := FaultInjection{TimeSec: 1, Cell: ArrayCell(SimOptions{}, fault)}
	var relocs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Simulate(fx.sched, fx.tolerant, SimOptions{}, inj)
		if !res.Completed {
			b.Fatal(res.FailReason)
		}
		relocs = len(res.Relocations)
	}
	b.ReportMetric(float64(relocs), "relocations")
}

// BenchmarkMonteCarloSurvival measures 10k-fault survival sampling on
// the fault-tolerant placement (extension experiment E10); the metric
// confirms the rate matches the FTI.
func BenchmarkMonteCarloSurvival(b *testing.B) {
	fixtures(b)
	var rate float64
	for i := 0; i < b.N; i++ {
		mc, err := MonteCarloSingleFault(fx.tolerant, 10000, 7)
		if err != nil {
			b.Fatal(err)
		}
		rate = mc.SurvivalRate()
	}
	b.ReportMetric(rate, "survival")
	b.ReportMetric(ComputeFTI(fx.tolerant).FTI(), "fti")
}

// BenchmarkFullVsPartialReconfiguration measures the survival gain of
// full re-placement over partial reconfiguration under two sequential
// faults (extension experiment; the paper motivates partial by speed,
// this bench quantifies what the slow path buys).
func BenchmarkFullVsPartialReconfiguration(b *testing.B) {
	fixtures(b)
	light := PlacerOptions{Seed: 1, ItersPerModule: 60, WindowPatience: 3}
	var partial, full float64
	for i := 0; i < b.N; i++ {
		p, err := MonteCarloMultiFault(fx.tolerant, 2, 100, 5)
		if err != nil {
			b.Fatal(err)
		}
		f, err := faultsim.Run(ComputeFTI(fx.tolerant).FTI(), 100, 5, MultiFaultTrial(fx.tolerant, 2, true, light), nil)
		if err != nil {
			b.Fatal(err)
		}
		partial, full = p.SurvivalRate(), f.SurvivalRate()
	}
	b.ReportMetric(partial, "partial_survival")
	b.ReportMetric(full, "full_survival")
}

// Ablations (E11): each reruns the Figure 7 experiment with one design
// choice altered; the cells metric shows the quality impact.

// BenchmarkAblationMoveMix varies p, the probability of single-module
// displacement versus pair interchange (the paper determines the ratio
// experimentally; default p = 0.8).
func BenchmarkAblationMoveMix(b *testing.B) {
	fixtures(b)
	for _, p := range []float64{0.2, 0.5, 0.8, 0.95} {
		b.Run(pctName(p), func(b *testing.B) {
			var cells int
			for i := 0; i < b.N; i++ {
				pl, _, err := PlaceAnneal(fx.prob, PlacerOptions{Seed: 1, PSingle: p})
				if err != nil {
					b.Fatal(err)
				}
				cells = pl.ArrayCells()
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkAblationCooling varies the cooling factor α (paper: 0.9).
func BenchmarkAblationCooling(b *testing.B) {
	fixtures(b)
	for _, alpha := range []float64{0.8, 0.9, 0.95} {
		b.Run("a"+itoa(int(alpha*100)), func(b *testing.B) {
			var cells int
			for i := 0; i < b.N; i++ {
				pl, _, err := PlaceAnneal(fx.prob, PlacerOptions{Seed: 1, Alpha: alpha})
				if err != nil {
					b.Fatal(err)
				}
				cells = pl.ArrayCells()
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkAblationNoControllingWindow disables the controlling window
// (WindowT0 so small the window stays at full span until the very
// end), isolating the contribution of Section 4(c).
func BenchmarkAblationNoControllingWindow(b *testing.B) {
	fixtures(b)
	var cells int
	for i := 0; i < b.N; i++ {
		pl, _, err := PlaceAnneal(fx.prob, PlacerOptions{Seed: 1, WindowT0: 1e-6, WindowPatience: 1})
		if err != nil {
			b.Fatal(err)
		}
		cells = pl.ArrayCells()
	}
	b.ReportMetric(float64(cells), "cells")
}

// BenchmarkInVitroPlacement runs the annealing placer on the in-vitro
// diagnostics workload at growing sizes (scaling study).
func BenchmarkInVitroPlacement(b *testing.B) {
	for _, size := range []struct{ s, a int }{{2, 2}, {3, 3}, {4, 4}} {
		b.Run(sizeName(size.s, size.a), func(b *testing.B) {
			sched, err := invitro.Synthesize(size.s, size.a, 80)
			if err != nil {
				b.Fatal(err)
			}
			prob := PlacementProblemOf(sched)
			var cells int
			for i := 0; i < b.N; i++ {
				p, _, err := PlaceAnneal(prob, PlacerOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				cells = p.ArrayCells()
			}
			b.ReportMetric(float64(cells), "cells")
		})
	}
}

// BenchmarkDilutionTreePlacement places the exponential-dilution
// benchmark at growing depths (up to 31 modules at depth 4) — the
// stress test for the annealer's N = 400·Nm scaling.
func BenchmarkDilutionTreePlacement(b *testing.B) {
	for _, depth := range []int{2, 3, 4} {
		b.Run("depth"+itoa(depth), func(b *testing.B) {
			sched, err := invitro.SynthesizeTree(depth, 60)
			if err != nil {
				b.Fatal(err)
			}
			prob := PlacementProblemOf(sched)
			var cells int
			for i := 0; i < b.N; i++ {
				p, _, err := PlaceAnneal(prob, PlacerOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				cells = p.ArrayCells()
			}
			b.ReportMetric(float64(cells), "cells")
			b.ReportMetric(float64(len(prob.Modules)), "modules")
		})
	}
}

func pctName(v float64) string {
	return "p" + itoa(int(v*100))
}

func sizeName(s, a int) string {
	return itoa(s) + "x" + itoa(a)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
