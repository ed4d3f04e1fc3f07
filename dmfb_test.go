package dmfb

import (
	"math"
	"math/big"
	"strings"
	"testing"

	"dmfb/internal/faultsim"
	"dmfb/internal/format"
	"dmfb/internal/invitro"
	"dmfb/internal/mixcalc"
	"dmfb/internal/render"
	"dmfb/internal/schedule"
)

// TestPublicAPIEndToEnd drives the whole flow through the facade:
// assay -> binding -> schedule -> placement -> FTI -> recovery ->
// simulation, the way a downstream user would.
func TestPublicAPIEndToEnd(t *testing.T) {
	// 1. Describe an assay.
	g := NewAssay("demo")
	d1 := g.AddOp("D1", Dispense, "sample")
	d2 := g.AddOp("D2", Dispense, "reagent")
	m := g.AddOp("M", Mix, "")
	g.MustEdge(d1, m)
	g.MustEdge(d2, m)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	// 2. Synthesise.
	b, err := Bind(g, Table1Library(), BindFastest)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScheduleAssay(g, b, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 3 { // fastest mixer is the 3 s 2x4 array
		t.Errorf("makespan = %d", s.Makespan)
	}

	// 3. Place.
	prob := PlacementProblemOf(s)
	p, stats, err := PlaceAnneal(prob, PlacerOptions{Seed: 1, ItersPerModule: 50, WindowPatience: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evaluations == 0 {
		t.Error("no annealing work recorded")
	}

	// 4. Analyse and operate.
	r := ComputeFTI(p)
	if r.Total != p.ArrayCells() {
		t.Error("FTI total != array cells")
	}
	res := Simulate(s, p, SimOptions{})
	if !res.Completed {
		t.Fatalf("simulation failed: %s", res.FailReason)
	}
	if !strings.Contains(res.ProductFluids[0], "sample") {
		t.Errorf("product = %v", res.ProductFluids)
	}
}

func TestPCRCaseStudyThroughFacade(t *testing.T) {
	g, mix := PCRAssay()
	if g.NumOps() != 15 || len(mix) != 7 {
		t.Fatal("PCR graph shape wrong")
	}
	s, err := PCRSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 19 {
		t.Errorf("PCR makespan = %d, want 19", s.Makespan)
	}
	if AreaMM2(63) != 141.75 {
		t.Error("AreaMM2 wrong")
	}
	if CellPitchMM != 1.5 {
		t.Error("pitch wrong")
	}
}

func TestFacadeRecoverAndRender(t *testing.T) {
	s, _ := PCRSchedule()
	prob := PlacementProblemOf(s)
	res, err := PlaceFaultTolerant(prob,
		PlacerOptions{Seed: 5, ItersPerModule: 120, WindowPatience: 4}, FTOptions{Beta: 50})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Final
	cov := ComputeFTI(p)
	if cov.FTI() <= 0 {
		t.Fatal("fault-tolerant placement has zero FTI")
	}
	// Recover from a covered fault.
	array := p.BoundingBox()
	var fault Point
	found := false
	for y := 0; y < array.H && !found; y++ {
		for x := 0; x < array.W && !found; x++ {
			pt := Point{X: array.X + x, Y: array.Y + y}
			if cov.CoveredAt(x, y) && len(p.ModulesAt(pt)) > 0 {
				fault = pt
				found = true
			}
		}
	}
	if !found {
		t.Skip("no covered module cell")
	}
	work := p.Clone()
	rels, err := Recover(work, array, fault)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("no relocation")
	}
	// Renderers produce non-trivial output.
	if !strings.Contains(RenderPlacement(p), "array") {
		t.Error("RenderPlacement empty")
	}
	if !strings.Contains(RenderPlacementSVG(p, 16), "<svg") {
		t.Error("SVG missing")
	}
	if !strings.Contains(RenderSchedule(s), "M7") {
		t.Error("schedule render missing ops")
	}
	if !strings.Contains(RenderCoverage(cov), "FTI") {
		t.Error("coverage render missing header")
	}
}

func TestFacadeSerialisationRoundTrip(t *testing.T) {
	s, _ := PCRSchedule()
	prob := PlacementProblemOf(s)
	p, err := PlaceGreedy(prob, true)
	if err != nil {
		t.Fatal(err)
	}
	data, err := MarshalPlacement(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := format.UnmarshalPlacement(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.ArrayCells() != p.ArrayCells() {
		t.Error("round trip changed area")
	}
	gd, err := format.MarshalGraph(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalAssay(gd); err != nil {
		t.Fatal(err)
	}
	sd, err := MarshalSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := format.UnmarshalSchedule(sd, Table1Library()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFaultCampaigns(t *testing.T) {
	s, _ := PCRSchedule()
	prob := PlacementProblemOf(s)
	p, _, err := PlaceAnneal(prob, PlacerOptions{Seed: 1, ItersPerModule: 100, WindowPatience: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex := ExhaustiveSingleFault(p)
	if math.Abs(ex.SurvivalRate()-ex.PredictedFTI) > 1e-12 {
		t.Error("exhaustive campaign does not match FTI")
	}
	mc, err := MonteCarloSingleFault(p, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mc.SurvivalRate()-mc.PredictedFTI) > 0.1 {
		t.Errorf("Monte-Carlo %.3f far from FTI %.3f", mc.SurvivalRate(), mc.PredictedFTI)
	}
	multi, err := MonteCarloMultiFault(p, 2, 200, 2)
	if err != nil {
		t.Fatal(err)
	}
	if multi.SurvivalRate() > mc.SurvivalRate()+0.1 {
		t.Error("two faults survive more often than one")
	}
	// An empty campaign is an error, not a panic.
	if _, err := MonteCarloMultiFault(p, 2, 0, 1); err == nil {
		t.Error("zero-trial multi-fault campaign accepted")
	}
	if _, err := MonteCarloSingleFault(p, -1, 1); err == nil {
		t.Error("negative-trial single-fault campaign accepted")
	}
	if _, err := EstimateYield(p, 0.01, 0, 1, false, PlacerOptions{}); err == nil {
		t.Error("zero-trial yield campaign accepted")
	}
}

func TestFacadeChipTesting(t *testing.T) {
	c := NewChip(7, 9)
	if rep := TestArray(c); rep.Faulty {
		t.Fatal("healthy chip reported faulty")
	}
	c.InjectFault(Point{X: 3, Y: 4})
	rep := TestArray(c)
	if !rep.Faulty || rep.FaultCell != (Point{X: 3, Y: 4}) {
		t.Fatalf("fault not localised: %v", rep)
	}
	faults := LocateAllFaults(c)
	if len(faults) != 1 || faults[0] != (Point{X: 3, Y: 4}) {
		t.Fatalf("LocateAllFaults = %v", faults)
	}
	online := TestArrayOnline(c, []Rect{{X: 2, Y: 3, W: 4, H: 4}})
	if online.Faulty {
		t.Error("online test should skip the occupied region")
	}
}

func TestInVitroThroughFacade(t *testing.T) {
	s, err := invitro.Synthesize(2, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.BoundItems()) != 8 {
		t.Errorf("bound items = %d", len(s.BoundItems()))
	}
	if Round4(0.80524) != 0.8052 {
		t.Error("Round4 wrong")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// Parallel multi-start placement.
	s, _ := PCRSchedule()
	prob := PlacementProblemOf(s)
	light := PlacerOptions{Seed: 1, ItersPerModule: 80, WindowPatience: 3}
	multi := light
	multi.Search = SearchOptions{Starts: 3}
	p, _, err := PlaceAnneal(prob, multi)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	// Concentration analysis.
	g, mix := PCRAssay()
	comp, err := mixcalc.Concentrations(g)
	if err != nil {
		t.Fatal(err)
	}
	frac := comp.PerOp[mix[6]].Fraction("dna")
	if frac.Cmp(bigRat(1, 8)) != 0 {
		t.Errorf("dna fraction = %s, want 1/8", frac.RatString())
	}

	// Concurrent routing + actuation.
	chip := NewChip(9, 6)
	eps := []RouteEndpoint{
		{From: Point{X: 0, Y: 0}, To: Point{X: 8, Y: 5}},
		{From: Point{X: 8, Y: 0}, To: Point{X: 0, Y: 5}},
	}
	plan, err := PlanDropletRoutes(chip, eps, RouteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateDropletRoutes(chip, eps, plan, nil); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileActuation(plan, 9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if prog.DurationMS() == 0 {
		t.Error("empty actuation program")
	}
	if _, err := MixerActuation(Rect{X: 0, Y: 0, W: 3, H: 2}, 2); err != nil {
		t.Fatal(err)
	}

	// Yield.
	y, err := EstimateYield(p, 0.01, 40, 1, false, light)
	if err != nil {
		t.Fatal(err)
	}
	if y.Trials != 40 {
		t.Error("yield campaign wrong size")
	}
	lo, hi := y.ConfidenceInterval95()
	if lo > y.SurvivalRate() || hi < y.SurvivalRate() {
		t.Error("confidence interval excludes its own point estimate")
	}

	// Multi-fault with full fallback never loses to partial-only.
	mfPartial, err := MonteCarloMultiFault(p, 2, 60, 4)
	if err != nil {
		t.Fatal(err)
	}
	mfFull, err := faultsim.Run(ComputeFTI(p).FTI(), 60, 4, MultiFaultTrial(p, 2, true, light), nil)
	if err != nil {
		t.Fatal(err)
	}
	if mfFull.Survived < mfPartial.Survived {
		t.Error("full fallback below partial-only")
	}

	// Gantt SVG + slack at the critical-path deadline (19 s with the
	// fastest-mixer binding: mix 3 s + detect... here pure mixes).
	if !strings.Contains(render.GanttSVG(s, 0), "<svg") {
		t.Error("Gantt SVG missing")
	}
	gg, _ := PCRAssay()
	bb, err := Bind(gg, Table1Library(), BindFastest)
	if err != nil {
		t.Fatal(err)
	}
	// With every mix bound to the 3 s mixer the critical path is 9 s.
	slack, err := schedule.Slack(gg, bb, ScheduleOptions{}, 9)
	if err != nil {
		t.Fatal(err)
	}
	zero := 0
	for _, v := range slack {
		if v < 0 {
			t.Errorf("negative slack %d", v)
		}
		if v == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Error("no critical-path operations found")
	}
}

func bigRat(a, b int64) *big.Rat { return big.NewRat(a, b) }
