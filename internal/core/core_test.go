package core

import (
	"math/rand"
	"testing"

	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
)

// lightOptions keeps unit tests fast; experiment-grade runs use the
// paper defaults (see bench_test.go at the repository root).
func lightOptions(seed int64) Options {
	return Options{Seed: seed, ItersPerModule: 150, WindowPatience: 5}
}

func pcrProblem() Problem {
	return FromSchedule(pcr.MustSchedule())
}

func mod(id int, name string, w, h, s, e int) place.Module {
	return place.Module{ID: id, Name: name, Size: geom.Size{W: w, H: h},
		Span: geom.Interval{Start: s, End: e}}
}

func TestNewProblemSizing(t *testing.T) {
	prob := NewProblem([]place.Module{mod(0, "A", 10, 2, 0, 5), mod(1, "B", 3, 3, 0, 5)})
	if prob.MaxW < 10 || prob.MaxH < 10 {
		t.Errorf("core area %dx%d cannot host the 10x2 module in both orientations",
			prob.MaxW, prob.MaxH)
	}
	if err := prob.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestProblemValidate(t *testing.T) {
	cases := []struct {
		name string
		prob Problem
	}{
		{"empty", Problem{MaxW: 10, MaxH: 10}},
		{"bad size", Problem{Modules: []place.Module{mod(0, "A", 0, 3, 0, 5)}, MaxW: 10, MaxH: 10}},
		{"empty span", Problem{Modules: []place.Module{mod(0, "A", 2, 2, 5, 5)}, MaxW: 10, MaxH: 10}},
		{"too big", Problem{Modules: []place.Module{mod(0, "A", 12, 12, 0, 5)}, MaxW: 10, MaxH: 10}},
	}
	for _, c := range cases {
		if err := c.prob.Validate(); err == nil {
			t.Errorf("%s: invalid problem accepted", c.name)
		}
	}
}

func TestGreedyBaselinePCR(t *testing.T) {
	prob := pcrProblem()
	for _, ta := range []bool{false, true} {
		p, err := Greedy(prob, ta)
		if err != nil {
			t.Fatalf("timeAware=%v: %v", ta, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("timeAware=%v invalid: %v", ta, err)
		}
	}
	// Time-oblivious greedy packs all modules disjointly: at least the
	// 130-cell module total. Time-aware exploits reconfiguration and
	// must do substantially better.
	oblivious, _ := Greedy(prob, false)
	aware, _ := Greedy(prob, true)
	if oblivious.ArrayCells() < 130 {
		t.Errorf("time-oblivious greedy %d cells < module total 130", oblivious.ArrayCells())
	}
	if aware.ArrayCells() >= oblivious.ArrayCells() {
		t.Errorf("time-aware greedy (%d) not better than oblivious (%d)",
			aware.ArrayCells(), oblivious.ArrayCells())
	}
	// Lower bound: the schedule's peak concurrent area is 54 cells.
	if aware.ArrayCells() < 54 {
		t.Errorf("greedy area %d beats the concurrency lower bound", aware.ArrayCells())
	}
}

func TestGreedyDeterministic(t *testing.T) {
	prob := pcrProblem()
	a, _ := Greedy(prob, true)
	b, _ := Greedy(prob, true)
	if a.String() != b.String() {
		t.Error("greedy not deterministic")
	}
}

func TestInitialPlacementFeasible(t *testing.T) {
	prob := pcrProblem()
	p := initialPlacement(prob)
	if err := p.Validate(); err != nil {
		t.Fatalf("constructive initial placement invalid: %v", err)
	}
	if !p.FitsIn(prob.MaxW, prob.MaxH+20) {
		t.Error("initial placement escapes core width")
	}
}

func TestWindowShrinksWithTemperature(t *testing.T) {
	o := Options{}.withDefaults()
	span := 17
	if got := window(areaT0, o.WindowT0, span); got != span {
		t.Errorf("window at T0 = %d, want full span %d", got, span)
	}
	if got := window(o.WindowT0/2, o.WindowT0, span); got >= span || got < 1 {
		t.Errorf("window at WindowT0/2 = %d", got)
	}
	if got := window(0.001, o.WindowT0, span); got != 1 {
		t.Errorf("window near zero = %d, want 1", got)
	}
	// Monotone non-increasing as T drops.
	prev := span + 1
	for _, T := range []float64{200, 100, 50, 25, 10, 5, 1, 0.1} {
		w := window(T, o.WindowT0, span)
		if w > prev {
			t.Fatalf("window grew as T dropped: %d -> %d at T=%v", prev, w, T)
		}
		prev = w
	}
}

func TestNeighborInvariants(t *testing.T) {
	prob := pcrProblem()
	o := Options{}.withDefaults()
	rng := rand.New(rand.NewSource(9))
	cur := initialPlacement(prob)
	for i := 0; i < 3000; i++ {
		T := []float64{10000, 100, 5, 0.1}[i%4]
		before := cur.String()
		next := neighbor(cur, prob, o, T, rng, i%2 == 0)
		// cur must be untouched (annealing keeps it as fallback).
		if cur.String() != before {
			t.Fatalf("neighbor mutated the current placement at iter %d", i)
		}
		// next stays in the core area.
		if !next.FitsIn(prob.MaxW, prob.MaxH) {
			t.Fatalf("neighbor escaped the core area:\n%s", next)
		}
		cur = next
	}
}

func TestAnnealAreaPCR(t *testing.T) {
	prob := pcrProblem()
	p, stats, err := AnnealArea(prob, lightOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	greedy, _ := Greedy(prob, true)
	if p.ArrayCells() > greedy.ArrayCells() {
		t.Errorf("SA (%d cells) worse than greedy (%d cells)",
			p.ArrayCells(), greedy.ArrayCells())
	}
	// The schedule's peak concurrent footprint (54 cells) is a hard
	// lower bound; the known-optimal hand packing achieves 63.
	if p.ArrayCells() < 54 {
		t.Errorf("SA area %d beats the lower bound 54", p.ArrayCells())
	}
	if p.ArrayCells() > 84 {
		t.Errorf("SA area %d worse than even the greedy baseline region", p.ArrayCells())
	}
	if stats.Evaluations == 0 || stats.Levels == 0 {
		t.Error("stats not populated")
	}
}

func TestAnnealAreaDeterministicPerSeed(t *testing.T) {
	prob := pcrProblem()
	a, _, err := AnnealArea(prob, lightOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := AnnealArea(prob, lightOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different placements")
	}
}

func TestAnnealAreaRejectsBadProblem(t *testing.T) {
	if _, _, err := AnnealArea(Problem{MaxW: 5, MaxH: 5}, lightOptions(1)); err == nil {
		t.Error("empty problem accepted")
	}
}

func TestTwoStageImprovesFaultTolerance(t *testing.T) {
	prob := pcrProblem()
	res, err := TwoStage(prob, lightOptions(1), FTOptions{Beta: 40})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Final.Validate(); err != nil {
		t.Fatal(err)
	}
	fti1 := fti.Compute(res.Stage1).FTI()
	fti2 := fti.Compute(res.Final).FTI()
	if fti2 < fti1 {
		t.Errorf("stage 2 reduced FTI: %.4f -> %.4f", fti1, fti2)
	}
	if fti2 < 0.5 {
		t.Errorf("two-stage FTI %.4f suspiciously low at beta=40", fti2)
	}
	// The safety-critical trade: area may grow, but not explode.
	if res.Final.ArrayCells() > 2*res.Stage1.ArrayCells() {
		t.Errorf("stage 2 doubled the area: %d -> %d cells",
			res.Stage1.ArrayCells(), res.Final.ArrayCells())
	}
}

func TestAnnealFaultToleranceRequiresStage1(t *testing.T) {
	prob := pcrProblem()
	if _, _, err := AnnealFaultTolerance(nil, prob, lightOptions(1), FTOptions{Beta: 30}); err == nil {
		t.Error("nil stage-1 placement accepted")
	}
	// Invalid stage-1 placement rejected.
	bad := place.New(prob.Modules) // all at origin: overlapping
	if bad.Valid() {
		t.Fatal("test setup: expected overlapping placement")
	}
	if _, _, err := AnnealFaultTolerance(bad, prob, lightOptions(1), FTOptions{Beta: 30}); err == nil {
		t.Error("invalid stage-1 placement accepted")
	}
}

func TestBetaSweepTradeoff(t *testing.T) {
	prob := pcrProblem()
	pts, err := BetaSweep(prob, lightOptions(1), FTOptions{}, []float64{5, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	lo, hi := pts[0], pts[1]
	if hi.FTI < lo.FTI {
		t.Errorf("beta=60 FTI %.4f below beta=5 FTI %.4f", hi.FTI, lo.FTI)
	}
	if hi.FTI < 0.8 {
		t.Errorf("beta=60 FTI %.4f: fault tolerance not bought", hi.FTI)
	}
	if lo.Cells > hi.Cells {
		t.Errorf("beta=5 area %d above beta=60 area %d", lo.Cells, hi.Cells)
	}
}

// Property: annealing random feasible problems always returns valid
// placements that fit the core and never exceed the shelf-packed
// initial area.
func TestAnnealAreaRandomProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(5)
		mods := make([]place.Module, n)
		for i := range mods {
			st := rng.Intn(12)
			mods[i] = mod(i, "M", 1+rng.Intn(4), 1+rng.Intn(4), st, st+1+rng.Intn(10))
		}
		prob := NewProblem(mods)
		p, _, err := AnnealArea(prob, Options{Seed: int64(trial), ItersPerModule: 30, WindowPatience: 3})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		init := initialPlacement(prob)
		if p.ArrayCells() > init.ArrayCells() {
			t.Errorf("trial %d: SA (%d) worse than initial shelf packing (%d)",
				trial, p.ArrayCells(), init.ArrayCells())
		}
	}
}

// TestAnnealRejectsInvalidSchedule pins that options which build an
// invalid annealing schedule — no inner loop, or a cooling factor
// outside (0,1) — come back as errors from both stages instead of
// running. Alpha 0 is the zero value and so takes the default 0.9;
// a negative one stands for the lower edge.
func TestAnnealRejectsInvalidSchedule(t *testing.T) {
	prob := pcrProblem()
	s1, _, err := AnnealArea(prob, lightOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		apply func(*Options)
	}{
		{"ItersPerModule -1", func(o *Options) { o.ItersPerModule = -1 }},
		{"Alpha 1", func(o *Options) { o.Alpha = 1 }},
		{"Alpha -0.5", func(o *Options) { o.Alpha = -0.5 }},
	} {
		bad := lightOptions(1)
		c.apply(&bad)
		if _, _, err := AnnealArea(prob, bad); err == nil {
			t.Errorf("AnnealArea accepted %s", c.name)
		}
		if _, err := TwoStage(prob, bad, FTOptions{Beta: 30}); err == nil {
			t.Errorf("TwoStage accepted %s", c.name)
		}
		if _, _, err := AnnealFaultTolerance(s1, prob, bad, FTOptions{Beta: 30}); err == nil {
			t.Errorf("AnnealFaultTolerance accepted %s", c.name)
		}
	}
	zero := lightOptions(1)
	zero.Alpha = 0
	if _, _, err := AnnealArea(prob, zero); err != nil {
		t.Errorf("AnnealArea rejected the zero Alpha: %v", err)
	}
}

// TestDefaultMatchesPaper pins the zero Options and the fixed
// constants to the paper's Section 4(d) schedule (T0 = 10000,
// α = 0.9, Na = 400 per module) and to the stage-2 LTSA settings.
func TestDefaultMatchesPaper(t *testing.T) {
	o := Options{}.withDefaults()
	if areaT0 != 10000 || o.Alpha != 0.9 || o.ItersPerModule != 400 {
		t.Errorf("defaults = T0 %v alpha %v iters/module %d, want 10000, 0.9, 400",
			areaT0, o.Alpha, o.ItersPerModule)
	}
	if overlapPenalty != 20 || ltsaT0 != 5 || ltsaMargin != 6 {
		t.Errorf("overlap penalty %v, LTSA T0 %v, LTSA margin %v; want 20, 5, 6",
			overlapPenalty, ltsaT0, ltsaMargin)
	}
}
