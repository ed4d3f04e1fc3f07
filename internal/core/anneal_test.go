package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// TestExpMemoExact checks that the per-level threshold memo returns
// math.Exp(−x/T) bit for bit across level changes: for integral x in
// and past the table, non-integral and negative x, and for 0 and −0,
// each asked twice so both the computing and the memoised path run.
func TestExpMemoExact(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), 1, 2, 20, 21, 40, 255, 511,
		expMemoSize, expMemoSize + 1, 1e6, math.Inf(1),
		0.5, 1.25, 19.999999999999996, 511.5, -1, -20, -0.75}
	var e expMemo
	for _, T := range []float64{10000, 9000, 81.2, 3.7, 1, 0.37, 1e-3, 1e-300, 9000} {
		e.reset(T)
		for pass := 0; pass < 2; pass++ {
			for _, x := range xs {
				got, want := e.exp(x), math.Exp(-x/T)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("T=%g pass %d: exp(%g) = %v (%#x), math.Exp gives %v (%#x)",
						T, pass, x, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestNilSinksZeroAllocInnerLoop pins that with Tracer and Metrics nil
// the annealing loop allocates nothing per proposal, in either stage.
// A lone module never improves on its start (every move keeps its
// cells), so no proposal takes a best-state snapshot, and doubling the
// inner loop must not change a run's allocation count.
func TestNilSinksZeroAllocInnerLoop(t *testing.T) {
	prob := NewProblem([]place.Module{{Name: "M", Size: geom.Size{W: 2, H: 3},
		Span: geom.Interval{Start: 0, End: 4}}})
	for _, useFTI := range []bool{false, true} {
		k := newMoveKernel(initialPlacement(prob), prob, Options{}.withDefaults(), 30, useFTI, false)
		rng := rand.New(rand.NewSource(1))
		allocs := func(iters int) float64 {
			return testing.AllocsPerRun(5, func() { k.RunMoves(1, iters, rng) })
		}
		if d := allocs(2000) - allocs(1000); d > 0 {
			t.Errorf("useFTI %v: inner loop allocates: +%v allocs for +1000 iterations per level", useFTI, d)
		}
	}
}

// TestMaxLevelsSafetyNet pins the 1000-level cap: a run whose
// stopping rule never fires ends there.
func TestMaxLevelsSafetyNet(t *testing.T) {
	prob := kernelTestProblem(rand.New(rand.NewSource(3)), 3)
	o := Options{WindowPatience: 1 << 30}.withDefaults()
	k := newMoveKernel(initialPlacement(prob), prob, o, 0, false, false)
	if _, st := k.RunMoves(areaT0, 1, rand.New(rand.NewSource(1))); st.Levels != maxLevels {
		t.Errorf("levels = %d, want %d", st.Levels, maxLevels)
	}
}

// TestRunMovesTracksBestNotCurrent: at a temperature that accepts
// nearly everything the run wanders off its best state, and RunMoves
// must still return the best placement it saw, priced at its exact
// cost.
func TestRunMovesTracksBestNotCurrent(t *testing.T) {
	prob := kernelTestProblem(rand.New(rand.NewSource(5)), 6)
	o := oneLevel
	k := newMoveKernel(initialPlacement(prob), prob, o, 0, false, false)
	start := k.cost
	best, st := k.RunMoves(1e9, 800, rand.New(rand.NewSource(3)))
	if got := scratchCost(best, prob, o, 0, false); got != st.FinalCost {
		t.Errorf("best placement costs %v, Stats.FinalCost %v", got, st.FinalCost)
	}
	if st.FinalCost > start || st.FinalCost >= k.cost {
		t.Errorf("best %v, start %v, current %v: want best ≤ start and best < current",
			st.FinalCost, start, k.cost)
	}
}

// TestScheduleValidate pins the schedule checks innerIters makes
// before any run: α must lie strictly inside (0,1) and the inner loop
// must be positive, whether ItersPerModule or the module count is what
// makes it empty.
func TestScheduleValidate(t *testing.T) {
	good := Options{Alpha: 0.9, ItersPerModule: 10}
	if iters, err := good.innerIters(3); err != nil || iters != 30 {
		t.Fatalf("innerIters(3) = %d, %v; want 30, nil", iters, err)
	}
	for _, c := range []struct {
		o Options
		n int
	}{
		{Options{Alpha: 1, ItersPerModule: 10}, 3},
		{Options{Alpha: 0, ItersPerModule: 10}, 3},
		{Options{Alpha: -0.5, ItersPerModule: 10}, 3},
		{Options{Alpha: 0.9, ItersPerModule: 0}, 3},
		{Options{Alpha: 0.9, ItersPerModule: 10}, 0},
	} {
		if _, err := c.o.innerIters(c.n); err == nil {
			t.Errorf("α %v, %d iters per module, %d modules accepted", c.o.Alpha, c.o.ItersPerModule, c.n)
		}
	}
}

// oneLevel stops every run after its first level: with WindowT0 = +Inf
// the controlling window sits at its minimum span from the start, and
// a patience of one level ends the run there.
var oneLevel = Options{WindowT0: math.Inf(1), WindowPatience: 1}.withDefaults()

// TestHighTemperatureAcceptsEverything: one level at a huge
// temperature accepts nearly every move.
func TestHighTemperatureAcceptsEverything(t *testing.T) {
	prob := kernelTestProblem(rand.New(rand.NewSource(7)), 6)
	hot := newMoveKernel(initialPlacement(prob), prob, oneLevel, 0, false, false)
	if _, st := hot.RunMoves(1e12, 500, rand.New(rand.NewSource(5))); st.Levels != 1 {
		t.Fatalf("hot run: %d levels, want 1", st.Levels)
	}
	if r := float64(hot.counters.committed) / float64(hot.counters.proposed); r < 0.99 {
		t.Errorf("accept rate at T=1e12 = %v, want ~1", r)
	}
}

// TestLowTemperatureRejectsUphill: one level at a vanishing
// temperature never accepts an uphill move, so the current state ends
// at the best.
func TestLowTemperatureRejectsUphill(t *testing.T) {
	prob := kernelTestProblem(rand.New(rand.NewSource(7)), 6)
	cold := newMoveKernel(initialPlacement(prob), prob, oneLevel, 0, false, false)
	start := cold.cost
	_, st := cold.RunMoves(1e-6, 500, rand.New(rand.NewSource(5)))
	if st.Levels != 1 {
		t.Fatalf("cold run: %d levels, want 1", st.Levels)
	}
	if cold.cost != st.FinalCost || cold.cost > start {
		t.Errorf("T=1e-6: start %v, best %v, current %v: an uphill move was accepted",
			start, st.FinalCost, cold.cost)
	}
	if cold.counters.committed == 0 {
		t.Error("T=1e-6: no move accepted, so the test shows nothing")
	}
}

// traceRecord is one anneal.level span or anneal.best event as the
// Tracer writes it.
type traceRecord struct {
	Kind, Name string
	DurUS      int64 `json:"dur_us"`
	Fields     struct {
		Stage    string
		Level    int
		BestCost float64 `json:"best_cost"`
	}
}

// tracedRun anneals a small problem in one stage with a Tracer
// attached and returns the run's Stats with its anneal.level spans and
// anneal.best events.
func tracedRun(t *testing.T, useFTI bool) (st Stats, levels, bests []traceRecord) {
	t.Helper()
	var buf bytes.Buffer
	prob := kernelTestProblem(rand.New(rand.NewSource(9)), 6)
	o := Options{Tracer: telemetry.New(&buf)}.withDefaults()
	k := newMoveKernel(initialPlacement(prob), prob, o, 30, useFTI, false)
	_, st = k.RunMoves(areaT0, 200, rand.New(rand.NewSource(2)))
	for dec := json.NewDecoder(&buf); dec.More(); {
		var rec traceRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Kind == "span" && rec.Name == "anneal.level":
			levels = append(levels, rec)
		case rec.Kind == "event" && rec.Name == "anneal.best":
			bests = append(bests, rec)
		}
	}
	return st, levels, bests
}

// TestLevelSpanNotifications: a run with a Tracer emits one
// anneal.level span per temperature level, in level order, and one
// anneal.best event per strict improvement of the best cost, the last
// of which is the run's final cost; all carry the kernel's stage.
func TestLevelSpanNotifications(t *testing.T) {
	for _, c := range []struct {
		useFTI bool
		stage  string
	}{{false, "area"}, {true, "ft"}} {
		st, levels, bests := tracedRun(t, c.useFTI)
		if len(levels) != st.Levels {
			t.Fatalf("%s: %d anneal.level spans, want one per level (%d)", c.stage, len(levels), st.Levels)
		}
		for i, l := range levels {
			if l.Fields.Level != i || l.Fields.Stage != c.stage {
				t.Errorf("%s: span %d reports level %d, stage %q", c.stage, i, l.Fields.Level, l.Fields.Stage)
			}
		}
		if len(bests) == 0 {
			t.Fatalf("%s: no anneal.best events", c.stage)
		}
		prev := math.Inf(1)
		for i, b := range bests {
			if b.Fields.BestCost >= prev || b.Fields.Stage != c.stage {
				t.Errorf("%s: best %d: cost %v after %v, stage %q", c.stage, i, b.Fields.BestCost, prev, b.Fields.Stage)
			}
			prev = b.Fields.BestCost
		}
		if prev != st.FinalCost {
			t.Errorf("%s: last anneal.best cost %v, final cost %v", c.stage, prev, st.FinalCost)
		}
	}
}

// TestLevelDurationPopulated: every anneal.level span is timed by its
// level's wall clock, so none lasts zero.
func TestLevelDurationPopulated(t *testing.T) {
	_, levels, _ := tracedRun(t, false)
	for i, l := range levels {
		if l.DurUS <= 0 {
			t.Errorf("level %d span lasted %d µs, want > 0", i, l.DurUS)
		}
	}
}
