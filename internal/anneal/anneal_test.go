package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// cloneProblem is the clone-and-recompute adapter: a move is the
// whole candidate state proposed by neighbor, Bound re-derives its
// full cost and returns the exact change, Delta repeats it, Commit
// adopts the state and Revert drops it.
func cloneProblem[S any](init S, cost func(S) float64, neighbor func(cur S, T float64, rng *rand.Rand) S) MoveProblem[S, S] {
	cur, curCost := init, cost(init)
	var nextCost float64
	return MoveProblem[S, S]{
		Cost:    func() float64 { return curCost },
		Propose: func(T float64, rng *rand.Rand) S { return neighbor(cur, T, rng) },
		Bound: func(next S) float64 {
			nextCost = cost(next)
			return nextCost - curCost
		},
		Delta:    func(S) float64 { return nextCost - curCost },
		Commit:   func(next S) { cur, curCost = next, nextCost },
		Revert:   func(S) {},
		Snapshot: func() S { return cur },
	}
}

func TestScheduleValidate(t *testing.T) {
	good := Schedule{T0: 100, Alpha: 0.9, Iters: 10}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schedule{
		{T0: 0, Alpha: 0.9, Iters: 10},
		{T0: 100, Alpha: 1.0, Iters: 10},
		{T0: 100, Alpha: 0, Iters: 10},
		{T0: 100, Alpha: 0.9, Iters: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schedule %d accepted", i)
		}
	}
}

// A 1-D quadratic with many local perturbations: SA must find the
// global minimum at x = 17 despite local minima from the sin term.
func TestRunFindsGlobalMinimum(t *testing.T) {
	cost := func(x int) float64 {
		d := float64(x - 17)
		return d*d + 10*math.Abs(math.Sin(float64(x)))
	}
	p := cloneProblem(-90, cost, func(cur int, T float64, rng *rand.Rand) int {
		step := 1 + int(T/10)
		return min(max(cur+rng.Intn(2*step+1)-step, -100), 100)
	})
	p.Stop = StopBelow(0.01)
	res := RunMoves(p, Schedule{T0: 100, Alpha: 0.9, Iters: 50}, rand.New(rand.NewSource(1)))
	wantX, wantCost := -100, cost(-100)
	for x := -100; x <= 100; x++ {
		if c := cost(x); c < wantCost {
			wantX, wantCost = x, c
		}
	}
	if res.Best != wantX {
		t.Errorf("Best = %d (cost %v), want %d (cost %v)", res.Best, res.BestCost, wantX, wantCost)
	}
	if res.BestCost != wantCost {
		t.Errorf("BestCost = %v, want %v", res.BestCost, wantCost)
	}
	if res.Evaluations < 100 {
		t.Errorf("suspiciously few evaluations: %d", res.Evaluations)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func(seed int64) Result[int] {
		p := cloneProblem(50, func(x int) float64 { return float64(x * x) },
			func(cur int, T float64, rng *rand.Rand) int { return cur + rng.Intn(11) - 5 })
		p.Stop = StopBelow(0.5)
		return RunMoves(p, Schedule{T0: 50, Alpha: 0.8, Iters: 20}, rand.New(rand.NewSource(seed)))
	}
	a, b := run(7), run(7)
	if a.Best != b.Best || a.BestCost != b.BestCost || a.Evaluations != b.Evaluations {
		t.Error("same seed gave different results")
	}
}

func TestRunTracksBestNotCurrent(t *testing.T) {
	// Neighbor always jumps randomly over a wide range; the final
	// current state is unlikely to be the best, but Best must be.
	p := cloneProblem(100, func(x int) float64 { return float64(x * x) },
		func(cur int, T float64, rng *rand.Rand) int { return rng.Intn(201) - 100 })
	res := RunMoves(p, Schedule{T0: 1e9, Alpha: 0.9, Iters: 100, MaxLevels: 5},
		rand.New(rand.NewSource(3)))
	// At T=1e9 everything is accepted; best must still be the minimum
	// cost over all visited states.
	for _, l := range res.Levels {
		if l.BestCost > res.BestCost {
			t.Error("per-level best not monotone")
		}
	}
	if res.BestCost != float64(res.Best*res.Best) {
		t.Error("BestCost inconsistent with Best")
	}
}

func TestHighTemperatureAcceptsEverything(t *testing.T) {
	p := cloneProblem(0, func(x int) float64 { return float64(x) },
		func(cur int, T float64, rng *rand.Rand) int { return cur + 1 }) // always worse
	res := RunMoves(p, Schedule{T0: 1e12, Alpha: 0.9, Iters: 200, MaxLevels: 1},
		rand.New(rand.NewSource(5)))
	if res.Levels[0].AcceptRate() < 0.99 {
		t.Errorf("accept rate at huge T = %v, want ~1", res.Levels[0].AcceptRate())
	}
}

func TestLowTemperatureRejectsUphill(t *testing.T) {
	p := cloneProblem(0, func(x int) float64 { return float64(x) },
		func(cur int, T float64, rng *rand.Rand) int { return cur + 100 })
	res := RunMoves(p, Schedule{T0: 1e-6, Alpha: 0.5, Iters: 200, MaxLevels: 1},
		rand.New(rand.NewSource(5)))
	if res.Levels[0].Accepted != 0 {
		t.Errorf("uphill moves accepted at T~0: %d", res.Levels[0].Accepted)
	}
	if res.Best != 0 {
		t.Errorf("Best = %d", res.Best)
	}
}

func TestStopAny(t *testing.T) {
	calls := 0
	counting := func(l Level) bool { calls++; return false }
	stop := StopAny(counting, StopBelow(10))
	if stop(Level{T: 100}) {
		t.Error("fired early")
	}
	if !stop(Level{T: 5}) {
		t.Error("did not fire")
	}
	if calls != 2 {
		t.Errorf("stateful criterion called %d times, want 2", calls)
	}
}

func TestMaxLevelsSafetyNet(t *testing.T) {
	p := cloneProblem(0, func(x int) float64 { return 0 },
		func(cur int, T float64, rng *rand.Rand) int { return cur })
	p.Stop = func(Level) bool { return false } // never stops voluntarily
	res := RunMoves(p, Schedule{T0: 10, Alpha: 0.99, Iters: 1, MaxLevels: 7},
		rand.New(rand.NewSource(1)))
	if len(res.Levels) != 7 {
		t.Errorf("levels = %d, want 7", len(res.Levels))
	}
}

func TestRunPanicsOnBadInput(t *testing.T) {
	p := cloneProblem(0, func(x int) float64 { return 0 },
		func(cur int, T float64, rng *rand.Rand) int { return cur })
	assertPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	assertPanic("bad schedule", func() {
		RunMoves(p, Schedule{}, rand.New(rand.NewSource(1)))
	})
	assertPanic("nil rng", func() {
		RunMoves(p, Schedule{T0: 1, Alpha: 0.5, Iters: 1}, nil)
	})
}
