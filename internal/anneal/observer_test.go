package anneal

import (
	"math/rand"
	"testing"
	"time"
)

func TestObserverLevelNotifications(t *testing.T) {
	p := cloneProblem(80, func(x int) float64 { return float64(x * x) },
		func(cur int, T float64, rng *rand.Rand) int { return cur + rng.Intn(11) - 5 })
	var levels []Progress
	var bests []Progress
	p.Observer = func(pr Progress) {
		switch pr.Kind {
		case ProgressLevel:
			levels = append(levels, pr)
		case ProgressNewBest:
			bests = append(bests, pr)
		}
	}
	res := RunMoves(p, Schedule{T0: 50, Alpha: 0.8, Iters: 30, MaxLevels: 10},
		rand.New(rand.NewSource(2)))

	if len(levels) != len(res.Levels) {
		t.Fatalf("ProgressLevel notifications = %d, want one per level (%d)",
			len(levels), len(res.Levels))
	}
	for i, pr := range levels {
		if pr.Level.Index != i {
			t.Errorf("level %d reported index %d", i, pr.Level.Index)
		}
		if pr.Level != res.Levels[i] {
			t.Errorf("level %d notification %+v != result %+v", i, pr.Level, res.Levels[i])
		}
	}
	// Starting at x=80 with a downhill-capable neighbor, the best cost
	// must strictly improve at least once.
	if len(bests) == 0 {
		t.Fatal("no ProgressNewBest notifications")
	}
	prev := float64(80 * 80)
	for i, pr := range bests {
		if pr.BestCost >= prev {
			t.Errorf("best %d: cost %v did not improve on %v", i, pr.BestCost, prev)
		}
		prev = pr.BestCost
		if pr.Level.Duration != 0 {
			t.Errorf("best %d: in-progress level snapshot has Duration %v, want 0",
				i, pr.Level.Duration)
		}
	}
	if bests[len(bests)-1].BestCost != res.BestCost {
		t.Errorf("last ProgressNewBest cost %v != final best %v",
			bests[len(bests)-1].BestCost, res.BestCost)
	}
}

func TestLevelDurationPopulated(t *testing.T) {
	p := cloneProblem(0, func(x int) float64 { return float64(x) },
		func(cur int, T float64, rng *rand.Rand) int {
			time.Sleep(10 * time.Microsecond)
			return cur
		})
	res := RunMoves(p, Schedule{T0: 10, Alpha: 0.5, Iters: 5, MaxLevels: 3},
		rand.New(rand.NewSource(1)))
	for i, l := range res.Levels {
		if l.Duration <= 0 {
			t.Errorf("level %d Duration = %v, want > 0", i, l.Duration)
		}
	}
}

// StopAny must evaluate every criterion on every level — even after
// one has fired — so stateful criteria (like the placers'
// controlling-window rule) keep counting correctly when combined.
func TestStopAnyKeepsStatefulCriteriaCounting(t *testing.T) {
	// quiet fires after 2 consecutive levels without an accepted move.
	streak := 0
	quiet := func(l Level) bool {
		if l.Accepted == 0 {
			streak++
		} else {
			streak = 0
		}
		return streak >= 2
	}
	fired := func(l Level) bool { return true }
	stop := StopAny(fired, quiet)

	// Both calls fire (because of `fired`), but quiet must still see
	// both quiet levels and be ready to fire on its own.
	stop(Level{Accepted: 0})
	stop(Level{Accepted: 0})
	if !quiet(Level{Accepted: 0}) {
		t.Error("stateful criterion lost count inside StopAny: want quiet streak 3 >= 2")
	}
}

// countdown is a problem whose every move improves the cost, so each
// iteration commits and snapshots.
func countdown() MoveProblem[int, int] {
	return cloneProblem(1000000, func(x int) float64 { return float64(x * x) },
		func(cur int, T float64, rng *rand.Rand) int { return cur - 1 })
}

// allocsPerRun measures total allocations of one RunMoves with the
// given inner-loop iteration count and no observer.
func allocsPerRun(iters int) float64 {
	p := countdown()
	rng := rand.New(rand.NewSource(1))
	return testing.AllocsPerRun(10, func() {
		RunMoves(p, Schedule{T0: 1, Alpha: 0.5, Iters: iters, MaxLevels: 1}, rng)
	})
}

// A disabled (nil) Observer must add no per-iteration allocations to
// the inner loop: doubling the iteration count must not change the
// allocation count beyond noise.
func TestNilObserverZeroAllocInnerLoop(t *testing.T) {
	if d := allocsPerRun(2000) - allocsPerRun(1000); d > 1 {
		t.Errorf("inner loop allocates: +%v allocs for +1000 iterations", d)
	}
}

func BenchmarkRunNilObserver(b *testing.B) {
	p := countdown()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RunMoves(p, Schedule{T0: 1, Alpha: 0.5, Iters: 1000, MaxLevels: 1}, rng)
	}
}
