package anneal

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// intVec is a toy state for equivalence testing: cost is the sum of
// squares of the entries (integer-valued, so incremental deltas are
// float-exact).
type intVec []int

func sumSquares(v intVec) int {
	s := 0
	for _, x := range v {
		s += x * x
	}
	return s
}

type vecMove struct {
	idx, delta int
}

// TestRunMovesMatchesRun runs the same toy problem as a
// clone-and-recompute problem (cloneProblem) and as a genuinely
// incremental MoveProblem (delta arithmetic, in-place commit/revert)
// with identical seeds, and asserts the two produce identical results:
// same best state, same cost, same level and evaluation counts.
func TestRunMovesMatchesRun(t *testing.T) {
	sched := Schedule{T0: 50, Alpha: 0.8, Iters: 300, MaxLevels: 40}
	init := intVec{9, -7, 4, 12, -3}

	proposeDims := func(n int, T float64, rng *rand.Rand) vecMove {
		step := 1 + int(T/10)
		return vecMove{idx: rng.Intn(n), delta: rng.Intn(2*step+1) - step}
	}

	// Clone-based path.
	cloneProb := cloneProblem(append(intVec(nil), init...),
		func(v intVec) float64 { return float64(sumSquares(v)) },
		func(cur intVec, T float64, rng *rand.Rand) intVec {
			m := proposeDims(len(cur), T, rng)
			next := append(intVec(nil), cur...)
			next[m.idx] += m.delta
			return next
		})
	cloneRes := RunMoves(cloneProb, sched, rand.New(rand.NewSource(17)))

	// Incremental path: in-place mutation, exact integer delta.
	cur := append(intVec(nil), init...)
	sum := sumSquares(cur)
	moveProb := MoveProblem[intVec, vecMove]{
		Cost: func() float64 { return float64(sum) },
		Propose: func(T float64, rng *rand.Rand) vecMove {
			return proposeDims(len(cur), T, rng)
		},
		Bound: func(m vecMove) float64 {
			v := cur[m.idx]
			return float64((v+m.delta)*(v+m.delta) - v*v)
		},
		Delta: func(m vecMove) float64 {
			v := cur[m.idx]
			return float64((v+m.delta)*(v+m.delta) - v*v)
		},
		Commit: func(m vecMove) {
			v := cur[m.idx]
			sum += (v+m.delta)*(v+m.delta) - v*v
			cur[m.idx] = v + m.delta
		},
		Revert:   func(vecMove) {}, // Bound and Delta staged nothing to undo
		Snapshot: func() intVec { return append(intVec(nil), cur...) },
	}
	moveRes := RunMoves(moveProb, sched, rand.New(rand.NewSource(17)))

	if cloneRes.BestCost != moveRes.BestCost {
		t.Errorf("best cost: clone %v, move %v", cloneRes.BestCost, moveRes.BestCost)
	}
	if cloneRes.Evaluations != moveRes.Evaluations {
		t.Errorf("evaluations: clone %d, move %d", cloneRes.Evaluations, moveRes.Evaluations)
	}
	if len(cloneRes.Levels) != len(moveRes.Levels) {
		t.Errorf("levels: clone %d, move %d", len(cloneRes.Levels), len(moveRes.Levels))
	}
	for i := range cloneRes.Best {
		if cloneRes.Best[i] != moveRes.Best[i] {
			t.Fatalf("best state diverged at %d: clone %v, move %v", i, cloneRes.Best, moveRes.Best)
		}
	}
	for i := range cloneRes.Levels {
		cl, ml := cloneRes.Levels[i], moveRes.Levels[i]
		if cl.Accepted != ml.Accepted || cl.Improved != ml.Improved || cl.Proposed != ml.Proposed {
			t.Fatalf("level %d bookkeeping diverged: clone %+v, move %+v", i, cl, ml)
		}
	}
}

func TestRunMovesPanicsOnBadInput(t *testing.T) {
	ok := MoveProblem[int, int]{
		Cost:     func() float64 { return 0 },
		Propose:  func(float64, *rand.Rand) int { return 0 },
		Bound:    func(int) float64 { return 0 },
		Delta:    func(int) float64 { return 0 },
		Commit:   func(int) {},
		Revert:   func(int) {},
		Snapshot: func() int { return 0 },
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("bad schedule", func() {
		RunMoves(ok, Schedule{T0: -1, Alpha: 0.5, Iters: 1}, rand.New(rand.NewSource(1)))
	})
	mustPanic("nil rng", func() {
		RunMoves(ok, Schedule{T0: 10, Alpha: 0.5, Iters: 1}, nil)
	})
}

// TestBoundNeverChangesRun runs one problem with a tight Bound (the
// exact change), a deliberately loose one and a useless one (−Inf,
// which prices every proposal with Delta) and asserts the three runs
// are indistinguishable: same Result, same per-level bookkeeping, and
// the RNG left at the same position.
func TestBoundNeverChangesRun(t *testing.T) {
	sched := Schedule{T0: 50, Alpha: 0.8, Iters: 300, MaxLevels: 40}
	run := func(bound func(exact float64) float64) (res Result[intVec], next int64, deltas int) {
		cur := intVec{9, -7, 4, 12, -3}
		sum := sumSquares(cur)
		// A non-integer scale keeps the Metropolis thresholds off
		// round numbers.
		const scale = 0.37
		exact := func(m vecMove) float64 {
			v := cur[m.idx]
			return scale * float64((v+m.delta)*(v+m.delta)-v*v)
		}
		p := MoveProblem[intVec, vecMove]{
			Cost: func() float64 { return scale * float64(sum) },
			Propose: func(T float64, rng *rand.Rand) vecMove {
				step := 1 + int(T/10)
				return vecMove{idx: rng.Intn(len(cur)), delta: rng.Intn(2*step+1) - step}
			},
			Bound: func(m vecMove) float64 { return bound(exact(m)) },
			Delta: func(m vecMove) float64 { deltas++; return exact(m) },
			Commit: func(m vecMove) {
				v := cur[m.idx]
				sum += (v+m.delta)*(v+m.delta) - v*v
				cur[m.idx] = v + m.delta
			},
			Revert:   func(vecMove) {},
			Snapshot: func() intVec { return append(intVec(nil), cur...) },
		}
		rng := rand.New(rand.NewSource(17))
		res = RunMoves(p, sched, rng)
		for i := range res.Levels {
			res.Levels[i].Duration = 0 // wall clock
		}
		return res, rng.Int63(), deltas
	}

	want, wantNext, all := run(func(float64) float64 { return math.Inf(-1) })
	for _, c := range []struct {
		name  string
		bound func(exact float64) float64
	}{
		{"tight", func(dC float64) float64 { return dC }},
		{"loose", func(dC float64) float64 { return dC - 0.5*math.Abs(dC) - 1 }},
	} {
		got, next, deltas := run(c.bound)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s bound changed the result:\n got %+v\nwant %+v", c.name, got, want)
		}
		if next != wantNext {
			t.Errorf("%s bound left the RNG elsewhere: next draw %d, want %d", c.name, next, wantNext)
		}
		if deltas >= all {
			t.Errorf("%s bound skipped no Delta: %d calls, unbounded %d", c.name, deltas, all)
		}
	}
	if all != want.Evaluations-1 {
		t.Errorf("unbounded run called Delta %d times for %d proposals", all, want.Evaluations-1)
	}
}

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
