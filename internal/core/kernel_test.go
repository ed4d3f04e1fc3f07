package core

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// scratchCost is the historical clone-based cost: the AnnealArea cost
// closure for stage 1, ftCost for stage 2. The kernel must reproduce
// it to the last bit.
func scratchCost(p *place.Placement, prob Problem, o Options, beta float64, useFTI bool) float64 {
	if useFTI {
		return ftCost(p, prob, o, beta)
	}
	c := float64(p.ArrayCells()) + overlapPenalty*float64(p.OverlapCells())
	if len(prob.Obstacles) > 0 {
		c += overlapPenalty * float64(prob.obstacleHits(p))
	}
	return c
}

func samePlacement(a, b *place.Placement) bool {
	for i := range a.Modules {
		if a.Pos[i] != b.Pos[i] || a.Rot[i] != b.Rot[i] {
			return false
		}
	}
	return true
}

// runKernelDifferential drives the move kernel and the historical
// clone-based neighbor function from identically seeded RNGs and
// asserts, move for move:
//
//   - Propose consumes the RNG exactly as neighbor did (the placements
//     Bound stages coincide);
//   - Bound is a lower bound on the exact cost change, and equal to it
//     when the move creates overlap or the kernel has no FTI term;
//   - Delta's staged cost equals the from-scratch cost bit for bit;
//   - Revert restores the placement and cost exactly, and a Revert
//     after Bound alone leaves the FTI evaluator untouched.
func runKernelDifferential(t *testing.T, prob Problem, o Options, beta float64, useFTI, singleOnly bool, seed int64, moves int) {
	t.Helper()
	o = o.withDefaults()

	k := newMoveKernel(initialPlacement(prob), prob, o, beta, useFTI, singleOnly)
	cur := k.st.P.Clone() // mirror for the clone-based path
	rngK := rand.New(rand.NewSource(seed))
	rngN := rand.New(rand.NewSource(seed))
	rngD := rand.New(rand.NewSource(seed + 1000)) // accept/reject decisions

	curCost := scratchCost(cur, prob, o, beta, useFTI)
	if k.cost != curCost {
		t.Fatalf("initial cost = %v, scratch %v", k.cost, curCost)
	}

	T := float64(areaT0)
	if useFTI {
		T = ltsaT0 // LTSA regime
	}
	for mv := 0; mv < moves; mv++ {
		var covered int
		var array geom.Rect
		var evals, hits int64
		if k.inc != nil {
			covered, array = k.inc.Covered(), k.inc.Array()
			evals, hits = k.inc.Stats()
		}
		m := k.Propose(T, rngK)
		next := neighbor(cur, prob, o, T, rngN, singleOnly)
		lb := k.Bound(m)

		if !samePlacement(k.st.P, next) {
			t.Fatalf("move %d: kernel staged placement diverged from neighbor()", mv)
		}
		want := scratchCost(next, prob, o, beta, useFTI)
		exact := want - curCost
		if !(lb <= exact) {
			t.Fatalf("move %d: bound %v above exact delta %v", mv, lb, exact)
		}
		if (next.OverlapCells() > 0 || !useFTI) && lb != exact {
			t.Fatalf("move %d: bound %v, want exact %v (overlap %d, useFTI %v)",
				mv, lb, exact, next.OverlapCells(), useFTI)
		}

		if d := rngD.Intn(4); d == 0 { // rejected on the bound: no Delta
			k.Revert(m)
			if !samePlacement(k.st.P, cur) {
				t.Fatalf("move %d: revert after bound did not restore the placement", mv)
			}
			if k.inc != nil {
				e, h := k.inc.Stats()
				if k.inc.Covered() != covered || k.inc.Array() != array || e != evals || h != hits {
					t.Fatalf("move %d: bound and revert touched the FTI evaluator", mv)
				}
			}
		} else {
			dC := k.Delta(m)
			if k.pending != want {
				t.Fatalf("move %d: staged cost = %v, scratch %v", mv, k.pending, want)
			}
			if dC != exact {
				t.Fatalf("move %d: delta = %v, scratch %v", mv, dC, exact)
			}
			if d%2 == 0 {
				k.Revert(m)
				if !samePlacement(k.st.P, cur) {
					t.Fatalf("move %d: revert did not restore the placement", mv)
				}
			} else {
				k.Commit(m)
				cur = next
				curCost = want
			}
		}
		if k.cost != curCost {
			t.Fatalf("move %d: committed cost = %v, scratch %v", mv, k.cost, curCost)
		}
		if k.st.Overlap() != cur.OverlapCells() || k.st.BoundingBox() != cur.BoundingBox() {
			t.Fatalf("move %d: incremental state drifted from scratch", mv)
		}
		// Cool gradually so the controlling window sweeps its range.
		if mv%50 == 49 {
			T *= 0.95
			if T < 0.05 {
				T = areaT0
			}
		}
	}
}

func kernelTestProblem(rng *rand.Rand, n int) Problem {
	mods := make([]place.Module, n)
	for i := range mods {
		start := rng.Intn(15)
		mods[i] = place.Module{
			ID:   i,
			Name: "M",
			Size: geom.Size{W: 1 + rng.Intn(4), H: 1 + rng.Intn(4)},
			Span: geom.Interval{Start: start, End: start + 1 + rng.Intn(8)},
		}
	}
	return NewProblem(mods)
}

func TestKernelDifferentialArea(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 3; round++ {
		prob := kernelTestProblem(rng, 4+rng.Intn(5))
		runKernelDifferential(t, prob, Options{}, 0, false, false, int64(round)*7+1, 2000)
	}
}

func TestKernelDifferentialObstacles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	prob := kernelTestProblem(rng, 6)
	prob.Obstacles = []geom.Point{{X: 2, Y: 2}, {X: 5, Y: 1}, {X: 0, Y: 4}}
	runKernelDifferential(t, prob, Options{}, 0, false, false, 77, 3000)
}

func TestKernelDifferentialFTI(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 2; round++ {
		prob := kernelTestProblem(rng, 4+rng.Intn(4))
		runKernelDifferential(t, prob, Options{}, 30, true, true, int64(round)*13+5, 2500)
	}
}

// TestStage2BoundMatchesUnbounded pins the bound's exactness end to
// end: across stage-1 seeds and the Table 2 β range, stage 2 with the
// bound returns the same placement, level count, evaluation count and
// final cost as stage 2 pricing every proposal exactly: with
// priceEveryMove set, Bound still stages the move but returns −Inf, so
// RunMoves prices every proposal with Delta.
func TestStage2BoundMatchesUnbounded(t *testing.T) {
	prob := pcrProblem()
	for _, seed := range []int64{1, 2, 3} {
		opts := lightOptions(seed)
		s1, _, err := AnnealArea(prob, opts)
		if err != nil {
			t.Fatalf("seed %d: stage 1: %v", seed, err)
		}
		for beta := 10.0; beta <= 60; beta += 10 {
			ft := FTOptions{Beta: beta}
			got, gotSt, err := AnnealFaultTolerance(s1, prob, opts, ft)
			if err != nil {
				t.Fatalf("seed %d β=%v: %v", seed, beta, err)
			}
			priceEveryMove = true
			want, wantSt, err := annealFaultTolerance(s1, prob, opts, ft)
			priceEveryMove = false
			if err != nil {
				t.Fatalf("seed %d β=%v unbounded: %v", seed, beta, err)
			}
			if got.String() != want.String() || gotSt != wantSt {
				t.Errorf("seed %d β=%v: bounded run %+v\n%s\nunbounded %+v\n%s",
					seed, beta, gotSt, got, wantSt, want)
			}
		}
	}
}
