package anneal

import (
	"math"
	"math/rand"
	"time"
)

// MoveProblem bundles the callbacks that define an annealing run.
// Instead of cloning the whole state and re-deriving its cost on every
// proposal, the annealer asks the problem for a small move value, the
// exact cost change that move would cause, and an in-place commit or
// revert.
//
// The protocol per inner-loop iteration is strictly sequential:
//
//	m := Propose(T, rng)   // generate a move; no observable mutation
//	dC := Delta(m)         // stage m and return its exact cost change
//	Commit(m) or Revert(m) // exactly one of the two, immediately
//
// Delta may mutate internal caches speculatively (that is the whole
// point — computing a fault-tolerance delta requires applying the
// move to the incremental structures), but the pair Delta+Revert must
// restore the state exactly, and Delta+Commit must leave it exactly as
// if the move had been applied from scratch. Cost must return the
// exact cost of the current committed state in O(1); after a Commit it
// must equal the pre-move cost plus the value Delta returned, computed
// from the problem's own books rather than by floating-point
// accumulation, so that long runs cannot drift.
//
// S is the snapshot type used for best-state tracking; M is the move
// value, which should be small (it is passed by value).
type MoveProblem[S, M any] struct {
	// Cost returns the exact cost of the current committed state.
	// Called once before the first proposal and once after every
	// Commit; implementations should cache it.
	Cost func() float64
	// Propose generates a move at temperature T. It must not change
	// the observable state.
	Propose func(T float64, rng *rand.Rand) M
	// Delta stages m and returns the exact cost change Commit(m)
	// would make permanent.
	Delta func(m M) float64
	// Commit finalises the staged move.
	Commit func(m M)
	// Revert undoes the staged move exactly.
	Revert func(m M)
	// Snapshot captures the current state for best-state tracking.
	// Called on every strict best-cost improvement; it must return a
	// copy that later moves cannot mutate.
	Snapshot func() S
	// Stop, if non-nil, is consulted after each temperature level;
	// returning true ends the run. This is where the paper's
	// "controlling window reached its minimum span" criterion plugs in.
	Stop func(l Level) bool
	// Observer, if non-nil, receives progress notifications (per
	// temperature level and on best-cost improvement) — the hook the
	// telemetry layer attaches to.
	Observer Observer
}

// RunMoves executes simulated annealing over a move-based problem and
// returns the best snapshot encountered. It panics on an invalid
// schedule (callers validate the schedule they build) and requires a
// non-nil rng for reproducibility.
func RunMoves[S, M any](p MoveProblem[S, M], sched Schedule, rng *rand.Rand) Result[S] {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("anneal: nil rng")
	}
	maxLevels := sched.MaxLevels
	if maxLevels == 0 {
		maxLevels = 1000
	}

	curCost := p.Cost()
	best := p.Snapshot()
	bestCost := curCost
	res := Result[S]{Evaluations: 1}

	T := sched.T0
	for level := 0; level < maxLevels; level++ {
		l := Level{Index: level, T: T}
		levelStart := time.Now()
		for i := 0; i < sched.Iters; i++ {
			m := p.Propose(T, rng)
			dC := p.Delta(m)
			res.Evaluations++
			l.Proposed++
			if dC < 0 || rng.Float64() < math.Exp(-dC/T) {
				p.Commit(m)
				curCost = p.Cost()
				l.Accepted++
				if dC < 0 {
					l.Improved++
				}
				if curCost < bestCost {
					best = p.Snapshot()
					bestCost = curCost
					if p.Observer != nil {
						p.Observer(Progress{Kind: ProgressNewBest, Level: l,
							BestCost: bestCost, Evaluations: res.Evaluations})
					}
				}
			} else {
				p.Revert(m)
			}
		}
		l.BestCost = bestCost
		l.CurCost = curCost
		l.Duration = time.Since(levelStart)
		res.Levels = append(res.Levels, l)
		if p.Observer != nil {
			p.Observer(Progress{Kind: ProgressLevel, Level: l,
				BestCost: bestCost, Evaluations: res.Evaluations})
		}
		if p.Stop != nil && p.Stop(l) {
			break
		}
		T *= sched.Alpha
	}
	res.Best = best
	res.BestCost = bestCost
	return res
}
