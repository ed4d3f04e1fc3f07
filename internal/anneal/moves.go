package anneal

import (
	"math"
	"math/rand"
	"time"
)

// MoveProblem bundles the callbacks that define an annealing run.
// Instead of cloning the whole state and re-deriving its cost on every
// proposal, the annealer asks the problem for a small move value, a
// cheap lower bound on the cost change that move would cause, the
// exact cost change when the bound cannot settle the Metropolis test,
// and an in-place commit or revert.
//
// The protocol per inner-loop iteration is strictly sequential:
//
//	m := Propose(T, rng)   // generate a move; no observable mutation
//	lb := Bound(m)         // stage m partly; lb ≤ the exact cost change
//	dC := Delta(m)         // only if lb cannot reject: finish staging, exact change
//	Commit(m) or Revert(m) // exactly one of the two, immediately
//
// Commit always follows Delta; Revert may follow Bound alone (a move
// rejected on its bound) or Bound+Delta, and must restore the state
// exactly either way. Bound and Delta may mutate internal caches
// speculatively (that is the whole point — computing a fault-tolerance
// delta requires applying the move to the incremental structures),
// and Bound+Delta+Commit must leave the state exactly as if the move
// had been applied from scratch. Cost must return the exact cost of
// the current committed state in O(1); after a Commit it must equal
// the pre-move cost plus the value Delta returned, computed from the
// problem's own books rather than by floating-point accumulation, so
// that long runs cannot drift.
//
// A looser bound never changes a run's outcome, only how often Delta
// is skipped: RunMoves makes the same decisions with the same RNG
// draws for any valid bound, down to one that always returns −Inf.
//
// S is the snapshot type used for best-state tracking; M is the move
// value, which should be small (it is passed by value) or a pointer
// into a buffer the problem reuses from one proposal to the next.
type MoveProblem[S, M any] struct {
	// Cost returns the exact cost of the current committed state.
	// Called once before the first proposal and once after every
	// Commit; implementations should cache it.
	Cost func() float64
	// Propose generates a move at temperature T. It must not change
	// the observable state.
	Propose func(T float64, rng *rand.Rand) M
	// Bound stages m far enough to return a lower bound on the cost
	// change Delta(m) would return. It is required: a problem with no
	// cheap bound returns its exact change here and makes Delta
	// reuse it.
	Bound func(m M) float64
	// Delta completes the staging Bound began and returns the exact
	// cost change Commit(m) would make permanent.
	Delta func(m M) float64
	// Commit finalises the staged move.
	Commit func(m M)
	// Revert undoes the staged move exactly, after Bound alone or
	// after Bound and Delta.
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

// boundSlack widens the bound's Metropolis threshold before RunMoves
// rejects a move without calling Delta. The skip must never reject a
// move the exact test would accept: u ≥ exp(−lb/T)·(1+ε) must imply
// u ≥ exp(−ΔC/T) whenever lb ≤ ΔC. −ΔC/T ≤ −lb/T holds in floating
// point (correctly rounded division is monotone), but math.Exp is
// only accurate to within one ulp, not monotone, so the two
// thresholds can come out up to two ulps (≈4.4e-16 relative) the
// wrong way round. ε = 1e-12 covers that, and the rounding of the
// product, with a margin of over a thousand, while giving up the skip
// on only a 1e-12 sliver of the draws. Where exp(−lb/T) is subnormal
// the relative argument fails, but both thresholds are then below
// 2⁻¹⁰²¹ while a nonzero u is at least 2⁻⁶³; u = 0 is never skipped.
const boundSlack = 1e-12

// expMemoSize is the number of integral cost changes, 0 through
// expMemoSize−1, whose Metropolis threshold a run memoises per
// temperature level. Stage-1 costs are integers (cells plus penalties
// per overlap and obstacle cell), so nearly every stage-1 change a
// move is priced at falls in the table.
const expMemoSize = 512

// expMemo returns the Metropolis threshold exp(−x/T) of one
// temperature level, computing math.Exp once per integral x in
// [0, expMemoSize) and directly for any other x. A memoised value is
// math.Exp's own for that x, so decisions are bit-identical to calling
// math.Exp every time (±0 both give exp(−0) = exp(0) = 1).
type expMemo struct {
	T float64
	v [expMemoSize]float64 // exp(−i/T), or −1 where not yet computed
}

// reset empties the table for temperature T.
func (e *expMemo) reset(T float64) {
	e.T = T
	for i := range e.v {
		e.v[i] = -1
	}
}

// exp returns math.Exp(−x/T) for the level's T.
func (e *expMemo) exp(x float64) float64 {
	if x >= 0 && x < expMemoSize {
		if i := int(x); float64(i) == x {
			if v := e.v[i]; v >= 0 {
				return v
			}
			v := math.Exp(-x / e.T)
			e.v[i] = v
			return v
		}
	}
	return math.Exp(-x / e.T)
}

// RunMoves executes simulated annealing over a move-based problem and
// returns the best snapshot encountered. Each proposal is first
// priced by Bound; when lb ≥ 0 the uniform draw the Metropolis test
// needs anyway is taken at once, and a draw that fails even the
// bound's threshold rejects the move without Delta. Otherwise the
// move is priced exactly and decided as plain Metropolis. The RNG is
// consumed at the same points, and every decision comes out the same,
// as a run that called Delta on every proposal; within a level each
// integral threshold exp(−x/T) is computed once (expMemo). It panics
// on an invalid schedule (callers validate the schedule they build)
// and requires a non-nil rng for reproducibility.
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

	var thresh expMemo
	T := sched.T0
	for level := 0; level < maxLevels; level++ {
		l := Level{Index: level, T: T}
		levelStart := time.Now()
		thresh.reset(T)
		for i := 0; i < sched.Iters; i++ {
			m := p.Propose(T, rng)
			lb := p.Bound(m)
			res.Evaluations++
			l.Proposed++
			var dC float64
			accept := false
			if lb >= 0 {
				// dC ≥ lb ≥ 0, so the Metropolis test draws u whatever
				// dC turns out to be: draw it now, and reject without
				// Delta when u already fails the bound's threshold.
				u := rng.Float64()
				if e := thresh.exp(lb); u == 0 || u < e*(1+boundSlack) {
					dC = p.Delta(m)
					if dC != lb { // an exact bound has its threshold already
						e = thresh.exp(dC)
					}
					accept = u < e
				}
			} else {
				dC = p.Delta(m)
				accept = dC < 0 || rng.Float64() < thresh.exp(dC)
			}
			if accept {
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
