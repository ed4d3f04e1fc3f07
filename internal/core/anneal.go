package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// The simulated-annealing loop of the paper's Figure 3 — geometric
// cooling (T' = α·T), a fixed number of inner-loop iterations per
// temperature, Metropolis acceptance (accept when ΔC < 0 or
// r < exp(−ΔC/T)) and the controlling-window stopping rule — run over
// the move kernel's Propose/Bound/Delta/Commit/Revert protocol:
//
//	m := Propose(T, rng)   // generate a move; no observable mutation
//	lb := Bound(m)         // stage m partly; lb ≤ the exact cost change
//	dC := Delta(m)         // only if lb cannot reject: finish staging, exact change
//	Commit(m) or Revert(m) // exactly one of the two, immediately
//
// A looser bound never changes a run's outcome, only how often Delta
// is skipped: the loop makes the same decisions with the same RNG
// draws for any valid bound, down to one that always returns −Inf
// (priceEveryMove).

// maxLevels caps the temperature levels of one run, a safety net
// against a stopping rule that never fires.
const maxLevels = 1000

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

// priceEveryMove makes Bound return −Inf, so every proposal is priced
// exactly by Delta: the reference TestStage2BoundMatchesUnbounded
// holds the bound to. Only that test sets it.
var priceEveryMove bool

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

// innerIters returns the inner-loop length of a run over n modules,
// or an error for options the annealer cannot run.
func (o Options) innerIters(n int) (int, error) {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return 0, fmt.Errorf("alpha %v must be in (0,1)", o.Alpha)
	}
	if iters := o.ItersPerModule * n; iters > 0 {
		return iters, nil
	}
	return 0, fmt.Errorf("iters per module %d must be positive", o.ItersPerModule)
}

// RunMoves anneals from temperature T0 with iters proposals per level
// and returns the best placement seen with the run's Stats. It stops
// once the controlling window has sat at its minimum span for
// WindowPatience consecutive levels, the paper's stopping criterion,
// or after maxLevels levels. Each proposal is first priced by Bound;
// when lb ≥ 0 the uniform draw the Metropolis test needs anyway is
// taken at once, and a draw that fails even the bound's threshold
// rejects the move without Delta. Otherwise the move is priced exactly and decided as
// plain Metropolis. Within a level each integral threshold exp(−x/T)
// is computed once (expMemo).
func (k *moveKernel) RunMoves(T0 float64, iters int, rng *rand.Rand) (*place.Placement, Stats) {
	best, bestCost := k.st.P.Clone(), k.cost
	st := Stats{Evaluations: 1}
	atMin := 0
	for T := T0; st.Levels < maxLevels; T *= k.o.Alpha {
		start := time.Now()
		k.thresh.reset(T)
		accepted, improved := 0, 0
		for i := 0; i < iters; i++ {
			m := k.Propose(T, rng)
			lb := k.Bound(m)
			st.Evaluations++
			var dC float64
			accept := false
			if lb >= 0 {
				// dC ≥ lb ≥ 0, so the Metropolis test draws u whatever
				// dC turns out to be: draw it now, and reject without
				// Delta when u already fails the bound's threshold.
				u := rng.Float64()
				if e := k.thresh.exp(lb); u == 0 || u < e*(1+boundSlack) {
					dC = k.Delta(m)
					if dC != lb { // an exact bound has its threshold already
						e = k.thresh.exp(dC)
					}
					accept = u < e
				}
			} else {
				dC = k.Delta(m)
				accept = dC < 0 || rng.Float64() < k.thresh.exp(dC)
			}
			if !accept {
				k.Revert(m)
				continue
			}
			k.Commit(m)
			accepted++
			if dC < 0 {
				improved++
			}
			if k.cost < bestCost {
				best, bestCost = k.st.P.Clone(), k.cost
				k.emitBest(st.Levels, T, bestCost, st.Evaluations)
			}
		}
		k.emitLevel(st.Levels, T, iters, accepted, improved, bestCost, time.Since(start))
		st.Levels++
		if window(T, k.o.WindowT0, k.span) <= 1 {
			atMin++
		} else {
			atMin = 0
		}
		if atMin >= k.o.WindowPatience {
			break
		}
	}
	st.FinalCost = bestCost
	return best, st
}

// emitLevel reports a finished temperature level to the options'
// sinks: one "anneal.level" span, timed by the level's wall clock and
// tagged with the kernel's stage, and the anneal.* metrics.
func (k *moveKernel) emitLevel(level int, T float64, iters, accepted, improved int, best float64, dur time.Duration) {
	if tr := k.o.Tracer; tr != nil {
		tr.EmitSpan("anneal.level", dur, telemetry.Fields{
			"stage":     k.stage(),
			"level":     level,
			"T":         T,
			"proposed":  iters,
			"accepted":  accepted,
			"improved":  improved,
			"best_cost": best,
			"cur_cost":  k.cost,
		})
	}
	reg := k.o.Metrics
	reg.Counter("anneal.levels").Inc()
	reg.Counter("anneal.proposed").Add(int64(iters))
	reg.Counter("anneal.accepted").Add(int64(accepted))
	reg.Gauge("anneal.accept_rate").Set(float64(accepted) / float64(iters))
	reg.Gauge("anneal.best_cost").Set(best)
	reg.Histogram("anneal.level_ms", telemetry.LatencyBuckets...).
		Observe(float64(dur.Microseconds()) / 1000)
}

// emitBest reports a strict improvement of the run's best cost: an
// "anneal.best" event tagged with the kernel's stage, and the
// anneal.improvements and anneal.best_cost metrics.
func (k *moveKernel) emitBest(level int, T, best float64, evals int) {
	if tr := k.o.Tracer; tr != nil {
		tr.Event("anneal.best", telemetry.Fields{
			"stage":       k.stage(),
			"level":       level,
			"T":           T,
			"best_cost":   best,
			"evaluations": evals,
		})
	}
	k.o.Metrics.Counter("anneal.improvements").Inc()
	k.o.Metrics.Gauge("anneal.best_cost").Set(best)
}
