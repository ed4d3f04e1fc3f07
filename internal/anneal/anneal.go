// Package anneal is a small, generic simulated-annealing engine
// implementing the procedure of the paper's Figure 3: geometric
// cooling (T' = α·T), a fixed number of inner-loop iterations per
// temperature, Metropolis acceptance (accept when ΔC < 0 or
// r < exp(−ΔC/T)), and a pluggable stopping criterion so callers can
// realise the paper's controlling-window rule.
package anneal

import (
	"fmt"
	"time"
)

// Schedule holds the annealing parameters. The placers' defaults
// mirror the paper's Section 4(d): T0 = 10000, α = 0.9, and an inner
// loop of Na = 400 iterations per module.
type Schedule struct {
	T0    float64 // initial temperature
	Alpha float64 // cooling factor, 0 < Alpha < 1
	Iters int     // inner-loop iterations per temperature level
	// MaxLevels bounds the number of temperature levels as a safety
	// net against a stop criterion that never fires. Zero means 1000.
	MaxLevels int
}

// Validate reports configuration errors.
func (s Schedule) Validate() error {
	if s.T0 <= 0 {
		return fmt.Errorf("anneal: T0 %v must be positive", s.T0)
	}
	if s.Alpha <= 0 || s.Alpha >= 1 {
		return fmt.Errorf("anneal: alpha %v must be in (0,1)", s.Alpha)
	}
	if s.Iters <= 0 {
		return fmt.Errorf("anneal: iters %d must be positive", s.Iters)
	}
	return nil
}

// Level summarises one temperature level for stop decisions and
// statistics.
type Level struct {
	Index    int
	T        float64
	Proposed int
	Accepted int
	Improved int     // accepted moves with ΔC < 0
	BestCost float64 // best cost seen so far (global)
	CurCost  float64 // cost of current state at level end
	// Duration is the wall-clock time RunMoves spent on this level, so
	// convergence-versus-time plots (paper Fig. 5/6 style) need no
	// external timing. Zero while a level is still in progress (as
	// seen by ProgressNewBest observer notifications).
	Duration time.Duration
}

// AcceptRate returns the fraction of proposals accepted at this level.
func (l Level) AcceptRate() float64 {
	if l.Proposed == 0 {
		return 0
	}
	return float64(l.Accepted) / float64(l.Proposed)
}

// Result reports the annealing outcome.
type Result[S any] struct {
	Best     S
	BestCost float64
	Levels   []Level
	// Evaluations counts the initial cost plus one per proposal. A
	// proposal counts whether it was settled by its Bound alone or
	// priced exactly by Delta, so the figure is independent of how
	// tight the bound is.
	Evaluations int
}

// ProgressKind distinguishes Observer notifications.
type ProgressKind int

const (
	// ProgressLevel reports a completed temperature level; Level is
	// final, including its Duration.
	ProgressLevel ProgressKind = iota
	// ProgressNewBest reports a strict improvement of the global best
	// cost, observed from inside the inner loop; Level is a snapshot
	// of the current level so far (Duration still zero).
	ProgressNewBest
)

// Progress is one Observer notification.
type Progress struct {
	Kind        ProgressKind
	Level       Level
	BestCost    float64
	Evaluations int // Result.Evaluations so far
}

// Observer receives progress notifications during RunMoves: one
// ProgressLevel per temperature level and one ProgressNewBest per
// strict best-cost improvement. It runs synchronously on the
// annealing goroutine, so implementations must be fast; a nil
// Observer costs a single nil check per event site and allocates
// nothing.
type Observer func(Progress)

// StopBelow returns a stop criterion that fires once the temperature
// drops below tMin.
func StopBelow(tMin float64) func(Level) bool {
	return func(l Level) bool { return l.T < tMin }
}

// StopAny combines criteria; it fires when any of them fires.
//
// Stateful criteria (such as the placers' controlling-window rule)
// count calls: they assume exactly one evaluation per temperature
// level. StopAny therefore deliberately does NOT short-circuit —
// every criterion is evaluated on every call, even after an earlier
// one has fired, so each criterion sees every level exactly once and
// keeps counting correctly. Like the criteria it
// wraps, the combined closure is single-use: build a fresh StopAny
// (with fresh constituent criteria) for each run.
func StopAny(stops ...func(Level) bool) func(Level) bool {
	return func(l Level) bool {
		fire := false
		for _, s := range stops {
			if s(l) {
				fire = true
			}
		}
		return fire
	}
}
