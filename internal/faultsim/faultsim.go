// Package faultsim evaluates fault-tolerance claims empirically by
// Monte-Carlo fault injection: random cells are declared faulty and
// partial reconfiguration is attempted, measuring the fraction of
// faults the configuration survives. Under the paper's uniform
// single-fault model this fraction is exactly what the fault tolerance
// index predicts, which the exhaustive variant verifies cell by cell.
// A sequential multi-fault mode extends the analysis beyond the
// paper's single-fault assumption (testing and reconfiguration between
// failures), measuring how placements degrade as faults accumulate.
//
// All campaigns execute on the internal/campaign engine. The
// functions in this file are the historical sequential entry points,
// kept bit-identical to their pre-engine implementations (pinned by
// golden tests): they draw trial randomness the way the old
// single-threaded loops did — one shared stream in trial order — and
// parallelise only where that stream's draw order cannot observe trial
// outcomes (SingleFault, Yield, the exhaustive sweep). For new code,
// build campaigns directly from the trial constructors in trials.go,
// which use per-trial streams and scale to any worker count.
package faultsim

import (
	"context"
	"fmt"
	"math/rand"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
	"dmfb/internal/stats"
)

// Summary reports a fault-injection campaign.
type Summary struct {
	Trials       int
	Survived     int
	PredictedFTI float64 // the placement's FTI before any fault
}

// SurvivalRate returns the measured fraction of survived trials.
func (s Summary) SurvivalRate() float64 {
	if s.Trials == 0 {
		return 0
	}
	return float64(s.Survived) / float64(s.Trials)
}

// ConfidenceInterval95 returns the Wilson 95% confidence interval on
// the measured survival rate; with the paper's uniform fault model the
// placement's FTI should fall inside it.
func (s Summary) ConfidenceInterval95() (lo, hi float64) {
	return stats.Wilson95(s.Survived, s.Trials)
}

// String summarises the campaign.
func (s Summary) String() string {
	return fmt.Sprintf("survived %d/%d (%.4f measured vs %.4f FTI predicted)",
		s.Survived, s.Trials, s.SurvivalRate(), s.PredictedFTI)
}

// run executes cfg on the campaign engine and converts the aggregate
// to the package's Summary. The context is Background and no timeout
// is set, so every preset remains a deterministic pure function of its
// arguments.
func run(p *place.Placement, cfg campaign.Config, fn campaign.TrialFunc) Summary {
	rep, err := campaign.Run(context.Background(), cfg, fn)
	if err != nil {
		// No checkpoint, no cancellable context: Run can only fail on
		// invalid configuration, which is a bug in this package.
		panic(fmt.Sprintf("faultsim: campaign engine rejected preset config: %v", err))
	}
	return Summary{
		Trials:       rep.Summary.Trials,
		Survived:     rep.Summary.Survived,
		PredictedFTI: fti.Compute(p).FTI(),
	}
}

// SingleFault samples `trials` uniform random cells of the placement's
// array and attempts partial reconfiguration for each, independently
// (the placement is not cumulatively modified). By the law of large
// numbers the survival rate converges to the FTI.
//
// The fault cells are drawn up front from the legacy shared stream —
// single-fault trials consume a fixed two draws each, so the inputs do
// not depend on outcomes — and the trials then run on the engine's
// worker pool: identical results to the historical sequential loop, at
// any worker count.
func SingleFault(p *place.Placement, trials int, seed int64) Summary {
	array := p.BoundingBox()
	rng := rand.New(rand.NewSource(seed))
	cells := make([]geom.Point, trials)
	for i := range cells {
		cells[i] = geom.Point{
			X: array.X + rng.Intn(array.W),
			Y: array.Y + rng.Intn(array.H),
		}
	}
	return run(p, campaign.Config{Name: "single-fault", Trials: trials, Seed: seed},
		func(_ context.Context, t campaign.Trial) campaign.Outcome {
			rels, err := reconfig.Plan(p, array, cells[t.Index])
			if err != nil {
				return campaign.Outcome{}
			}
			return campaign.Outcome{Survived: true, Value: float64(len(rels))}
		})
}

// ExhaustiveSingleFault attempts reconfiguration for every cell of the
// array. Its survival rate equals the FTI exactly.
func ExhaustiveSingleFault(p *place.Placement) Summary {
	array := p.BoundingBox()
	return run(p, campaign.Config{Name: "exhaustive", Trials: array.Cells()}, ExhaustiveTrial(p))
}

// MultiFault injects k distinct faults sequentially, reconfiguring
// after each (testing between failures localises them one at a time).
// Earlier faults remain as dead cells that later relocations must
// avoid. One trial survives if all k faults are recovered from.
//
// The historical draw order interleaves fault sampling with recovery
// outcomes (a failed trial stops drawing), so this preset runs in the
// engine's SharedRNG mode: one worker, one stream, bit-identical to
// the pre-engine loop. For a parallel variant use MultiFaultTrial.
func MultiFault(p *place.Placement, k, trials int, seed int64) Summary {
	return multiFault(p, k, trials, seed, false, core.Options{})
}

// MultiFaultFull is MultiFault with full reconfiguration as a
// fallback: when partial reconfiguration cannot absorb a fault, the
// entire module set is re-placed from scratch around the accumulated
// dead cells (core.FullReconfigure) within the original array bounds.
// The paper motivates partial reconfiguration by its speed; this
// campaign quantifies how much additional survivability the slower
// full variant buys. opts configures the re-placement annealer (light
// settings are fine; the instance is small).
func MultiFaultFull(p *place.Placement, k, trials int, seed int64, opts core.Options) Summary {
	return multiFault(p, k, trials, seed, true, opts)
}

func multiFault(p *place.Placement, k, trials int, seed int64, withFull bool, opts core.Options) Summary {
	array := p.BoundingBox()
	return run(p, campaign.Config{Name: "multi-fault", Trials: trials, Seed: seed, SharedRNG: true},
		func(_ context.Context, t campaign.Trial) campaign.Outcome {
			if k > array.Cells() {
				return campaign.Outcome{}
			}
			cur := p.Clone()
			var dead []geom.Point
			for j := 0; j < k; j++ {
				cell := geom.Point{
					X: array.X + t.RNG.Intn(array.W),
					Y: array.Y + t.RNG.Intn(array.H),
				}
				if containsPoint(dead, cell) {
					j--
					continue
				}
				if recoverWithObstacles(cur, array, cell, dead) {
					dead = append(dead, cell)
					continue
				}
				if withFull {
					// Frozen pre-engine seed arithmetic: golden-pinned.
					// New campaigns derive nested seeds with
					// campaign.DeriveSeed instead (see MultiFaultTrial).
					o := opts
					o.Seed = seed + int64(t.Index*1000+j)
					if full, err := core.FullReconfigure(cur, append(append([]geom.Point(nil), dead...), cell), o); err == nil {
						cur = full
						dead = append(dead, cell)
						continue
					}
				}
				return campaign.Outcome{Value: float64(len(dead))}
			}
			return campaign.Outcome{Survived: true, Value: float64(k)}
		})
}

// recoverWithObstacles relocates every module using cell, treating the
// previously failed cells as additional obstacles, and applies the
// relocations to cur.
func recoverWithObstacles(cur *place.Placement, array geom.Rect, cell geom.Point, dead []geom.Point) bool {
	var rels []reconfig.Relocation
	for _, mi := range cur.ModulesAt(cell) {
		rel, err := reconfig.PlanModule(cur, array, mi, cell, dead...)
		if err != nil {
			return false
		}
		rels = append(rels, rel)
	}
	return reconfig.Apply(cur, rels) == nil
}

// Yield estimates manufacturing/field yield under a defect-density
// model: every cell of the array fails independently with probability
// defectProb, and a chip is usable if the configuration absorbs all
// its defects — by sequential partial reconfiguration in scan order,
// with full re-placement as a fallback when withFull is set. This
// extends the paper's uniform single-fault model to the regime its
// Section 5.2 anticipates ("the failure model can be easily updated
// when statistical failure data becomes available").
//
// Defect maps are drawn up front from the legacy shared stream (each
// trial consumes exactly W·H draws, independent of outcomes) and the
// recovery trials run on the worker pool, bit-identical to the
// historical sequential loop at any worker count.
func Yield(p *place.Placement, defectProb float64, trials int, seed int64,
	withFull bool, opts core.Options) Summary {
	array := p.BoundingBox()
	rng := rand.New(rand.NewSource(seed))
	defectSets := make([][]geom.Point, trials)
	for i := range defectSets {
		for y := 0; y < array.H; y++ {
			for x := 0; x < array.W; x++ {
				if rng.Float64() < defectProb {
					defectSets[i] = append(defectSets[i], geom.Point{X: array.X + x, Y: array.Y + y})
				}
			}
		}
	}
	return run(p, campaign.Config{Name: "yield", Trials: trials, Seed: seed},
		func(_ context.Context, t campaign.Trial) campaign.Outcome {
			defects := defectSets[t.Index]
			cur := p.Clone()
			var dead []geom.Point
			for _, cell := range defects {
				if recoverWithObstacles(cur, array, cell, dead) {
					dead = append(dead, cell)
					continue
				}
				if withFull {
					// Frozen pre-engine seed arithmetic: golden-pinned.
					o := opts
					o.Seed = seed + int64(t.Index*8192+len(dead))
					if full, err := core.FullReconfigure(cur,
						append(append([]geom.Point(nil), dead...), cell), o); err == nil {
						cur = full
						dead = append(dead, cell)
						continue
					}
				}
				return campaign.Outcome{Value: float64(len(defects))}
			}
			return campaign.Outcome{Survived: true, Value: float64(len(defects))}
		})
}
