// Package faultsim evaluates fault-tolerance claims empirically by
// Monte-Carlo fault injection: random cells are declared faulty and
// partial reconfiguration is attempted, measuring the fraction of
// faults the configuration survives. Under the paper's uniform
// single-fault model this fraction is exactly what the fault tolerance
// index predicts, which the exhaustive variant verifies cell by cell.
// A sequential multi-fault mode extends the analysis beyond the
// paper's single-fault assumption (testing and reconfiguration between
// failures), measuring how placements degrade as faults accumulate,
// and defect-map yield campaigns extend it to manufacturing defects.
//
// Every campaign is a trial constructor from trials.go executed on the
// internal/campaign engine, directly or through Run.
package faultsim

import (
	"context"
	"fmt"

	"dmfb/internal/campaign"
	"dmfb/internal/fti"
	"dmfb/internal/place"
	"dmfb/internal/stats"
	"dmfb/internal/telemetry"
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

// Run executes a campaign of trials trials of fn seeded by seed — fn
// is one of the trial constructors in trials.go, built on p — and
// reports it against p's FTI. Trial t draws only from
// campaign.TrialRNG(seed, t), so the summary is a pure function of the
// arguments at any worker count. Metrics, when non-nil, receives the
// engine's campaign.* metrics and whatever the trials record into
// campaign.Trial.Metrics. The error is the engine's: trials must be
// positive and fn non-nil.
func Run(p *place.Placement, trials int, seed int64, fn campaign.TrialFunc, metrics *telemetry.Registry) (Summary, error) {
	rep, err := campaign.Run(context.Background(),
		campaign.Config{Name: "faultsim", Trials: trials, Seed: seed, Metrics: metrics}, fn)
	if err != nil {
		return Summary{}, err
	}
	return Summary{
		Trials:       rep.Summary.Trials,
		Survived:     rep.Summary.Survived,
		PredictedFTI: fti.Compute(p).FTI(),
	}, nil
}

// ExhaustiveSingleFault attempts reconfiguration for every cell of the
// array. Its survival rate equals the FTI exactly.
func ExhaustiveSingleFault(p *place.Placement) Summary { return Exhaustive(p, nil) }

// Exhaustive is ExhaustiveSingleFault recording its campaign into
// metrics (see Run).
func Exhaustive(p *place.Placement, metrics *telemetry.Registry) Summary {
	s, err := Run(p, p.BoundingBox().Cells(), 0, ExhaustiveTrial(p), metrics)
	if err != nil {
		// An empty array has no cells to sweep.
		return Summary{PredictedFTI: fti.Compute(p).FTI()}
	}
	return s
}
