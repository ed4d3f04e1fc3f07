package faultsim

import (
	"context"
	"fmt"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/defect"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
	"dmfb/internal/recovery"
	"dmfb/internal/schedule"
	"dmfb/internal/sim"
)

// Campaign trial functions: every random draw comes from the trial's
// private stream (campaign.TrialRNG) and every nested seed derives
// from the trial seed (campaign.DeriveSeed), so a campaign's aggregate
// is bit-identical at any worker count and across checkpoint resumes.

// SingleFaultTrial returns the trial function of the uniform
// single-fault campaign on p: each trial draws one uniform array cell
// and attempts partial reconfiguration. Value is the number of module
// relocations the recovery plan needed.
func SingleFaultTrial(p *place.Placement) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(_ context.Context, t campaign.Trial) campaign.Outcome {
		return planOutcome(t, p, array, geom.Point{
			X: array.X + t.RNG.Intn(array.W),
			Y: array.Y + t.RNG.Intn(array.H),
		})
	}
}

// ExhaustiveTrial returns the trial function that sweeps every array
// cell: trial t injects the fault at cell t in scan order, so a
// campaign with exactly array.Cells() trials measures the FTI exactly.
func ExhaustiveTrial(p *place.Placement) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(_ context.Context, t campaign.Trial) campaign.Outcome {
		return planOutcome(t, p, array, geom.Point{
			X: array.X + t.Index%array.W,
			Y: array.Y + t.Index/array.W,
		})
	}
}

// planOutcome is one single-fault trial at cell: it survives when
// partial reconfiguration finds a plan, and its Value is the number of
// module relocations the plan needed. The plan's reconfig.* metrics go
// to the trial's registry.
func planOutcome(t campaign.Trial, p *place.Placement, array geom.Rect, cell geom.Point) campaign.Outcome {
	rels, err := reconfig.Plan(t.Metrics, p, array, cell)
	if err != nil {
		return campaign.Outcome{}
	}
	return campaign.Outcome{Survived: true, Value: float64(len(rels))}
}

// MultiFaultTrial returns the trial function of the sequential k-fault
// campaign on p: k distinct faults injected one at a time and walked
// through the recovery ladder capped at maxLevel (see walk). Value is
// the number of faults absorbed before the first unrecoverable one (k
// when the trial survives).
func MultiFaultTrial(p *place.Placement, k int, maxLevel recovery.Level, anneal core.Options) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(ctx context.Context, t campaign.Trial) campaign.Outcome {
		if k > array.Cells() {
			return campaign.Outcome{}
		}
		if err := ctx.Err(); err != nil {
			return campaign.Outcome{Err: err}
		}
		faults := make([]geom.Point, 0, k)
		for len(faults) < k {
			cell := geom.Point{
				X: array.X + t.RNG.Intn(array.W),
				Y: array.Y + t.RNG.Intn(array.H),
			}
			if !containsPoint(faults, cell) {
				faults = append(faults, cell)
			}
		}
		rev := walk(t, nil, p, array, faults, maxLevel, anneal)
		return campaign.Outcome{Survived: rev.Survivable, Value: float64(len(rev.Levels))}
	}
}

// DefectYieldTrial returns the trial function of the defect-map yield
// campaign on p: each trial draws one die's defect map from gen on the
// trial's private RNG stream (defect.Uniform{Prob: q} fails every
// cell independently with probability q) and the chip is usable if
// the recovery ladder, capped at maxLevel, absorbs all its defects one
// at a time (see walk). With a schedule s the ladder may also
// downgrade modules (L2): the design-time local reconfiguration of
// defect.Reconfigure. Value is the number of defects on the die.
func DefectYieldTrial(s *schedule.Schedule, p *place.Placement, gen defect.Generator,
	maxLevel recovery.Level, anneal core.Options) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(ctx context.Context, t campaign.Trial) campaign.Outcome {
		if err := ctx.Err(); err != nil {
			return campaign.Outcome{Err: err}
		}
		defects := gen.Generate(array, t.RNG)
		rev := walk(t, s, p, array, defects, maxLevel, anneal)
		return campaign.Outcome{Survived: rev.Survivable, Value: float64(len(defects))}
	}
}

// walk absorbs faults into p in order with defect.Reconfigure, which
// climbs the recovery ladder from L1 (partial reconfiguration) to
// maxLevel (zero means L3) for each one, inside the fabricated array.
// Every L3 re-placement of the trial anneals with anneal and the seed
// campaign.DeriveSeed(t.Seed, 0). Each ladder call emits its
// recovery.ladder span under the trial's span and its metrics into the
// trial's registry.
func walk(t campaign.Trial, s *schedule.Schedule, p *place.Placement, array geom.Rect,
	faults []geom.Point, maxLevel recovery.Level, anneal core.Options) defect.Review {
	anneal.Seed = campaign.DeriveSeed(t.Seed, 0)
	return defect.Reconfigure(s, p, array, faults, recovery.Options{
		MaxLevel: maxLevel, Anneal: anneal, Telemetry: t.Tracer, Metrics: t.Metrics})
}

// AssayTrial returns the trial function of the end-to-end assay
// campaign: each trial executes the full schedule on the chip
// simulator with k faults injected at trial-random cells and times,
// recovering with the given mode. Each fault is transient (healing
// under the simulator's bounded-retry re-test) with probability
// transientProb. Survived means the assay completed every operation;
// a degraded run (ladder mode, operations abandoned) counts as
// non-survival but not as an error. Value is the deepest recovery
// level any fault forced (0 when no ladder invocation was needed).
func AssayTrial(s *schedule.Schedule, p *place.Placement, k int,
	mode sim.RecoveryMode, transientProb float64) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(_ context.Context, t campaign.Trial) campaign.Outcome {
		if k > array.Cells() {
			return campaign.Outcome{Err: fmt.Errorf("faultsim: %d faults exceed the %d-cell array", k, array.Cells())}
		}
		horizon := s.Makespan
		if horizon < 1 {
			horizon = 1
		}
		opts := sim.Options{
			Recovery:     mode,
			RecoverySeed: campaign.DeriveSeed(t.Seed, 0),
			Telemetry:    t.Tracer,
			Metrics:      t.Metrics,
		}
		var faults []sim.FaultInjection
		var cells []geom.Point
		for j := 0; j < k; j++ {
			cell := geom.Point{
				X: array.X + t.RNG.Intn(array.W),
				Y: array.Y + t.RNG.Intn(array.H),
			}
			if containsPoint(cells, cell) {
				j--
				continue
			}
			cells = append(cells, cell)
			f := sim.FaultInjection{
				TimeSec: t.RNG.Intn(horizon),
				Cell:    sim.ArrayCell(opts, cell),
			}
			if transientProb > 0 && t.RNG.Float64() < transientProb {
				f.TransientProbes = 1 + t.RNG.Intn(2)
			}
			faults = append(faults, f)
		}
		res := sim.Run(s, p, opts, faults...)
		out := campaign.Outcome{
			Survived: res.Outcome == sim.OutcomeCompleted,
			Value:    float64(res.Recovery.DeepestLevel),
		}
		if res.Outcome == sim.OutcomeFailed && res.FailReason == "" {
			out.Err = fmt.Errorf("faultsim: trial %d failed without a reason", t.Index)
		}
		return out
	}
}

func containsPoint(pts []geom.Point, p geom.Point) bool {
	for _, q := range pts {
		if q == p {
			return true
		}
	}
	return false
}
