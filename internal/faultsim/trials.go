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
		cell := geom.Point{
			X: array.X + t.RNG.Intn(array.W),
			Y: array.Y + t.RNG.Intn(array.H),
		}
		rels, err := reconfig.Plan(p, array, cell)
		if err != nil {
			return campaign.Outcome{}
		}
		return campaign.Outcome{Survived: true, Value: float64(len(rels))}
	}
}

// ExhaustiveTrial returns the trial function that sweeps every array
// cell: trial t injects the fault at cell t in scan order, so a
// campaign with exactly array.Cells() trials measures the FTI exactly.
func ExhaustiveTrial(p *place.Placement) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(_ context.Context, t campaign.Trial) campaign.Outcome {
		cell := geom.Point{
			X: array.X + t.Index%array.W,
			Y: array.Y + t.Index/array.W,
		}
		rels, err := reconfig.Plan(p, array, cell)
		if err != nil {
			return campaign.Outcome{}
		}
		return campaign.Outcome{Survived: true, Value: float64(len(rels))}
	}
}

// MultiFaultTrial returns the trial function of the sequential k-fault
// campaign on p: k distinct faults injected one at a time, partial
// reconfiguration after each, with full re-placement as a fallback
// when withFull is set. Value is the number of faults absorbed before
// the first unrecoverable one (k when the trial survives).
func MultiFaultTrial(p *place.Placement, k int, withFull bool, opts core.Options) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(ctx context.Context, t campaign.Trial) campaign.Outcome {
		if k > array.Cells() {
			return campaign.Outcome{}
		}
		cur := p.Clone()
		var dead []geom.Point
		for j := 0; j < k; j++ {
			if err := ctx.Err(); err != nil {
				return campaign.Outcome{Err: err}
			}
			cell := geom.Point{
				X: array.X + t.RNG.Intn(array.W),
				Y: array.Y + t.RNG.Intn(array.H),
			}
			if containsPoint(dead, cell) {
				j--
				continue
			}
			if _, err := reconfig.Recover(cur, array, cell, dead...); err == nil {
				dead = append(dead, cell)
				continue
			}
			if withFull {
				o := opts
				o.Seed = campaign.DeriveSeed(t.Seed, uint64(j))
				if full, err := core.FullReconfigure(cur, append(append([]geom.Point(nil), dead...), cell), o); err == nil {
					cur = full
					dead = append(dead, cell)
					continue
				}
			}
			return campaign.Outcome{Value: float64(len(dead))}
		}
		return campaign.Outcome{Survived: true, Value: float64(k)}
	}
}

// DefectYieldTrial returns the trial function of the defect-map yield
// campaign on p: each trial draws one die's defect map from gen on the
// trial's private RNG stream (defect.Uniform{Prob: q} fails every
// cell independently with probability q) and the chip is usable if
// the configuration absorbs all its defects one at a time by partial
// reconfiguration, with full re-placement as a fallback when withFull
// is set. Value is the number of defects on the die.
func DefectYieldTrial(p *place.Placement, gen defect.Generator, withFull bool, opts core.Options) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(ctx context.Context, t campaign.Trial) campaign.Outcome {
		defects := gen.Generate(array, t.RNG)
		n := float64(len(defects))
		cur := p.Clone()
		var dead []geom.Point
		for _, cell := range defects {
			if err := ctx.Err(); err != nil {
				return campaign.Outcome{Err: err}
			}
			if _, err := reconfig.Recover(cur, array, cell, dead...); err == nil {
				dead = append(dead, cell)
				continue
			}
			if withFull {
				o := opts
				o.Seed = campaign.DeriveSeed(t.Seed, uint64(len(dead)))
				if full, err := core.FullReconfigure(cur, append(append([]geom.Point(nil), dead...), cell), o); err == nil {
					cur = full
					dead = append(dead, cell)
					continue
				}
			}
			return campaign.Outcome{Value: n}
		}
		return campaign.Outcome{Survived: true, Value: n}
	}
}

// LadderYieldTrial returns the trial function of the design-time
// local-reconfiguration yield campaign: each trial draws one die's
// defect map from gen and asks defect.Reconfigure whether the full
// recovery ladder (L1 relocate, L2 downgrade, L3 defragment) absorbs
// every defect before the assay starts. Survived means the die runs
// the schedule as designed, possibly stretched; Value is the number
// of defects on the die.
func LadderYieldTrial(s *schedule.Schedule, p *place.Placement, gen defect.Generator, anneal core.Options) campaign.TrialFunc {
	array := p.BoundingBox()
	return func(ctx context.Context, t campaign.Trial) campaign.Outcome {
		if err := ctx.Err(); err != nil {
			return campaign.Outcome{Err: err}
		}
		defects := gen.Generate(array, t.RNG)
		o := anneal
		o.Seed = campaign.DeriveSeed(t.Seed, 0)
		rev := defect.Reconfigure(s, p, array, defects, defect.ReconfigureOptions{Anneal: o})
		return campaign.Outcome{Survived: rev.Survivable, Value: float64(len(defects))}
	}
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
			Span:         t.Span,
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
