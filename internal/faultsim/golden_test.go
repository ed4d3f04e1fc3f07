package faultsim

import (
	"context"
	"math"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/defect"
	"dmfb/internal/geom"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
)

// tightPlacement packs four always-on 2x2 modules into a 6x4 array
// with a thin free fringe, so multi-fault and yield campaigns have
// discriminating (non-saturated) survival rates.
func tightPlacement(t *testing.T) *place.Placement {
	t.Helper()
	mods := []place.Module{
		mod(0, 2, 2, 0, 10), mod(1, 2, 2, 0, 10),
		mod(2, 2, 2, 0, 10), mod(3, 2, 2, 0, 10),
		mod(4, 1, 1, 0, 10),
	}
	p := place.New(mods)
	p.Pos[0] = geom.Point{X: 0, Y: 0}
	p.Pos[1] = geom.Point{X: 2, Y: 0}
	p.Pos[2] = geom.Point{X: 0, Y: 2}
	p.Pos[3] = geom.Point{X: 2, Y: 2}
	p.Pos[4] = geom.Point{X: 5, Y: 3}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// pcrAreaPlacement is the deterministic seed-2 area-minimal PCR
// placement the goldens are pinned on.
func pcrAreaPlacement(t *testing.T) *place.Placement {
	t.Helper()
	prob := core.FromSchedule(pcr.MustSchedule())
	p, _, err := core.AnnealArea(prob, core.Options{Seed: 2, ItersPerModule: 120, WindowPatience: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenSequentialPresets pins every trial constructor's seeded
// campaign on two fixtures. Each value must hold at 1 and 4 workers:
// a campaign's aggregate depends only on (constructor, trials, seed).
// Drift means a constructor's draw order or recovery path changed — a
// breaking change for every seeded experiment in EXPERIMENTS.md. The
// multi and yield counts also pin fti.Site's choice of relocation
// site, since later defects strike the relocated modules.
func TestGoldenSequentialPresets(t *testing.T) {
	light := core.Options{Seed: 3, ItersPerModule: 40, WindowPatience: 2}
	uniform := defect.Uniform{Prob: 0.05}
	cases := []struct {
		name string
		p    *place.Placement
		// seeded survival counts
		single, multi, multiFull, yield, yieldFull, exhaustive, exhaustiveTrials int
		fti                                                                      float64
	}{
		{
			name: "tight", p: tightPlacement(t),
			single: 256, multi: 94, multiFull: 24, yield: 105, yieldFull: 21,
			exhaustive: 24, exhaustiveTrials: 24, fti: 1.0,
		},
		{
			name: "pcr-area", p: pcrAreaPlacement(t),
			single: 208, multi: 61, multiFull: 20, yield: 22, yieldFull: 5,
			exhaustive: 60, exhaustiveTrials: 77, fti: 0.779221,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, g := range []struct {
				name   string
				fn     campaign.TrialFunc
				trials int
				seed   int64
				want   int
			}{
				{"single", SingleFaultTrial(c.p), 256, 7, c.single},
				{"multi", MultiFaultTrial(c.p, 2, false, core.Options{}), 128, 5, c.multi},
				{"multi+full", MultiFaultTrial(c.p, 2, true, light), 24, 5, c.multiFull},
				{"yield", DefectYieldTrial(c.p, uniform, false, core.Options{}), 128, 9, c.yield},
				{"yield+full", DefectYieldTrial(c.p, uniform, true, light), 24, 9, c.yieldFull},
			} {
				for _, w := range []int{1, 4} {
					rep, err := campaign.Run(context.Background(),
						campaign.Config{Trials: g.trials, Seed: g.seed, Workers: w}, g.fn)
					if err != nil {
						t.Fatal(err)
					}
					if s := rep.Summary; s.Survived != g.want || s.Trials != g.trials {
						t.Errorf("%s(%d trials, seed %d) at %d workers = %d/%d, golden %d/%d",
							g.name, g.trials, g.seed, w, s.Survived, s.Trials, g.want, g.trials)
					}
				}
			}
			if s, err := Run(c.p, 256, 7, SingleFaultTrial(c.p)); err != nil || s.Survived != c.single {
				t.Errorf("Run(single, 256, 7) = %v (%v), golden %d/256", s, err, c.single)
			} else if math.Abs(s.PredictedFTI-c.fti) > 1e-6 {
				t.Errorf("PredictedFTI = %.6f, golden %.6f", s.PredictedFTI, c.fti)
			}
			if s := ExhaustiveSingleFault(c.p); s.Survived != c.exhaustive || s.Trials != c.exhaustiveTrials {
				t.Errorf("ExhaustiveSingleFault = %d/%d, golden %d/%d",
					s.Survived, s.Trials, c.exhaustive, c.exhaustiveTrials)
			}
		})
	}
}
