package faultsim

import (
	"math"
	"strings"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/geom"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/recovery"
)

func mod(id int, w, h, s, e int) place.Module {
	return place.Module{ID: id, Name: "M", Size: geom.Size{W: w, H: h},
		Span: geom.Interval{Start: s, End: e}}
}

// spaced returns a 2x2 module placed in the corner of a roomy array.
func spaced() *place.Placement {
	mods := []place.Module{mod(0, 2, 2, 0, 10), mod(1, 2, 2, 0, 10)}
	p := place.New(mods)
	p.Pos[1] = geom.Point{X: 6, Y: 6}
	return p
}

// mustRun is Run for tests: a campaign the engine rejects is fatal.
func mustRun(t *testing.T, p *place.Placement, trials int, seed int64, fn campaign.TrialFunc) Summary {
	t.Helper()
	s, err := Run(p, trials, seed, fn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunRejectsEmptyCampaign(t *testing.T) {
	p := spaced()
	for _, trials := range []int{0, -3} {
		if _, err := Run(p, trials, 1, SingleFaultTrial(p), nil); err == nil {
			t.Errorf("Run accepted %d trials", trials)
		}
	}
}

func TestExhaustiveMatchesFTIExactly(t *testing.T) {
	// An empty placement sweeps zero cells instead of failing.
	placements := []*place.Placement{spaced(), place.New(nil)}
	// Add the PCR area-minimal and fault-tolerant placements.
	prob := core.FromSchedule(pcr.MustSchedule())
	s1, _, err := core.AnnealArea(prob, core.Options{Seed: 2, ItersPerModule: 120, WindowPatience: 4})
	if err != nil {
		t.Fatal(err)
	}
	placements = append(placements, s1)
	for i, p := range placements {
		s := ExhaustiveSingleFault(p)
		if math.Abs(s.SurvivalRate()-s.PredictedFTI) > 1e-12 {
			t.Errorf("placement %d: measured %.4f != FTI %.4f", i, s.SurvivalRate(), s.PredictedFTI)
		}
		if s.Trials != p.ArrayCells() {
			t.Errorf("placement %d: trials %d != cells %d", i, s.Trials, p.ArrayCells())
		}
	}
}

func TestSingleFaultConvergesToFTI(t *testing.T) {
	p := spaced()
	s := mustRun(t, p, 4000, 1, SingleFaultTrial(p))
	if math.Abs(s.SurvivalRate()-s.PredictedFTI) > 0.05 {
		t.Errorf("Monte-Carlo %.4f too far from FTI %.4f", s.SurvivalRate(), s.PredictedFTI)
	}
	if !strings.Contains(s.String(), "survived") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSingleFaultDeterministicPerSeed(t *testing.T) {
	p := spaced()
	a := mustRun(t, p, 500, 7, SingleFaultTrial(p))
	b := mustRun(t, p, 500, 7, SingleFaultTrial(p))
	if a != b {
		t.Error("same seed, different campaign results")
	}
}

func TestMultiFaultDegradesMonotonically(t *testing.T) {
	p := spaced()
	prev := 1.1
	for _, k := range []int{1, 3, 6} {
		s := mustRun(t, p, 400, 3, MultiFaultTrial(p, k, recovery.LevelRelocate, core.Options{}))
		rate := s.SurvivalRate()
		if rate > prev+0.05 { // sampling tolerance
			t.Errorf("survival increased with more faults: k=%d rate=%.3f prev=%.3f", k, rate, prev)
		}
		prev = rate
	}
	// Absurd k: zero trials survive (cannot even place k faults).
	s := mustRun(t, p, 10, 1, MultiFaultTrial(p, 10000, recovery.LevelRelocate, core.Options{}))
	if s.Survived != 0 {
		t.Error("k > cells should survive nothing")
	}
}

func TestMultiFaultSingleEqualsMonteCarloSingle(t *testing.T) {
	p := spaced()
	mf := mustRun(t, p, 3000, 11, MultiFaultTrial(p, 1, recovery.LevelRelocate, core.Options{}))
	if math.Abs(mf.SurvivalRate()-mf.PredictedFTI) > 0.05 {
		t.Errorf("MultiFaultTrial(k=1) survival %.4f far from FTI %.4f", mf.SurvivalRate(), mf.PredictedFTI)
	}
}

func TestConfidenceIntervalCoversFTI(t *testing.T) {
	p := spaced()
	s := mustRun(t, p, 2000, 3, SingleFaultTrial(p))
	lo, hi := s.ConfidenceInterval95()
	if s.PredictedFTI < lo || s.PredictedFTI > hi {
		t.Errorf("FTI %.4f outside 95%% interval [%.4f, %.4f]", s.PredictedFTI, lo, hi)
	}
	if hi <= lo {
		t.Error("degenerate interval")
	}
}
