package faultsim

import (
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/defect"
	"dmfb/internal/pcr"
)

func TestYieldAtZeroDefectDensity(t *testing.T) {
	p := spaced()
	s := mustRun(t, p, 50, 1, DefectYieldTrial(p, defect.Uniform{Prob: 0}, false, core.Options{}))
	if s.SurvivalRate() != 1 {
		t.Errorf("yield at q=0 is %.3f, want 1", s.SurvivalRate())
	}
}

func TestYieldDecreasesWithDefectDensity(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())
	res, err := core.TwoStage(prob, core.Options{Seed: 1, ItersPerModule: 120, WindowPatience: 4},
		core.FTOptions{Beta: 40})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Final
	prev := 1.1
	for _, q := range []float64{0.005, 0.02, 0.08} {
		s := mustRun(t, p, 60, 3, DefectYieldTrial(p, defect.Uniform{Prob: q}, false, core.Options{}))
		rate := s.SurvivalRate()
		if rate > prev+0.1 { // sampling tolerance
			t.Errorf("yield increased with defect density: q=%.3f rate=%.3f prev=%.3f",
				q, rate, prev)
		}
		prev = rate
	}
}

func TestYieldFullFallbackHelps(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())
	p, _, err := core.AnnealArea(prob, core.Options{Seed: 1, ItersPerModule: 150, WindowPatience: 5})
	if err != nil {
		t.Fatal(err)
	}
	const q, trials = 0.02, 30
	partial := mustRun(t, p, trials, 5, DefectYieldTrial(p, defect.Uniform{Prob: q}, false, core.Options{}))
	full := mustRun(t, p, trials, 5, DefectYieldTrial(p, defect.Uniform{Prob: q}, true, lightOpts(1)))
	if full.Survived < partial.Survived {
		t.Errorf("full fallback yield %d below partial-only %d", full.Survived, partial.Survived)
	}
	t.Logf("q=%.3f: partial-only yield %.3f, with full fallback %.3f",
		q, partial.SurvivalRate(), full.SurvivalRate())
}

func TestYieldDeterministicPerSeed(t *testing.T) {
	p := spaced()
	a := mustRun(t, p, 100, 9, DefectYieldTrial(p, defect.Uniform{Prob: 0.05}, false, core.Options{}))
	b := mustRun(t, p, 100, 9, DefectYieldTrial(p, defect.Uniform{Prob: 0.05}, false, core.Options{}))
	if a != b {
		t.Error("same seed gave different yield")
	}
}
