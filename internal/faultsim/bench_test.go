package faultsim

import (
	"context"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/defect"
	"dmfb/internal/recovery"
)

// The partial-only campaign workloads on the pcr-area fixture: 200
// trials on one worker per op, so ns/op and allocs/op are the cost of
// walking faults through the recovery ladder at L1.

func benchCampaign(b *testing.B, fn campaign.TrialFunc) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(context.Background(),
			campaign.Config{Trials: 200, Seed: 5, Workers: 1}, fn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMultiFaultTrial(b *testing.B) {
	p := pcrAreaPlacement(b)
	benchCampaign(b, MultiFaultTrial(p, 2, recovery.LevelRelocate, core.Options{}))
}

func BenchmarkDefectYieldTrial(b *testing.B) {
	p := pcrAreaPlacement(b)
	benchCampaign(b, DefectYieldTrial(nil, p, defect.Uniform{Prob: 0.05}, recovery.LevelRelocate, core.Options{}))
}
