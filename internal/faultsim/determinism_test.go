package faultsim

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/recovery"
)

// The determinism contract of the campaign engine, exercised on a real
// fault-injection workload: a 512-trial multi-fault campaign produces
// byte-identical aggregated JSON at every worker count, and a campaign
// killed mid-flight and resumed from its checkpoint matches an
// uninterrupted run exactly.

func runMulti512(t *testing.T, cfg campaign.Config, fn campaign.TrialFunc) campaign.Report {
	t.Helper()
	rep, err := campaign.Run(context.Background(), cfg, fn)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestDeterminism512AcrossWorkerCounts(t *testing.T) {
	p := tightPlacement(t)
	fn := MultiFaultTrial(p, 3, recovery.LevelRelocate, core.Options{})
	base := campaign.Config{Name: "det512", Trials: 512, Seed: 1}

	var jsons []string
	var survived int
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = w
		rep := runMulti512(t, cfg, fn)
		b, err := rep.Summary.MarshalDeterministic()
		if err != nil {
			t.Fatal(err)
		}
		jsons = append(jsons, string(b))
		survived = rep.Summary.Survived
	}
	if jsons[0] != jsons[1] || jsons[1] != jsons[2] {
		t.Errorf("aggregated JSON differs across worker counts:\nw=1:\n%s\nw=4:\n%s\nw=max:\n%s",
			jsons[0], jsons[1], jsons[2])
	}
	// Golden pin: the multi-fault survival count on the tight fixture.
	// Drift means the per-trial RNG derivation or the recovery path
	// changed — both break every recorded campaign.
	const golden = 167
	if survived != golden {
		t.Errorf("512-trial campaign survived %d, golden %d", survived, golden)
	}
}

func TestDeterminismKillAndResumeMatchesUninterrupted(t *testing.T) {
	p := tightPlacement(t)
	fn := MultiFaultTrial(p, 3, recovery.LevelRelocate, core.Options{})

	uninterrupted := runMulti512(t, campaign.Config{Name: "det512", Trials: 512, Seed: 1}, fn)

	ckpt := filepath.Join(t.TempDir(), "det512.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	_, err := campaign.Run(ctx, campaign.Config{
		Name: "det512", Trials: 512, Seed: 1, Workers: 4, Checkpoint: ckpt,
		Progress: func(d, total int) {
			if done.Add(1) == 150 {
				cancel() // the "kill"
			}
		}}, fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected mid-campaign cancellation, got %v", err)
	}

	resumed, err := campaign.Run(context.Background(), campaign.Config{
		Name: "det512", Trials: 512, Seed: 1, Workers: 2, Checkpoint: ckpt, Resume: true}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed < 150 {
		t.Errorf("resume replayed only %d checkpointed trials", resumed.Resumed)
	}
	a, _ := uninterrupted.Summary.MarshalDeterministic()
	b, _ := resumed.Summary.MarshalDeterministic()
	if string(a) != string(b) {
		t.Errorf("killed-and-resumed campaign differs from uninterrupted run:\n%s\nvs\n%s", b, a)
	}
}
