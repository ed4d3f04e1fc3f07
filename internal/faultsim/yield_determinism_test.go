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
	"dmfb/internal/defect"
	"dmfb/internal/pcr"
	"dmfb/internal/recovery"
)

// The determinism contract extended to defect-map yield campaigns: a
// 512-trial clustered-defect yield campaign produces byte-identical
// aggregated JSON at every worker count and across a kill/resume.

func clusteredGen() defect.Generator {
	return defect.Clustered{Prob: 0.04, ClusterSize: 4, Radius: 2}
}

func TestYieldDeterminism512AcrossWorkerCounts(t *testing.T) {
	p := tightPlacement(t)
	fn := DefectYieldTrial(nil, p, clusteredGen(), recovery.LevelRelocate, core.Options{})
	base := campaign.Config{Name: "yield512", Trials: 512, Seed: 1}

	var jsons []string
	var survived int
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = w
		rep, err := campaign.Run(context.Background(), cfg, fn)
		if err != nil {
			t.Fatal(err)
		}
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
	// Golden pin: the clustered-defect yield survival count on the
	// tight fixture. Drift means the cluster draw order or the
	// recovery path changed — both break recorded yield campaigns.
	const golden = 450
	if survived != golden {
		t.Errorf("512-trial clustered yield campaign survived %d, golden %d", survived, golden)
	}
}

func TestYieldDeterminismKillAndResume(t *testing.T) {
	p := tightPlacement(t)
	fn := DefectYieldTrial(nil, p, clusteredGen(), recovery.LevelRelocate, core.Options{})

	uninterrupted, err := campaign.Run(context.Background(),
		campaign.Config{Name: "yield512", Trials: 512, Seed: 1}, fn)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "yield512.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	_, err = campaign.Run(ctx, campaign.Config{
		Name: "yield512", Trials: 512, Seed: 1, Workers: 4, Checkpoint: ckpt,
		Progress: func(d, total int) {
			if done.Add(1) == 150 {
				cancel() // the "kill"
			}
		}}, fn)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected mid-campaign cancellation, got %v", err)
	}

	resumed, err := campaign.Run(context.Background(), campaign.Config{
		Name: "yield512", Trials: 512, Seed: 1, Workers: 2, Checkpoint: ckpt, Resume: true}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed < 150 {
		t.Errorf("resume replayed only %d checkpointed trials", resumed.Resumed)
	}
	a, _ := uninterrupted.Summary.MarshalDeterministic()
	b, _ := resumed.Summary.MarshalDeterministic()
	if string(a) != string(b) {
		t.Errorf("killed-and-resumed yield campaign differs from uninterrupted run:\n%s\nvs\n%s", b, a)
	}
}

// TestLadderYieldDeterministicAcrossWorkers runs the design-time
// local-reconfiguration yield workload on the annealed PCR fixture:
// worker counts must not change the aggregate (the L3 anneal seeds
// derive from the trial seed, never from shared state), and the
// seeded survival count is pinned.
func TestLadderYieldDeterministicAcrossWorkers(t *testing.T) {
	sched := pcr.MustSchedule()
	p := pcrAreaPlacement(t)
	fn := DefectYieldTrial(sched, p, clusteredGen(), recovery.LevelDefragment, core.Options{Seed: 3, ItersPerModule: 40, WindowPatience: 2})
	var jsons []string
	for _, w := range []int{1, 4} {
		rep, err := campaign.Run(context.Background(),
			campaign.Config{Name: "yield-ladder", Trials: 48, Seed: 5, Workers: w}, fn)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Summary.Survived != 40 {
			t.Errorf("ladder yield at %d workers survived %d/48, golden 40/48", w, rep.Summary.Survived)
		}
		b, _ := rep.Summary.MarshalDeterministic()
		jsons = append(jsons, string(b))
	}
	if jsons[0] != jsons[1] {
		t.Errorf("ladder yield differs across worker counts:\n%s\nvs\n%s", jsons[0], jsons[1])
	}
}

// TestFileModelYieldIsTrialIndependent checks the file model: every
// trial sees the same die, so a campaign's survival is all-or-nothing.
func TestFileModelYieldIsTrialIndependent(t *testing.T) {
	p := tightPlacement(t)
	f, err := defect.ParseMap("......\nX.....\n......\n......\n")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(context.Background(),
		campaign.Config{Name: "yield-file", Trials: 64, Seed: 2},
		DefectYieldTrial(nil, p, f, recovery.LevelRelocate, core.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if s := rep.Summary.Survived; s != 0 && s != 64 {
		t.Errorf("fixed-map campaign survived %d/64 trials, want all-or-nothing", s)
	}
}
