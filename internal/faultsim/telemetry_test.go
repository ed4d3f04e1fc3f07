package faultsim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/defect"
	"dmfb/internal/recovery"
	"dmfb/internal/telemetry"
)

// ladderMetrics returns the reconfig.* and recovery.* counters and
// histogram counts of reg.
func ladderMetrics(reg *telemetry.Registry) map[string]int64 {
	snap := reg.Snapshot()
	out := map[string]int64{}
	keep := func(name string) bool {
		return strings.HasPrefix(name, "reconfig.") || strings.HasPrefix(name, "recovery.")
	}
	for name, v := range snap.Counters {
		if keep(name) {
			out[name] = v
		}
	}
	for name, h := range snap.Histograms {
		if keep(name) {
			out[name+" count"] = h.Count
		}
	}
	return out
}

// TestConcurrentCampaignsKeepTheirMetrics runs two multi-fault
// campaigns at once in one process, each with its own registry: each
// registry must hold exactly what its campaign records when it runs
// alone, so no trial's reconfig.* or recovery.* metrics leak into the
// other campaign's registry.
func TestConcurrentCampaignsKeepTheirMetrics(t *testing.T) {
	p := pcrAreaPlacement(t)
	cfgs := []campaign.Config{
		{Name: "k2", Trials: 200, Seed: 1, Workers: 2},
		{Name: "k3", Trials: 300, Seed: 2, Workers: 2},
	}
	fns := []campaign.TrialFunc{
		MultiFaultTrial(p, 2, recovery.LevelRelocate, core.Options{}),
		MultiFaultTrial(p, 3, recovery.LevelRelocate, core.Options{}),
	}
	run := func(i int) map[string]int64 {
		cfg := cfgs[i]
		cfg.Metrics = telemetry.NewRegistry()
		if _, err := campaign.Run(context.Background(), cfg, fns[i]); err != nil {
			t.Error(err)
		}
		return ladderMetrics(cfg.Metrics)
	}
	alone := []map[string]int64{run(0), run(1)}
	together := make([]map[string]int64, 2)
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = run(i)
		}()
	}
	wg.Wait()
	for i, cfg := range cfgs {
		if alone[i]["recovery.invocations"] == 0 || alone[i]["reconfig.relocations"] == 0 {
			t.Errorf("%s: no ladder metrics recorded: %v", cfg.Name, alone[i])
		}
		if len(together[i]) != len(alone[i]) {
			t.Errorf("%s: concurrent metrics %v, alone %v", cfg.Name, together[i], alone[i])
			continue
		}
		for name, v := range alone[i] {
			if together[i][name] != v {
				t.Errorf("%s: %s = %d beside another campaign, %d alone", cfg.Name, name, together[i][name], v)
			}
		}
	}
}

// TestCampaignLadderSpansUnderTrials: a traced multi-fault or yield
// campaign emits one recovery.ladder span per ladder call (counted by
// recovery.invocations in the campaign's registry), each under its
// campaign.trial span.
func TestCampaignLadderSpansUnderTrials(t *testing.T) {
	p := pcrAreaPlacement(t)
	for name, fn := range map[string]campaign.TrialFunc{
		"multi": MultiFaultTrial(p, 2, recovery.LevelRelocate, core.Options{}),
		"yield": DefectYieldTrial(nil, p, defect.Uniform{Prob: 0.02}, recovery.LevelRelocate, core.Options{}),
	} {
		var buf bytes.Buffer
		cfg := campaign.Config{Name: name, Trials: 40, Seed: 3, Workers: 2,
			Tracer: telemetry.New(&buf), Metrics: telemetry.NewRegistry()}
		if _, err := campaign.Run(context.Background(), cfg, fn); err != nil {
			t.Fatal(err)
		}
		type rec struct {
			Name string `json:"name"`
			ID   uint64 `json:"id"`
			Par  uint64 `json:"par"`
		}
		var recs []rec
		names := map[uint64]string{}
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var r rec
			if err := dec.Decode(&r); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
			names[r.ID] = r.Name
		}
		ladders := 0
		for _, r := range recs {
			if r.Name != "recovery.ladder" {
				continue
			}
			ladders++
			if names[r.Par] != "campaign.trial" {
				t.Errorf("%s: recovery.ladder span %d has parent %d (%q), want a campaign.trial span",
					name, r.ID, r.Par, names[r.Par])
			}
		}
		calls := cfg.Metrics.Counter("recovery.invocations").Value()
		if calls == 0 || int64(ladders) != calls {
			t.Errorf("%s: %d recovery.ladder spans for %d ladder calls", name, ladders, calls)
		}
	}
}
