package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/faultsim"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
	"dmfb/internal/sim"
	"dmfb/internal/telemetry"
)

const (
	// campaignChipSeed, campaignChipBeta and campaignChipStarts fix the
	// chip every trial runs on: a two-stage PCR placement (80 cells,
	// FTI 1.0). The number of starts is a constant because the
	// multi-start search keeps the best start, so it sets the chip;
	// the start workers only bound concurrency.
	campaignChipSeed   = 1
	campaignChipBeta   = 40
	campaignChipStarts = 2
	// campaignFaults is the number of faults injected per trial.
	campaignFaults = 2
	// campaignTrials is the size of one campaign.Run, the workload's
	// op. Campaign c runs with a seed derived from the workload seed and
	// c; each campaign runs twice in a row, and the repeat must
	// reproduce the first summary byte for byte.
	campaignTrials = 100
	// campaignQuality is how many leading campaigns survival_rate
	// covers, so the figure does not depend on how many ran.
	campaignQuality = 40
	// deepLevel is the first recovery level that re-anneals (L3).
	deepLevel = 3
)

// assayCampaign runs end-to-end assay fault campaigns on a fixed chip:
// one op is one campaign.Run of campaignTrials trials of
// faultsim.AssayTrial (k = 2 faults, the L1–L4 recovery ladder) with
// one worker per CPU. A single trial (~0.4 ms) is too small an op: at
// ~30k trials a run, the tail percentile (10 ops beyond it) measured
// host scheduling hiccups, not the code, and moved 2× between runs.
// Trial times are per-layer figures.
type assayCampaign struct {
	sched     *schedule.Schedule
	chip      *place.Placement
	chipStats core.TwoStageResult
	first     []byte // the summary of the campaign running now, from its first run
	survived  int    // survivors of the first campaignQuality campaigns
	n         int    // campaign runs so far, across phases
}

func (w *assayCampaign) setup(b *bench) error {
	s, err := pcr.Schedule()
	if err != nil {
		return err
	}
	ts, err := campaignChip(s, b.workers)
	if err != nil {
		return err
	}
	w.sched, w.chip, w.chipStats = s, ts.Final, ts
	w.first, w.survived, w.n = nil, 0, 0
	return nil
}

// campaignChip places the campaign chip, running up to workers starts
// at once.
func campaignChip(s *schedule.Schedule, workers int) (core.TwoStageResult, error) {
	return core.TwoStage(core.FromSchedule(s), core.Options{Seed: campaignChipSeed,
		Search: place.SearchOptions{Starts: campaignChipStarts, Workers: workers}}, core.FTOptions{Beta: campaignChipBeta})
}

func (w *assayCampaign) run(b *bench, ph *phase) error {
	trial := faultsim.AssayTrial(w.sched, w.chip, campaignFaults, sim.RecoveryLadder, 0)
	for !ph.expired() || (w.n < 2*campaignQuality && ph.failures() == 0) || w.n%2 == 1 {
		i := w.n / 2
		hit := w.n%2 == 1
		w.n++
		ph.probe.sampleAll(b.workers)
		run := ph.tr.Start("campaign.Run")
		timed := func(ctx context.Context, t campaign.Trial) campaign.Outcome {
			if ph.tr == nil {
				return trial(ctx, t)
			}
			sp := ph.tr.StartChild("faultsim.AssayTrial", run.ID())
			t0 := time.Now()
			o := trial(ctx, t)
			ms := float64(time.Since(t0).Nanoseconds()) / 1e6
			sp.End(telemetry.Fields{"level": o.Value})
			if o.Value >= deepLevel {
				ph.observe("deep_ms", ms)
			} else {
				ph.observe("shallow_ms", ms)
			}
			return o
		}
		cfg := campaign.Config{Name: "perfbench", Trials: campaignTrials, Workers: b.workers,
			Seed: campaign.DeriveSeed(b.seed, uint64(i))}
		t0 := time.Now()
		rep, err := campaign.Run(context.Background(), cfg, timed)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		run.End(nil)
		if err != nil {
			return fmt.Errorf("campaign %d: %w", i, err)
		}
		ph.record(ms, hit, w.check(i, hit, rep))
	}
	return nil
}

// check requires a campaign without trial errors whose repeat
// reproduces its deterministic summary byte for byte.
func (w *assayCampaign) check(i int, repeat bool, rep campaign.Report) error {
	if rep.Summary.Errors != 0 {
		return fmt.Errorf("campaign %d: %d trial errors", i, rep.Summary.Errors)
	}
	sum, err := rep.Summary.MarshalDeterministic()
	if err != nil {
		return err
	}
	if repeat {
		if !bytes.Equal(w.first, sum) {
			return fmt.Errorf("campaign %d: summary differs from its first run", i)
		}
		return nil
	}
	w.first = sum
	if i < campaignQuality {
		w.survived += rep.Summary.Survived
	}
	return nil
}

func (w *assayCampaign) finish(b *bench) (quality, error) {
	if w.n < 2*campaignQuality {
		return quality{}, fmt.Errorf("only %d of %d campaign runs completed", w.n, 2*campaignQuality)
	}
	q := designQuality(b, []*place.Placement{w.chip})
	q.SurvivalRate = float64(w.survived) / float64(campaignQuality*campaignTrials)
	return q, nil
}

func (w *assayCampaign) layers(b *bench, ph *phase, spans map[string]spanStat, m metrics) error {
	trialMS, wall := spans["faultsim.AssayTrial"].TotalMS, spans["campaign.Run"].TotalMS
	m.set("campaign.busy_frac", trialMS/(wall*float64(b.workers)), "fraction")
	deep, shallow := ph.series["deep_ms"], ph.series["shallow_ms"]
	m.set("sim.shallow_trial_ms", meanOf(shallow), "ms")
	m.set("recovery.deep_trial_ms", meanOf(deep), "ms")
	m.set("recovery.deep_share", float64(len(deep))/float64(len(deep)+len(shallow)), "fraction")
	if b.workers > 1 {
		b.details["campaign_parallelism"] = trialMS / wall
	} else {
		b.details["campaign_parallelism"] = nil // not measurable on one CPU
	}
	m.set("anneal.levels", float64(w.chipStats.Stage1Stats.Levels+w.chipStats.Stage2Stats.Levels), "count")
	return replayFTILayers([]*place.Placement{w.chip}, m)
}

func (w *assayCampaign) close() {}
