package campaign

import (
	"context"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// A trial caught in flight by a campaign cancellation must not be
// recorded (or checkpointed) as an errored trial: the cancellation is
// a fact about the kill, not about the trial, and a resume — or a
// re-issued range — must re-run it so the final summary is
// bit-identical to an uninterrupted run.
func TestCancelledInFlightTrialIsNotCheckpointed(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			const trials = 10
			release := make(chan struct{})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var finished atomic.Int32
			fn := func(tctx context.Context, tr Trial) Outcome {
				if tr.Index == 5 {
					select {
					case <-release: // resume path: run normally
					case <-tctx.Done(): // first run: caught by the kill
						return Outcome{Err: tctx.Err()}
					}
				} else if finished.Add(1) == trials-1 {
					cancel() // everything but the blocked trial has run
				}
				return Outcome{Survived: true, Value: 1}
			}

			cfg := Config{Name: "cancel", Trials: trials, Seed: 7, Workers: 4}
			if ep.name == "Run" {
				cfg.Checkpoint = filepath.Join(t.TempDir(), "cancel.jsonl")
			}
			partial, err := ep.run(ctx, cfg, fn)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("expected cancellation, got %v", err)
			}
			if partial.Errors != 0 || partial.Trials != trials-1 {
				t.Errorf("cancelled run recorded %d trials with %d errors, want %d with none",
					partial.Trials, partial.Errors, trials-1)
			}
			close(release)
			if cfg.Checkpoint == "" {
				return
			}

			cfg.Workers, cfg.Resume = 2, true
			rep, err := Run(context.Background(), cfg, fn)
			if err != nil {
				t.Fatal(err)
			}
			s := rep.Summary
			if s.Errors != 0 {
				t.Errorf("resumed campaign replayed %d phantom cancellation error(s)", s.Errors)
			}
			if s.Survived != trials {
				t.Errorf("resumed campaign survived %d/%d", s.Survived, trials)
			}
			if rep.Resumed != trials-1 {
				t.Errorf("resume replayed %d checkpointed trials, want %d", rep.Resumed, trials-1)
			}
		})
	}
}
