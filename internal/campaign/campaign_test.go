package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dmfb/internal/telemetry"
)

// entryPoints runs a whole campaign through Run and through one
// full-width RunRange merged by Summarize, so tests of the shared
// worker loop (panics, timeouts, in-flight cancellation) cover both.
var entryPoints = []struct {
	name string
	run  func(ctx context.Context, cfg Config, fn TrialFunc) (Summary, error)
}{
	{"Run", func(ctx context.Context, cfg Config, fn TrialFunc) (Summary, error) {
		rep, err := Run(ctx, cfg, fn)
		return rep.Summary, err
	}},
	{"RunRange", func(ctx context.Context, cfg Config, fn TrialFunc) (Summary, error) {
		rs, err := RunRange(ctx, cfg, fn, 0, cfg.Trials)
		return Summarize(cfg.Name, cfg.Seed, rs), err
	}},
}

// coinTrial is a deterministic pseudo-workload: survival and value are
// pure functions of the trial's RNG stream.
func coinTrial(_ context.Context, t Trial) Outcome {
	v := t.RNG.Intn(100)
	return Outcome{Survived: v < 70, Value: float64(v)}
}

func TestRunRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Trials: 10}, nil); err == nil {
		t.Error("nil trial function accepted")
	}
	if _, err := Run(ctx, Config{Trials: 0}, coinTrial); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := Run(ctx, Config{Trials: 1, Resume: true}, coinTrial); err == nil {
		t.Error("Resume without Checkpoint accepted")
	}
}

func TestRunAggregates(t *testing.T) {
	rep, err := Run(context.Background(), Config{Name: "coin", Trials: 1000, Seed: 5}, coinTrial)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if s.Trials != 1000 || s.Errors != 0 {
		t.Fatalf("summary = %+v", s)
	}
	if s.SurvivalRate < 0.6 || s.SurvivalRate > 0.8 {
		t.Errorf("survival %.3f far from 0.7", s.SurvivalRate)
	}
	if !(s.Wilson95Lo < s.SurvivalRate && s.SurvivalRate < s.Wilson95Hi) {
		t.Errorf("rate %.3f outside its own CI [%.3f, %.3f]", s.SurvivalRate, s.Wilson95Lo, s.Wilson95Hi)
	}
	if s.Values == nil || s.Values.N != 1000 || s.Values.Min < 0 || s.Values.Max > 99 {
		t.Errorf("values summary = %+v", s.Values)
	}
	if rep.Workers != runtime.GOMAXPROCS(0) && rep.Workers != 1000 {
		t.Errorf("workers = %d", rep.Workers)
	}
	if rep.TrialMS.N != 1000 {
		t.Errorf("trial timing over %d trials, want 1000", rep.TrialMS.N)
	}
	if !strings.Contains(s.String(), "survived") {
		t.Errorf("String = %q", s.String())
	}
}

func TestRunErrorsCounted(t *testing.T) {
	rep, err := Run(context.Background(), Config{Trials: 10, Seed: 1},
		func(_ context.Context, t Trial) Outcome {
			if t.Index%2 == 0 {
				return Outcome{Survived: true, Err: errors.New("broken rig")}
			}
			return Outcome{Survived: true}
		})
	if err != nil {
		t.Fatal(err)
	}
	// An erroneous trial never counts as survived, even if the trial
	// function claimed both.
	if rep.Summary.Errors != 5 || rep.Summary.Survived != 5 {
		t.Errorf("errors=%d survived=%d, want 5/5", rep.Summary.Errors, rep.Summary.Survived)
	}
}

func TestPerTrialTimeout(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			s, err := ep.run(context.Background(), Config{Trials: 8, Seed: 1, TrialTimeout: 20 * time.Millisecond},
				func(ctx context.Context, tr Trial) Outcome {
					if tr.Index == 3 {
						<-ctx.Done() // a hung trial, released by the timeout
						time.Sleep(time.Millisecond)
						return Outcome{Survived: true}
					}
					return Outcome{Survived: true}
				})
			if err != nil {
				t.Fatal(err)
			}
			if s.Errors != 1 || s.Survived != 7 {
				t.Errorf("errors=%d survived=%d, want 1 timeout and 7 survivals", s.Errors, s.Survived)
			}
		})
	}
}

func TestCancellationStopsEarlyAndKeepsCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	rep, err := Run(ctx, Config{Name: "stop", Trials: 10000, Seed: 2, Workers: 2, Checkpoint: ckpt,
		Progress: func(d, total int) {
			if done.Add(1) == 50 {
				cancel()
			}
		}}, coinTrial)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Summary.Trials >= 10000 || rep.Summary.Trials < 50 {
		t.Errorf("completed %d trials, want partial >= 50", rep.Summary.Trials)
	}
	data, rerr := os.ReadFile(ckpt)
	if rerr != nil {
		t.Fatal(rerr)
	}
	lines := strings.Count(string(data), "\n")
	if lines != rep.Summary.Trials+1 { // header + one line per completed trial
		t.Errorf("checkpoint has %d lines for %d completed trials", lines, rep.Summary.Trials)
	}
}

func TestResumeCompletesPartialCampaign(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	full, err := Run(context.Background(), Config{Name: "r", Trials: 300, Seed: 9}, coinTrial)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int32
	_, err = Run(ctx, Config{Name: "r", Trials: 300, Seed: 9, Workers: 2, Checkpoint: ckpt,
		Progress: func(d, total int) {
			if done.Add(1) == 100 {
				cancel()
			}
		}}, coinTrial)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected cancellation, got %v", err)
	}

	resumed, err := Run(context.Background(),
		Config{Name: "r", Trials: 300, Seed: 9, Checkpoint: ckpt, Resume: true}, coinTrial)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed < 100 {
		t.Errorf("resumed only %d trials from checkpoint", resumed.Resumed)
	}
	a, _ := full.Summary.MarshalDeterministic()
	b, _ := resumed.Summary.MarshalDeterministic()
	if string(a) != string(b) {
		t.Errorf("resumed summary differs from uninterrupted run:\n%s\nvs\n%s", b, a)
	}
}

func TestResumeRefusesForeignCheckpoint(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	if _, err := Run(context.Background(),
		Config{Name: "a", Trials: 10, Seed: 1, Checkpoint: ckpt}, coinTrial); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(),
		Config{Name: "b", Trials: 10, Seed: 1, Checkpoint: ckpt, Resume: true}, coinTrial)
	if err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Errorf("foreign checkpoint accepted: %v", err)
	}
	_, err = Run(context.Background(),
		Config{Name: "a", Trials: 20, Seed: 1, Checkpoint: ckpt, Resume: true}, coinTrial)
	if err == nil {
		t.Error("trial-count mismatch accepted")
	}
}

func TestResumeToleratesTornTail(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.jsonl")
	if _, err := Run(context.Background(),
		Config{Name: "torn", Trials: 20, Seed: 4, Checkpoint: ckpt}, coinTrial); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill mid-write: truncate the last record in half.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckpt, data[:len(data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(),
		Config{Name: "torn", Trials: 20, Seed: 4, Checkpoint: ckpt, Resume: true}, coinTrial)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Summary.Trials != 20 {
		t.Errorf("resume after torn tail completed %d/20 trials", rep.Summary.Trials)
	}
}

func TestMetricsWired(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			if _, err := ep.run(context.Background(),
				Config{Trials: 50, Seed: 1, Metrics: reg}, coinTrial); err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("campaign.trials").Value(); n != 50 {
				t.Errorf("campaign.trials = %d, want 50", n)
			}
			if n := reg.Histogram("campaign.trial_ms").Count(); n != 50 {
				t.Errorf("campaign.trial_ms count = %d, want 50", n)
			}
			surv := reg.Counter("campaign.trials_survived").Value()
			if surv <= 0 || surv > 50 {
				t.Errorf("campaign.trials_survived = %d", surv)
			}
		})
	}
}

// TestTrialSpanTree checks the trace tree of a concurrent campaign,
// through Run and RunRange: every campaign.trial span sits under the
// one campaign.run (campaign.range) span, and what a trial function
// emits through Trial.Tracer sits under its own trial's span.
func TestTrialSpanTree(t *testing.T) {
	for _, root := range []string{"campaign.run", "campaign.range"} {
		var buf strings.Builder
		tr := telemetry.New(&buf)
		cfg := Config{Name: "tree", Trials: 64, Workers: 4, Seed: 3, Tracer: tr}
		fn := func(_ context.Context, t Trial) Outcome {
			t.Tracer.Event("trial.work", telemetry.Fields{"trial": t.Index})
			return Outcome{Survived: true}
		}
		var err error
		if root == "campaign.run" {
			_, err = Run(context.Background(), cfg, fn)
		} else {
			_, err = RunRange(context.Background(), cfg, fn, 0, cfg.Trials)
		}
		if err != nil {
			t.Fatal(err)
		}

		type rec struct {
			Name   string `json:"name"`
			ID     uint64 `json:"id"`
			Par    uint64 `json:"par"`
			Fields struct {
				Trial int `json:"trial"`
			} `json:"fields"`
		}
		var recs []rec
		byID := map[uint64]rec{}
		for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
			var r rec
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad line %q: %v", line, err)
			}
			recs = append(recs, r)
			if r.ID != 0 {
				byID[r.ID] = r
			}
		}
		works := 0
		for _, r := range recs {
			switch r.Name {
			case root:
				if r.Par != 0 {
					t.Errorf("%s has parent %d, want a root", root, r.Par)
				}
			case "campaign.trial":
				if byID[r.Par].Name != root {
					t.Errorf("trial %d span under %q, want %s", r.Fields.Trial, byID[r.Par].Name, root)
				}
			case "trial.work":
				works++
				if p := byID[r.Par]; p.Name != "campaign.trial" || p.Fields.Trial != r.Fields.Trial {
					t.Errorf("trial %d's event under %s of trial %d", r.Fields.Trial, p.Name, p.Fields.Trial)
				}
			default:
				t.Errorf("unexpected record %q", r.Name)
			}
		}
		if works != cfg.Trials {
			t.Errorf("%s: %d trial events, want %d", root, works, cfg.Trials)
		}
	}
}

func TestProgressMonotonic(t *testing.T) {
	var last atomic.Int32
	mono := atomic.Bool{}
	mono.Store(true)
	_, err := Run(context.Background(), Config{Trials: 200, Seed: 1,
		Progress: func(done, total int) {
			if total != 200 {
				mono.Store(false)
			}
			if int32(done) <= last.Load() {
				mono.Store(false)
			}
			last.Store(int32(done))
		}}, coinTrial)
	if err != nil {
		t.Fatal(err)
	}
	if !mono.Load() || last.Load() != 200 {
		t.Errorf("progress not monotonic to completion: last=%d", last.Load())
	}
}

func TestValuesQuantilesDeterministic(t *testing.T) {
	run := func(workers int) string {
		rep, err := Run(context.Background(), Config{Name: "q", Trials: 400, Seed: 11, Workers: workers},
			func(_ context.Context, tr Trial) Outcome {
				return Outcome{Survived: true, Value: float64(tr.RNG.Intn(1000))}
			})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := rep.Summary.MarshalDeterministic()
		return string(b)
	}
	if run(1) != run(7) {
		t.Error("values quantiles depend on worker count")
	}
}

func TestExampleUsage(t *testing.T) {
	// The doc-comment contract in one place: trial seeds derive from
	// the campaign seed and are observable inside the trial.
	_, err := Run(context.Background(), Config{Trials: 3, Seed: 21},
		func(_ context.Context, tr Trial) Outcome {
			want := DeriveSeed(21, uint64(tr.Index))
			if tr.Seed != want {
				return Outcome{Err: fmt.Errorf("trial seed %d, want %d", tr.Seed, want)}
			}
			return Outcome{Survived: true}
		})
	if err != nil {
		t.Fatal(err)
	}
}
