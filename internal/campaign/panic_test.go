package campaign

import (
	"context"
	"strings"
	"testing"
)

// panickyTrial survives even trials and panics on every third one —
// a deterministic per-trial property, exactly what the panic-safety
// contract requires for summaries to stay worker-count independent.
func panickyTrial(_ context.Context, t Trial) Outcome {
	if t.Index%3 == 0 {
		panic("deliberate test panic")
	}
	return Outcome{Survived: t.Index%2 == 0, Value: float64(t.Index)}
}

func TestPanickingTrialRecordedAsError(t *testing.T) {
	for _, ep := range entryPoints {
		t.Run(ep.name, func(t *testing.T) {
			s, err := ep.run(context.Background(), Config{
				Name: "panic-regression", Trials: 30, Workers: 4, Seed: 7,
			}, panickyTrial)
			if err != nil {
				t.Fatalf("campaign must survive panicking trials, got %v", err)
			}
			if s.Trials != 30 {
				t.Fatalf("trials = %d, want 30", s.Trials)
			}
			if want := 10; s.Errors != want { // indices 0,3,...,27
				t.Fatalf("errors = %d, want %d", s.Errors, want)
			}
			// Survivors: even, not divisible by 3 -> 2,4,8,10,14,16,20,22,26,28.
			if want := 10; s.Survived != want {
				t.Fatalf("survived = %d, want %d", s.Survived, want)
			}
		})
	}
}

func TestPanicMessageCarriesIdentityAndStack(t *testing.T) {
	ckpt := t.TempDir() + "/panic.jsonl"
	_, err := Run(context.Background(), Config{
		Name: "panic-id", Trials: 1, Workers: 1, Seed: 42, Checkpoint: ckpt,
	}, func(_ context.Context, t Trial) Outcome { panic("boom") })
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lines, err := ReadResultLog(ckpt, CheckpointID{Campaign: "panic-id", Seed: 42, Trials: 1})
	if err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	msg := lines[0].Err
	for _, want := range []string{`campaign "panic-id"`, "trial 0", "boom", "goroutine"} {
		if !strings.Contains(msg, want) {
			t.Errorf("recorded panic %q missing %q", msg, want)
		}
	}
}

func TestPanicSummaryIdenticalAcrossWorkerCounts(t *testing.T) {
	var blobs [][]byte
	for _, w := range []int{1, 4, 16} {
		rep, err := Run(context.Background(), Config{
			Name: "panic-workers", Trials: 64, Workers: w, Seed: 11,
		}, panickyTrial)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		b, err := rep.Summary.MarshalDeterministic()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	for i := 1; i < len(blobs); i++ {
		if string(blobs[i]) != string(blobs[0]) {
			t.Fatalf("summary differs between worker counts:\n%s\nvs\n%s", blobs[0], blobs[i])
		}
	}
}
