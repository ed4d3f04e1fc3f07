package campaign

import (
	"context"
	"encoding/json"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestProgressTrackerCounts(t *testing.T) {
	clock := time.Duration(0)
	p := newProgressTracker("assay", 10, func() time.Duration { return clock })
	p.noteResumed(2)
	clock = 100 * time.Millisecond
	p.observe(true, false, 0)
	p.observe(true, false, 3)
	p.observe(false, true, 0)
	p.observe(false, false, 99) // depth clamps into the tail bucket

	s := p.Snapshot()
	if s.Campaign != "assay" || s.Done != 6 || s.Total != 10 || s.Resumed != 2 {
		t.Errorf("snapshot counts = %+v", s)
	}
	if s.Survived != 2 || s.Errors != 1 {
		t.Errorf("survived/errors = %d/%d, want 2/1", s.Survived, s.Errors)
	}
	if s.SurvivalRate != 2.0/6 {
		t.Errorf("survival rate = %v", s.SurvivalRate)
	}
	if s.Wilson95Lo <= 0 && s.Wilson95Hi <= s.Wilson95Lo {
		t.Errorf("wilson interval [%v,%v]", s.Wilson95Lo, s.Wilson95Hi)
	}
	// 4 executed trials in 100 ms -> 40 trials/s; 4 remaining -> 100 ms.
	if math.Abs(s.TrialsPerSec-40) > 1e-9 {
		t.Errorf("rate = %v trials/s, want 40", s.TrialsPerSec)
	}
	if math.Abs(s.ETAMS-100) > 1e-9 {
		t.Errorf("eta = %v ms, want 100", s.ETAMS)
	}
	want := []int{2, 0, 0, 1, 0, 0, 0, 0, 1}
	if len(s.DepthCounts) != len(want) {
		t.Fatalf("depth counts = %v, want %v", s.DepthCounts, want)
	}
	for i := range want {
		if s.DepthCounts[i] != want[i] {
			t.Fatalf("depth counts = %v, want %v", s.DepthCounts, want)
		}
	}
}

func TestProgressTrackerNilSafe(t *testing.T) {
	var p *ProgressTracker
	p.noteResumed(3)
	p.observe(true, false, 0)
	if s := p.Snapshot(); s.Done != 0 {
		t.Errorf("nil tracker snapshot = %+v", s)
	}
}

func TestProgressTrackerMarshalsCompact(t *testing.T) {
	p := NewProgressTracker("x", 4)
	b, err := json.Marshal(p.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"resumed", "errors", "depth_counts"} {
		if string(b) != "" && json.Valid(b) && containsKey(b, absent) {
			t.Errorf("zero snapshot should omit %q: %s", absent, b)
		}
	}
}

func containsKey(b []byte, key string) bool {
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return false
	}
	_, ok := m[key]
	return ok
}

// TestProgressTrackerETAConverges runs a real (tiny-trial) campaign
// and checks mid-run ETA + elapsed stays within 20% of the actual
// completion time once half the trials are in — the acceptance bar
// for the /progress endpoint. Trials cost uneven amounts (100–300 µs,
// fixed by the trial seed) of simulated time, and the tracker's clock
// is that work spread over the workers, so the estimator sees the same
// rate noise on every run and the check does not depend on how busy
// the host is.
func TestProgressTrackerETAConverges(t *testing.T) {
	const trials, workers = 512, 4
	var work atomic.Int64 // simulated trial time, summed over all workers
	clock := func() time.Duration { return time.Duration(work.Load() / workers) }
	tracker := newProgressTracker("eta", trials, clock)
	var predicted float64 // eta+elapsed captured at ~50% completion
	cfg := Config{
		Name:    "eta",
		Trials:  trials,
		Workers: workers,
		Seed:    11,
		Tracker: tracker,
		Progress: func(done, total int) {
			if predicted == 0 && done >= total/2 {
				s := tracker.Snapshot()
				predicted = s.ElapsedMS + s.ETAMS
			}
		},
	}
	_, err := Run(context.Background(), cfg, func(_ context.Context, tr Trial) Outcome {
		cost := 100*time.Microsecond + time.Duration(uint64(tr.Seed)%200_000)
		work.Add(int64(cost))
		return Outcome{Survived: tr.Seed%2 == 0}
	})
	if err != nil {
		t.Fatal(err)
	}
	actual := float64(clock().Microseconds()) / 1000
	if predicted == 0 {
		t.Fatal("progress callback never saw 50% completion")
	}
	if ratio := predicted / actual; ratio < 0.8 || ratio > 1.2 {
		t.Errorf("predicted completion %0.1f ms vs actual %0.1f ms (ratio %.2f), want within 20%%",
			predicted, actual, ratio)
	}
	s := tracker.Snapshot()
	if s.Done != trials || s.ETAMS != 0 {
		t.Errorf("final snapshot done=%d eta=%v, want %d/0", s.Done, s.ETAMS, trials)
	}
}
