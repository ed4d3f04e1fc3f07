package core

import (
	"reflect"
	"runtime"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/fti"
	"dmfb/internal/place"
)

// The multi-start determinism contract (place.SearchOptions): for a
// fixed base seed and start count, the winning placement is
// byte-identical at any worker count, start 0 reproduces a plain
// single-start run, and per-start seeds follow the campaign runner's
// splitmix64 stream derivation. These tests run under -race in CI, so
// they also police the "starts share nothing mutable" claim.

// multiStartOptions keeps the fan-out cheap enough to run three times.
func multiStartOptions(seed int64) Options {
	return Options{Seed: seed, ItersPerModule: 60, WindowPatience: 4}
}

func TestMultiStartByteIdenticalAcrossWorkers(t *testing.T) {
	prob := pcrProblem()
	ft := FTOptions{Beta: 50}
	base := multiStartOptions(42)
	base.Search = place.SearchOptions{Starts: 4}

	var ref TwoStageResult
	for i, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		o := base
		o.Search.Workers = workers
		res, err := TwoStage(prob, o, ft)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Fatalf("workers=%d: result diverged from workers=1\nref:  start %d seed %d final %v\ngot:  start %d seed %d final %v",
				workers, ref.Start, ref.Seed, ref.Final, res.Start, res.Seed, res.Final)
		}
	}

	// The winner's seed must be the documented stream derivation.
	wantSeed := base.Seed
	if ref.Start > 0 {
		wantSeed = campaign.DeriveSeed(base.Seed, uint64(ref.Start))
	}
	if ref.Seed != wantSeed {
		t.Fatalf("winner start %d carries seed %d, want derived %d", ref.Start, ref.Seed, wantSeed)
	}

	// The winner must reproduce as a standalone single-start run with
	// its derived seed: multi-start is pure selection, not mutation.
	solo, err := twoStageOne(prob, startOptions(base, ref.Start), ft)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo.Final, ref.Final) || !reflect.DeepEqual(solo.Stage1, ref.Stage1) {
		t.Fatalf("winner (start %d) does not reproduce standalone:\nsolo:\n%s\nmulti:\n%s",
			ref.Start, solo.Final, ref.Final)
	}

	// The winner actually is the argmin over the per-start runs, ties
	// to the lowest index.
	for i := 0; i < base.Search.Starts; i++ {
		r, err := twoStageOne(prob, startOptions(base, i), ft)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stage2Stats.FinalCost < ref.Stage2Stats.FinalCost ||
			(r.Stage2Stats.FinalCost == ref.Stage2Stats.FinalCost && i < ref.Start) {
			t.Fatalf("start %d (cost %g) beats declared winner %d (cost %g)",
				i, r.Stage2Stats.FinalCost, ref.Start, ref.Stage2Stats.FinalCost)
		}
	}
}

// TestMultiStartSingleBackCompat pins that every "one start" spelling
// — zero Search, Starts 1, extra workers — is byte-identical to the
// historical single-start TwoStage for the same seed.
func TestMultiStartSingleBackCompat(t *testing.T) {
	prob := pcrProblem()
	ft := FTOptions{Beta: 50}
	plain, err := TwoStage(prob, multiStartOptions(7), ft)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []place.SearchOptions{
		{Starts: 1},
		{Starts: 1, Workers: 8},
		{Workers: 2},
	} {
		o := multiStartOptions(7)
		o.Search = s
		res, err := TwoStage(prob, o, ft)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if !reflect.DeepEqual(res, plain) {
			t.Fatalf("%+v: diverged from plain single-start run", s)
		}
	}
}

// stage1For is the stage-1 placement the stage-2 multi-start tests
// refine.
func stage1For(t *testing.T, prob Problem, seed int64) *place.Placement {
	t.Helper()
	s1, _, err := AnnealArea(prob, multiStartOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	return s1
}

// TestMultiStartStage2ByteIdenticalAcrossWorkers pins the stage-2
// fan-out: three LTSA starts from one stage-1 placement pick the same
// winner, placement and stats, at 1, 4 and GOMAXPROCS workers; that
// winner is the argmin (ties to the lowest index) of the standalone
// per-start runs; and the shared stage-1 placement is left as it was.
// At seed 4 the winner is start 2, so returning start 0 fails.
func TestMultiStartStage2ByteIdenticalAcrossWorkers(t *testing.T) {
	prob := pcrProblem()
	s1 := stage1For(t, prob, 4)
	before := s1.Clone()
	ft := FTOptions{Beta: 50}
	base := multiStartOptions(4)
	base.Search = place.SearchOptions{Starts: 3}

	var want *place.Placement
	var wantStats Stats
	winner := -1
	for i := 0; i < base.Search.Starts; i++ {
		p, st, err := AnnealFaultTolerance(s1, prob, startOptions(base, i), ft)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil || st.FinalCost < wantStats.FinalCost {
			want, wantStats, winner = p, st, i
		}
	}
	if winner == 0 {
		t.Fatal("start 0 wins at this seed; pick one where another start does")
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		o := base
		o.Search.Workers = workers
		p, st, err := AnnealFaultTolerance(s1, prob, o, ft)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(p, want) || st != wantStats {
			t.Fatalf("workers=%d: winner is not the best standalone start (%d):\n%s%+v\nvs\n%s%+v",
				workers, winner, p, st, want, wantStats)
		}
	}
	if !reflect.DeepEqual(s1, before) {
		t.Fatal("the fan-out mutated the shared stage-1 placement")
	}
}

// TestMultiStartStage2SingleBackCompat pins that a zero Search and
// Starts 1 (with or without extra workers) run the plain seeded LTSA
// bit for bit.
func TestMultiStartStage2SingleBackCompat(t *testing.T) {
	prob := pcrProblem()
	s1 := stage1For(t, prob, 7)
	ft := FTOptions{Beta: 50}
	plain, plainStats, err := annealFaultTolerance(s1, prob, multiStartOptions(7), ft)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []place.SearchOptions{
		{},
		{Starts: 1},
		{Starts: 1, Workers: 8},
		{Workers: 2},
	} {
		o := multiStartOptions(7)
		o.Search = s
		p, st, err := AnnealFaultTolerance(s1, prob, o, ft)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if !reflect.DeepEqual(p, plain) || st != plainStats {
			t.Fatalf("%+v: diverged from the plain single-start run", s)
		}
	}
}

// TestMultiStartSeedOverride pins that Search.Seed replaces the base
// seed of the whole start family.
func TestMultiStartSeedOverride(t *testing.T) {
	prob := pcrProblem()
	ft := FTOptions{Beta: 50}

	a := multiStartOptions(3)
	a.Search = place.SearchOptions{Starts: 2, Seed: 99}
	ra, err := TwoStage(prob, a, ft)
	if err != nil {
		t.Fatal(err)
	}

	b := multiStartOptions(99) // same family spelled via the base seed
	b.Search = place.SearchOptions{Starts: 2}
	rb, err := TwoStage(prob, b, ft)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("Search.Seed=99 should equal base Seed=99 for the same start count")
	}
}

// TestAnnealAreaBestOf pins that the area placer honours Search
// through the same fan-out as TwoStage: a single start is
// byte-identical to a plain run, and a 4-start search returns a valid
// placement no worse than start 0 (the plain run), the same one on a
// rerun.
func TestAnnealAreaBestOf(t *testing.T) {
	prob := pcrProblem()
	base := multiStartOptions(7)
	plain, plainStats, err := AnnealArea(prob, base)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	one.Search = place.SearchOptions{Starts: 1, Workers: 3}
	p1, st1, err := AnnealArea(prob, one)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != plain.String() || st1 != plainStats {
		t.Fatalf("Starts 1 diverged from the plain run:\n%s\nvs\n%s", p1, plain)
	}

	multi := base
	multi.Search = place.SearchOptions{Starts: 4}
	p, st, err := AnnealArea(prob, multi)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// The search includes start 0, so it can only match or improve.
	if st.FinalCost > plainStats.FinalCost {
		t.Errorf("best-of-4 cost %v worse than start 0 (%v)", st.FinalCost, plainStats.FinalCost)
	}
	again, _, err := AnnealArea(prob, multi)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != p.String() {
		t.Error("parallel best-of not deterministic")
	}
}

// TestAnnealAreaBestOfDeterministicAcrossRestartCounts verifies that
// for 1, 2 and 3 starts the search picks the same winner at 1 and 3
// workers, namely the best of the standalone per-start runs (ties to
// the lowest index).
func TestAnnealAreaBestOfDeterministicAcrossRestartCounts(t *testing.T) {
	prob := pcrProblem()
	base := multiStartOptions(7)
	for _, n := range []int{1, 2, 3} {
		multi := base
		multi.Search = place.SearchOptions{Starts: n}
		var want *place.Placement
		var wantStats Stats
		for i := 0; i < n; i++ {
			p, st, err := AnnealArea(prob, startOptions(multi, i))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil || st.FinalCost < wantStats.FinalCost {
				want, wantStats = p, st
			}
		}
		for _, workers := range []int{1, 3} {
			o := multi
			o.Search.Workers = workers
			p, st, err := AnnealArea(prob, o)
			if err != nil {
				t.Fatalf("starts=%d workers=%d: %v", n, workers, err)
			}
			if p.String() != want.String() || st != wantStats {
				t.Fatalf("starts=%d workers=%d: winner is not the best standalone start:\n%s\nvs\n%s",
					n, workers, p, want)
			}
		}
	}
}

// TestMultiStartBeatsSingleStartOnFig8 pins the quality side of
// multi-start on the Fig. 8 setting (PCR, seed 1, β 30, full anneal):
// the best of 4 derived-seed starts reaches an FTI no lower than the
// single start, which is start 0 of the same family. Selection is on
// stage-2 cost, not FTI, so this is a seeded quality pin rather than a
// theorem (today: single start 0.6571, four starts 1.0000).
func TestMultiStartBeatsSingleStartOnFig8(t *testing.T) {
	prob := pcrProblem()
	ft := FTOptions{Beta: 30}
	single, err := TwoStage(prob, Options{Seed: 1}, ft)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := TwoStage(prob, Options{Seed: 1, Search: place.SearchOptions{Starts: 4}}, ft)
	if err != nil {
		t.Fatal(err)
	}
	fs, fm := fti.Compute(single.Final).FTI(), fti.Compute(multi.Final).FTI()
	if fm < fs {
		t.Fatalf("4-start winner FTI %.4f (start %d) below single-start FTI %.4f", fm, multi.Start, fs)
	}
}
