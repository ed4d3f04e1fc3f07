package core

import (
	"math/rand"
	"testing"

	"dmfb/internal/invitro"
	"dmfb/internal/pcr"
)

// The stage-2 (LTSA, FTI-weighted) inner loop is the hot path of the
// enhanced placement algorithm: every annealing iteration must price a
// candidate move. The historical engine cloned the placement and
// recomputed area, overlap, and the full per-module fault-tolerance
// analysis from scratch; the move kernel prices the same move
// incrementally and reverts in place. The pairs below measure one
// rejected iteration of each regime on the PCR benchmark; the Stage2
// pair gives the stage2_speedup ratio recorded in BENCH_place.json.
// That ratio is informational and gated by nothing: both sides now
// price the FTI with the same site-intersection kernel, so it shows
// only what the move kernel saves on overlap, bounding box and memo
// work.

func BenchmarkStage2IterClone(b *testing.B) {
	prob := FromSchedule(pcr.MustSchedule())
	o := Options{Seed: 1, ItersPerModule: 150, WindowPatience: 5}
	start, _, err := AnnealArea(prob, o)
	if err != nil {
		b.Fatalf("stage 1: %v", err)
	}
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(2))
	cur := start.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := neighbor(cur, prob, o, 5, rng, true)
		_ = ftCost(next, prob, o, 30)
		// Rejected: next is discarded, cur unchanged.
	}
}

func BenchmarkStage2IterMove(b *testing.B) {
	prob := FromSchedule(pcr.MustSchedule())
	o := Options{Seed: 1, ItersPerModule: 150, WindowPatience: 5}
	start, _, err := AnnealArea(prob, o)
	if err != nil {
		b.Fatalf("stage 1: %v", err)
	}
	o = o.withDefaults()
	k := newMoveKernel(start.Clone(), prob, o, 30, true, true)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := k.Propose(5, rng)
		_ = k.Bound(m)
		_ = k.Delta(m)
		k.Revert(m)
	}
}

// The fault-oblivious stage-1 loop (area + overlap only), for the
// README table.
func BenchmarkStage1IterClone(b *testing.B) {
	prob := FromSchedule(pcr.MustSchedule())
	o := Options{}.withDefaults()
	cur := initialPlacement(prob)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := neighbor(cur, prob, o, 50, rng, false)
		_ = scratchCost(next, prob, o, 0, false)
	}
}

func BenchmarkStage1IterMove(b *testing.B) {
	prob := FromSchedule(pcr.MustSchedule())
	o := Options{}.withDefaults()
	k := newMoveKernel(initialPlacement(prob), prob, o, 0, false, false)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := k.Propose(50, rng)
		_ = k.Bound(m)
		_ = k.Delta(m)
		k.Revert(m)
	}
}

// BenchmarkLTSARun times one whole stage-2 run (LTSA at β = 30, the
// middle of Table 2) per iteration from a fixed stage-1 placement, so
// moves rejected on their bound, full FTI rebuilds after bounding-box
// changes and commits all weigh in as they do in a real placement.
// ns/move is the wall time per proposal. The name deliberately avoids
// the BenchmarkStage prefix, which make bench runs at 200000x.
func BenchmarkLTSARun(b *testing.B) {
	prob := FromSchedule(pcr.MustSchedule())
	o := Options{Seed: 1}
	start, _, err := AnnealArea(prob, o)
	if err != nil {
		b.Fatalf("stage 1: %v", err)
	}
	moves := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := AnnealFaultTolerance(start, prob, o, FTOptions{Beta: 30})
		if err != nil {
			b.Fatalf("stage 2: %v", err)
		}
		moves += st.Evaluations - 1 // one initial cost per run
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/move")
}

// BenchmarkAreaRun times one whole stage-1 run (AnnealArea, area and
// overlap only) on the 4×4 in-vitro diagnostic, seed 1, per iteration.
// Its 32 modules have an average of 15 span conflicts each, so the
// overlap pricing in place.State.MoveModule dominates; a rejected move
// is rolled back from the state's journal and its Metropolis threshold
// comes from the per-level memo, so neither re-prices anything. ns/move
// is the wall time per proposal, as in BenchmarkLTSARun.
func BenchmarkAreaRun(b *testing.B) {
	s, err := invitro.Synthesize(4, 4, 0)
	if err != nil {
		b.Fatalf("synthesize: %v", err)
	}
	prob := FromSchedule(s)
	moves := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := AnnealArea(prob, Options{Seed: 1})
		if err != nil {
			b.Fatalf("stage 1: %v", err)
		}
		moves += st.Evaluations - 1 // one initial cost per run
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(moves), "ns/move")
}
