package core

import (
	"math/rand"
	"testing"

	"dmfb/internal/pcr"
)

// The stage-2 (LTSA, FTI-weighted) inner loop is the hot path of the
// enhanced placement algorithm: every annealing iteration must price a
// candidate move. The historical engine cloned the placement and
// recomputed area, overlap, and the full per-module fault-tolerance
// analysis from scratch; the move kernel prices the same move
// incrementally and reverts in place. The pairs below measure one
// rejected iteration of each regime on the PCR benchmark — the ≥5×
// stage-2 ratio recorded in BENCH_place.json comes from the Stage2
// pair.

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
		_ = k.Delta(m)
		k.Revert(m)
	}
}
