package fti

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

func randomPlacement(rng *rand.Rand, n int) *place.Placement {
	mods := make([]place.Module, n)
	for i := range mods {
		start := rng.Intn(15)
		mods[i] = place.Module{
			ID:   i,
			Name: "M",
			Size: geom.Size{W: 1 + rng.Intn(4), H: 1 + rng.Intn(4)},
			Span: geom.Interval{Start: start, End: start + 1 + rng.Intn(8)},
		}
	}
	p := place.New(mods)
	for i := range mods {
		p.Pos[i] = geom.Point{X: rng.Intn(8), Y: rng.Intn(8)}
	}
	return p
}

// affectedBy returns the modules whose analysis a move of the listed
// modules invalidates: the moved modules plus their span-overlap
// neighbours, deduplicated. This is the dirty set to pass to Apply
// (when the array is unchanged — Apply rebuilds everything anyway when
// it moves).
func affectedBy(inc *Incremental, moved ...int) []int {
	seen := make(map[int]bool, 4)
	var out []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, i := range moved {
		add(i)
		for _, j := range inc.adj[i] {
			add(j)
		}
	}
	return out
}

// checkAgainstScratch asserts the incremental evaluator's covered
// count, array, and per-cell knockouts exactly match ComputeOn.
func checkAgainstScratch(t *testing.T, tag string, inc *Incremental, p *place.Placement) {
	t.Helper()
	array := p.BoundingBox()
	res := ComputeOn(p, array)
	if inc.Array() != array {
		t.Fatalf("%s: array = %v, scratch %v", tag, inc.Array(), array)
	}
	if inc.Covered() != res.Covered {
		t.Fatalf("%s: covered = %d, scratch %d", tag, inc.Covered(), res.Covered)
	}
	if inc.Total() != res.Total {
		t.Fatalf("%s: total = %d, scratch %d", tag, inc.Total(), res.Total)
	}
	for c, cov := range res.CoveredMap {
		if (inc.knock[c] == 0) != cov {
			t.Fatalf("%s: cell %d covered=%v, scratch %v", tag, c, inc.knock[c] == 0, cov)
		}
	}
	for mi, r := range res.ModuleRelocatable {
		if inc.reloc[mi] != r {
			t.Fatalf("%s: module %d relocatable=%v, scratch %v", tag, mi, inc.reloc[mi], r)
		}
	}
	if inc.FTI() != res.FTI() {
		t.Fatalf("%s: FTI = %v, scratch %v", tag, inc.FTI(), res.FTI())
	}
}

// TestIncrementalDifferential runs long random move sequences with
// randomised commit/revert decisions and asserts exact agreement with
// ComputeOn after every committed or reverted move.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const rounds = 12
	const movesPerRound = 900 // 12 × 900 = 10800 checked moves

	for round := 0; round < rounds; round++ {
		p := randomPlacement(rng, 3+rng.Intn(7))
		inc := NewIncremental(p)
		checkAgainstScratch(t, "initial", inc, p)

		for mv := 0; mv < movesPerRound; mv++ {
			i := rng.Intn(len(p.Modules))
			oldPos, oldRot := p.Pos[i], p.Rot[i]
			p.Pos[i] = geom.Point{X: rng.Intn(10), Y: rng.Intn(10)}
			p.Rot[i] = rng.Intn(2) == 0

			inc.Apply(p.BoundingBox(), affectedBy(inc, i))
			if rng.Intn(2) == 0 {
				inc.Commit()
				checkAgainstScratch(t, "commit", inc, p)
			} else {
				p.Pos[i], p.Rot[i] = oldPos, oldRot
				inc.Revert()
				checkAgainstScratch(t, "revert", inc, p)
			}
		}
	}
}

// TestIncrementalPairMoves exercises two-module moves (the pair
// interchange family) through the dirty-set union.
func TestIncrementalPairMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p := randomPlacement(rng, 6)
	inc := NewIncremental(p)

	for mv := 0; mv < 1500; mv++ {
		i := rng.Intn(len(p.Modules))
		j := rng.Intn(len(p.Modules) - 1)
		if j >= i {
			j++
		}
		oi, oj := p.Pos[i], p.Pos[j]
		p.Pos[i], p.Pos[j] = oj, oi

		inc.Apply(p.BoundingBox(), affectedBy(inc, i, j))
		if rng.Intn(3) == 0 {
			p.Pos[i], p.Pos[j] = oi, oj
			inc.Revert()
			checkAgainstScratch(t, "revert", inc, p)
		} else {
			inc.Commit()
			checkAgainstScratch(t, "commit", inc, p)
		}
	}
}

// TestIncrementalCacheHits checks the cache accounting: a move that
// keeps the bounding box fixed re-evaluates only the dirty set.
func TestIncrementalCacheHits(t *testing.T) {
	// Two spatially distant, time-disjoint module groups pinned by a
	// corner module so the bounding box never moves.
	mods := []place.Module{
		{ID: 0, Name: "A", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 1, Name: "B", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 2, Name: "C", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 10, End: 15}},
		{ID: 3, Name: "D", Size: geom.Size{W: 1, H: 1}, Span: geom.Interval{Start: 20, End: 25}},
	}
	p := place.New(mods)
	p.Pos[0] = geom.Point{X: 0, Y: 0}
	p.Pos[1] = geom.Point{X: 4, Y: 0}
	p.Pos[2] = geom.Point{X: 0, Y: 4}
	p.Pos[3] = geom.Point{X: 9, Y: 9} // pins the 10×10 bounding box

	inc := NewIncremental(p)
	evals0, _ := inc.Stats()
	if evals0 != int64(len(mods)) {
		t.Fatalf("initial evals = %d, want %d", evals0, len(mods))
	}

	// Move C (no span conflicts): dirty set is {C} alone.
	p.Pos[2] = geom.Point{X: 5, Y: 5}
	inc.Apply(p.BoundingBox(), affectedBy(inc, 2))
	inc.Commit()
	checkAgainstScratch(t, "moveC", inc, p)
	evals1, hits1 := inc.Stats()
	if evals1-evals0 != 1 {
		t.Errorf("moving a conflict-free module cost %d evals, want 1", evals1-evals0)
	}
	if hits1 != int64(len(mods)-1) {
		t.Errorf("cache hits = %d, want %d", hits1, len(mods)-1)
	}

	// Move A (conflicts with B): dirty set is {A, B}. A keeps x=0 so
	// the bounding box stays pinned and no full rebuild triggers.
	p.Pos[0] = geom.Point{X: 0, Y: 1}
	inc.Apply(p.BoundingBox(), affectedBy(inc, 0))
	inc.Commit()
	checkAgainstScratch(t, "moveA", inc, p)
	evals2, _ := inc.Stats()
	if evals2-evals1 != 2 {
		t.Errorf("moving a 1-degree module cost %d evals, want 2", evals2-evals1)
	}
}

// TestIncrementalArrayChangeRevert exercises the full-rebuild path and
// its buffer-swap revert.
func TestIncrementalArrayChangeRevert(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomPlacement(rng, 5)
	inc := NewIncremental(p)

	for mv := 0; mv < 800; mv++ {
		i := rng.Intn(len(p.Modules))
		oldPos := p.Pos[i]
		// Large jumps force frequent bounding-box changes.
		p.Pos[i] = geom.Point{X: rng.Intn(20), Y: rng.Intn(20)}
		inc.Apply(p.BoundingBox(), affectedBy(inc, i))
		if rng.Intn(2) == 0 {
			p.Pos[i] = oldPos
			inc.Revert()
			checkAgainstScratch(t, "revert", inc, p)
		} else {
			inc.Commit()
			checkAgainstScratch(t, "commit", inc, p)
		}
	}
}

func TestIncrementalApplyTwicePanics(t *testing.T) {
	p := randomPlacement(rand.New(rand.NewSource(3)), 3)
	inc := NewIncremental(p)
	inc.Apply(p.BoundingBox(), nil)
	defer func() {
		if recover() == nil {
			t.Fatalf("second Apply without Commit/Revert did not panic")
		}
	}()
	inc.Apply(p.BoundingBox(), nil)
}
