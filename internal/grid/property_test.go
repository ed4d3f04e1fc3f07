package grid

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
)

// The bit-packed grid is differentially tested against BoolGrid, the
// retained []bool implementation: both are driven through the same
// randomized op sequence (Set, SetRect, RectFree, CountOccupied,
// Clear, Resize) and every observation must agree, including the
// Parse/String round trip of the final state. A word-masking bug in
// SetRect or RectFree — the classic off-by-one at a 64-bit word
// boundary — cannot survive this: widths straddle 1, 2 and 3 words.

// checkAgree asserts the two implementations observe the same state.
func checkAgree(t *testing.T, g *Grid, o *BoolGrid, step int) {
	t.Helper()
	if g.W() != o.W() || g.H() != o.H() {
		t.Fatalf("step %d: dimensions %dx%d vs oracle %dx%d", step, g.W(), g.H(), o.W(), o.H())
	}
	if got, want := g.CountOccupied(), o.CountOccupied(); got != want {
		t.Fatalf("step %d: CountOccupied %d, oracle %d\n%s", step, got, want, g)
	}
	if got, want := g.String(), o.String(); got != want {
		t.Fatalf("step %d: state diverged\npacked:\n%s\noracle:\n%s", step, got, want)
	}
}

// randRect returns a random rect roughly within (and sometimes
// hanging off) a w×h grid, so clipping paths are exercised too.
func randRect(rng *rand.Rand, w, h int) geom.Rect {
	return geom.Rect{
		X: rng.Intn(w+4) - 2,
		Y: rng.Intn(h+4) - 2,
		W: rng.Intn(w + 2),
		H: rng.Intn(h + 2),
	}
}

func TestGridOpSequenceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Widths on either side of the 64- and 128-cell word boundaries.
	dims := []struct{ w, h int }{
		{1, 1}, {7, 11}, {12, 5}, {31, 3}, {63, 2}, {64, 4}, {65, 3}, {100, 2}, {130, 2},
	}
	for _, d := range dims {
		g := New(d.w, d.h)
		o := NewBool(d.w, d.h)
		w, h := d.w, d.h
		for step := 0; step < 2000; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // Set
				p := geom.Point{X: rng.Intn(w+2) - 1, Y: rng.Intn(h+2) - 1}
				occ := rng.Intn(2) == 0
				g.Set(p, occ)
				o.Set(p, occ)
			case op < 6: // SetRect
				r := randRect(rng, w, h)
				occ := rng.Intn(3) > 0
				g.SetRect(r, occ)
				o.SetRect(r, occ)
			case op < 8: // RectFree
				r := randRect(rng, w, h)
				if got, want := g.RectFree(r), o.RectFree(r); got != want {
					t.Fatalf("%dx%d step %d: RectFree(%v) = %v, oracle %v\n%s",
						w, h, step, r, got, want, g)
				}
			case op < 9: // Occupied point probe
				p := geom.Point{X: rng.Intn(w+4) - 2, Y: rng.Intn(h+4) - 2}
				if got, want := g.Occupied(p), o.Occupied(p); got != want {
					t.Fatalf("%dx%d step %d: Occupied(%v) = %v, oracle %v", w, h, step, p, got, want)
				}
			default:
				switch rng.Intn(8) {
				case 0: // Resize (rare: it wipes the state)
					w, h = 1+rng.Intn(70), 1+rng.Intn(8)
					g.Resize(w, h)
					o.Resize(w, h)
				case 1:
					g.Clear()
					o.Clear()
				}
			}
			if step%97 == 0 {
				checkAgree(t, g, o, step)
			}
		}
		checkAgree(t, g, o, 2000)

		// Parse/String round trip of the final randomized state.
		rt, err := Parse(g.String())
		if err != nil {
			t.Fatalf("%dx%d: Parse(String) failed: %v", w, h, err)
		}
		if !rt.Equal(g) {
			t.Fatalf("%dx%d: Parse(String) round trip diverged:\n%s\nvs\n%s", w, h, rt, g)
		}
	}
}

// TestWordPaddingInvariant checks that no mutation leaves stray bits
// past the grid width, the invariant PopCount and word-level readers
// rely on.
func TestWordPaddingInvariant(t *testing.T) {
	for _, w := range []int{1, 63, 64, 65, 100} {
		g := New(w, 3)
		g.SetRect(geom.Rect{X: -5, Y: -5, W: w + 10, H: 13}, true)
		g.SetRect(geom.Rect{X: w - 1, Y: 0, W: 1, H: 1}, false)
		g.Set(geom.Point{X: w - 1, Y: 1}, true)
		pad := uint(w) % 64
		if pad == 0 {
			continue
		}
		mask := ^uint64(0) << pad
		for y := 0; y < g.H(); y++ {
			words := g.RowWords(y)
			if last := words[len(words)-1]; last&mask != 0 {
				t.Fatalf("w=%d row %d: padding bits set: %064b", w, y, last)
			}
		}
		if got, want := g.PopCount(), g.Cells()-1; got != want {
			t.Fatalf("w=%d: PopCount %d, want %d", w, got, want)
		}
	}
}
