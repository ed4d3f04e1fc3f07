package fti

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// mod is a helper for building placement problems.
func mod(id int, name string, w, h, s, e int) place.Module {
	return place.Module{ID: id, Name: name, Size: geom.Size{W: w, H: h},
		Span: geom.Interval{Start: s, End: e}}
}

func TestFullArraySingleModuleNoSpace(t *testing.T) {
	// One 3x3 module on a 3x3 array: nowhere to relocate. FTI = 0.
	p := place.New([]place.Module{mod(0, "A", 3, 3, 0, 10)})
	r := Compute(p)
	if r.FTI() != 0 || r.Covered != 0 || r.Total != 9 {
		t.Fatalf("got %v", r)
	}
	if r.ModuleRelocatable[0] {
		t.Error("module reported relocatable with no free space")
	}
}

func TestModuleWithAmpleSpareSpace(t *testing.T) {
	// One 2x2 module on a 6x6 array: relocation always possible; every
	// cell (used and unused) is covered. FTI = 1.
	p := place.New([]place.Module{mod(0, "A", 2, 2, 0, 10)})
	r := ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 6, H: 6})
	if r.FTI() != 1 || r.Covered != 36 {
		t.Fatalf("got %v", r)
	}
	if !r.ModuleRelocatable[0] {
		t.Error("relocatable flag wrong")
	}
}

func TestUnusedCellsAlwaysCovered(t *testing.T) {
	// A 3x3 module at the corner of a 5x3 array. Removing the module
	// frees the whole array, so relocation sites have origins x ∈
	// {0,1,2}, each spanning all three rows. A fault at x=0 or x=1 can
	// be dodged (origin 1 or 2), but every site covers column x=2, so
	// exactly the module's x=2 column is uncovered. The two free
	// columns are covered by definition.
	p := place.New([]place.Module{mod(0, "A", 3, 3, 0, 10)})
	r := ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 5, H: 3})
	if r.Covered != 12 {
		t.Fatalf("covered = %d, want 12: %v", r.Covered, r)
	}
	if got := r.FTI(); math.Abs(got-12.0/15.0) > 1e-12 {
		t.Errorf("FTI = %v", got)
	}
	for x := 0; x < 5; x++ {
		for y := 0; y < 3; y++ {
			want := x != 2
			if r.CoveredAt(x, y) != want {
				t.Errorf("CoveredAt(%d,%d) = %v, want %v", x, y, r.CoveredAt(x, y), want)
			}
		}
	}
}

func TestRelocationUsesRotation(t *testing.T) {
	// A 2x3 module with a 3x2 free pocket: relocation must succeed via
	// the rotated orientation.
	mods := []place.Module{
		mod(0, "A", 2, 3, 0, 10), // placed at (0,0)
		mod(1, "B", 5, 2, 0, 10), // blocks the top strip partially
	}
	p := place.New(mods)
	p.Pos[0] = geom.Point{X: 0, Y: 0}
	p.Pos[1] = geom.Point{X: 0, Y: 3}
	// Array 5x5: row y=3..4 x0..4 is B; A is x0..1,y0..2.
	// Free: x2..4 y0..2 (3x3) — A (2x3) fits there directly and rotated.
	r := ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 5, H: 5})
	if !r.ModuleRelocatable[0] {
		t.Fatal("A not relocatable")
	}
	for _, pt := range p.Rect(0).Points() {
		if !r.CoveredAt(pt.X, pt.Y) {
			t.Errorf("cell %v of A not covered", pt)
		}
	}
}

func TestTimeSharedCellNeedsAllModulesRelocatable(t *testing.T) {
	// Two modules, disjoint time spans, sharing the same cells on a
	// tight array. A: 2x2 [0,5), B: 2x2 [5,10), both at origin of a
	// 4x2 array. Free strip 2x2 at x=2 exists in both configurations,
	// so both can relocate — all cells covered.
	mods := []place.Module{mod(0, "A", 2, 2, 0, 5), mod(1, "B", 2, 2, 5, 10)}
	p := place.New(mods)
	r := ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 4, H: 2})
	if r.FTI() != 1 {
		t.Fatalf("FTI = %v, want 1: %v", r.FTI(), r)
	}
	// Now make B 2x3 (cannot fit anywhere else on a 4x2 array even
	// rotated: rotated 3x2 needs width 3, free strip is 2 wide): the
	// shared cells become uncovered even though A alone relocates.
	mods[1] = mod(1, "B", 2, 3, 5, 10)
	p2 := place.New(mods)
	r2 := ComputeOn(p2, geom.Rect{X: 0, Y: 0, W: 4, H: 3})
	// B occupies (0..1, 0..2). A occupies (0..1, 0..1) — those cells
	// take B's coverage status. B's footprint 2x3 on 4x3 array with B
	// removed: free region x2..3 (2 wide) all rows → 2x3 fits! So B is
	// relocatable after all. Check consistency with brute force rather
	// than hand-derived expectations.
	rb := ComputeBrute(p2, geom.Rect{X: 0, Y: 0, W: 4, H: 3})
	if r2.Covered != rb.Covered {
		t.Fatalf("fast %d vs brute %d covered", r2.Covered, rb.Covered)
	}
}

func TestFaultyCellBlocksExactRefit(t *testing.T) {
	// Module 2x2 at (0,0) on a 2x4 array. With the module removed the
	// whole array is free, but any placement must avoid the faulty
	// cell. Free area is 2x4; sites are (0,0),(0,1),(0,2) vertically.
	// A fault at (0,0) leaves sites (0,1),(0,2)... but wait: sites
	// containing (0,0) are only (0,0). So relocation succeeds.
	p := place.New([]place.Module{mod(0, "A", 2, 2, 0, 10)})
	r := ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 2, H: 4})
	if r.FTI() != 1 {
		t.Fatalf("FTI = %v, want 1", r.FTI())
	}
	// Shrink to 2x3: sites are (0,0) and (0,1). A fault at (0,1) is
	// inside both sites? (0,0)-site covers rows 0-1, (0,1)-site rows
	// 1-2: both contain row 1. So cell (0,1) (and (1,1)) are NOT
	// covered; corner cells are.
	r = ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 2, H: 3})
	rb := ComputeBrute(p, geom.Rect{X: 0, Y: 0, W: 2, H: 3})
	if r.Covered != rb.Covered {
		t.Fatalf("fast %d vs brute %d", r.Covered, rb.Covered)
	}
	if r.CoveredAt(0, 1) || r.CoveredAt(1, 1) {
		t.Error("middle-row cells should be uncovered (every refit reuses them)")
	}
	if !r.CoveredAt(0, 0) || !r.CoveredAt(1, 2) {
		t.Error("corner cells should be covered")
	}
}

func TestResultStringAndBounds(t *testing.T) {
	p := place.New([]place.Module{mod(0, "A", 2, 2, 0, 10)})
	r := ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 4, H: 4})
	s := r.String()
	if !strings.Contains(s, "FTI") || !strings.Contains(s, "4x4") {
		t.Errorf("String = %q", s)
	}
	if r.CoveredAt(-1, 0) || r.CoveredAt(0, -1) || r.CoveredAt(4, 0) || r.CoveredAt(0, 4) {
		t.Error("out-of-bounds CoveredAt should be false")
	}
	if Compute(place.New([]place.Module{mod(0, "A", 2, 2, 0, 1)})).Total != 4 {
		t.Error("Compute should use the bounding box")
	}
}

func TestEmptyPlacementOnArray(t *testing.T) {
	p := place.New(nil)
	r := ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 3, H: 3})
	if r.FTI() != 1 || r.Covered != 9 {
		t.Fatalf("empty placement: %v", r)
	}
}

// Property: the fast site-intersection computation agrees exactly
// with the brute-force relocation search on random placements.
func TestFastMatchesBruteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(4)
		mods := make([]place.Module, n)
		for i := range mods {
			st := rng.Intn(8)
			mods[i] = mod(i, "M", 1+rng.Intn(3), 1+rng.Intn(3), st, st+1+rng.Intn(8))
		}
		p := place.New(mods)
		aw, ah := 4+rng.Intn(5), 4+rng.Intn(5)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(aw), Y: rng.Intn(ah)}
			p.Rot[i] = rng.Intn(2) == 0
		}
		if !p.Valid() {
			continue // only feasible configurations are meaningful
		}
		array := geom.Rect{X: 0, Y: 0, W: aw, H: ah}
		fast := ComputeOn(p, array)
		brute := ComputeBrute(p, array)
		if fast.Covered != brute.Covered {
			t.Fatalf("trial %d: covered %d vs %d\nplacement:\n%s",
				trial, fast.Covered, brute.Covered, p)
		}
		for i := range fast.CoveredMap {
			if fast.CoveredMap[i] != brute.CoveredMap[i] {
				t.Fatalf("trial %d: cell %d coverage differs", trial, i)
			}
		}
		for i := range fast.ModuleRelocatable {
			if fast.ModuleRelocatable[i] != brute.ModuleRelocatable[i] {
				t.Fatalf("trial %d: module %d relocatable differs", trial, i)
			}
		}
	}
}

// Property: growing the array never decreases the count of covered
// cells among the original cells... (not true in general for FTI as a
// ratio, but the absolute relocation ability is monotone: any module
// relocatable on a subarray stays relocatable on a superarray).
func TestRelocatableMonotoneInArraySize(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(3)
		mods := make([]place.Module, n)
		for i := range mods {
			st := rng.Intn(5)
			mods[i] = mod(i, "M", 1+rng.Intn(3), 1+rng.Intn(3), st, st+1+rng.Intn(6))
		}
		p := place.New(mods)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(4), Y: rng.Intn(4)}
		}
		if !p.Valid() {
			continue
		}
		small := geom.Rect{X: 0, Y: 0, W: 7, H: 7}
		big := geom.Rect{X: 0, Y: 0, W: 9, H: 9}
		rs := ComputeOn(p, small)
		rb := ComputeOn(p, big)
		for i := range rs.ModuleRelocatable {
			if rs.ModuleRelocatable[i] && !rb.ModuleRelocatable[i] {
				t.Fatalf("module %d lost relocatability on bigger array", i)
			}
		}
		// Per-cell coverage is monotone too for cells in the small array.
		for y := 0; y < small.H; y++ {
			for x := 0; x < small.W; x++ {
				if rs.CoveredAt(x, y) && !rb.CoveredAt(x, y) {
					t.Fatalf("cell (%d,%d) lost coverage on bigger array", x, y)
				}
			}
		}
	}
}
