package fti

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// The site-intersection kernel scans rows as 64-cell words, shifting
// across word boundaries, and treats x (bit shifts) and y (row bands)
// differently. These tests pin both: wide arrays against the
// exhaustive oracle, and oracle-free symmetries that an axis or carry
// bug would break.

// checkSameResult fails unless got and want agree cell for cell and
// module for module.
func checkSameResult(t *testing.T, tag string, p *place.Placement, got, want Result) {
	t.Helper()
	if got.Covered != want.Covered {
		t.Fatalf("%s: covered %d, want %d\nplacement:\n%s", tag, got.Covered, want.Covered, p)
	}
	for i := range got.CoveredMap {
		if got.CoveredMap[i] != want.CoveredMap[i] {
			t.Fatalf("%s: cell (%d,%d) covered=%v, want %v", tag,
				i%got.Array.W, i/got.Array.W, got.CoveredMap[i], want.CoveredMap[i])
		}
	}
	for i := range got.ModuleRelocatable {
		if got.ModuleRelocatable[i] != want.ModuleRelocatable[i] {
			t.Fatalf("%s: module %d relocatable=%v, want %v", tag, i,
				got.ModuleRelocatable[i], want.ModuleRelocatable[i])
		}
	}
}

// wideModules returns n modules for a w×h array, some wider than one
// 64-cell word (some nearly w wide), with random spans.
func wideModules(rng *rand.Rand, n, w, h int) []place.Module {
	mods := make([]place.Module, n)
	for i := range mods {
		mw := 1 + rng.Intn(4)
		switch rng.Intn(4) {
		case 0:
			mw = 1 + rng.Intn(w)
		case 1: // near full width: shifts of a whole word and more
			mw = w - rng.Intn(min(w, 12))
		}
		st := rng.Intn(6)
		mods[i] = mod(i, "M", mw, 1+rng.Intn(h), st, st+1+rng.Intn(6))
	}
	return mods
}

// TestWideMatchesBrute differentially checks ComputeOn against the
// exhaustive oracle on arrays 60–140 cells wide, so free-site masks
// span one to three words and footprints straddle word boundaries.
// Overlapping placements are kept: the annealer prices them too, and
// both sides agree on them (an occupied cell lies in no free site).
func TestWideMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 60; trial++ {
		aw, ah := 60+rng.Intn(81), 2+rng.Intn(3)
		if trial%3 == 0 {
			aw = 129 + rng.Intn(12) // footprints over 128 shift by whole words
		}
		mods := wideModules(rng, 1+rng.Intn(5), aw, ah)
		p := place.New(mods)
		for i := range mods {
			sz := p.Size(i)
			p.Pos[i] = geom.Point{X: rng.Intn(aw - sz.W + 1), Y: rng.Intn(ah - sz.H + 1)}
		}
		array := geom.Rect{X: 0, Y: 0, W: aw, H: ah}
		checkSameResult(t, "wide", p, ComputeOn(p, array), ComputeBrute(p, array))
	}
}

// TestIncrementalWideDifferential runs the incremental evaluator over
// a bounding box wider than 64 cells, with long jumps that keep
// changing the box, and checks every step against ComputeOn.
func TestIncrementalWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	mods := wideModules(rng, 6, 90, 4)
	p := place.New(mods)
	for i := range mods {
		p.Pos[i] = geom.Point{X: rng.Intn(130), Y: rng.Intn(4)}
	}
	inc := NewIncremental(p)
	checkAgainstScratch(t, "initial", inc, p)
	wide := 0
	for mv := 0; mv < 600; mv++ {
		i := rng.Intn(len(mods))
		oldPos, oldRot := p.Pos[i], p.Rot[i]
		p.Pos[i] = geom.Point{X: rng.Intn(130), Y: rng.Intn(6)}
		p.Rot[i] = rng.Intn(4) == 0
		inc.Apply(p.BoundingBox(), affectedBy(inc, i))
		if inc.Array().W > 64 {
			wide++
		}
		if rng.Intn(2) == 0 {
			inc.Commit()
			checkAgainstScratch(t, "commit", inc, p)
		} else {
			p.Pos[i], p.Rot[i] = oldPos, oldRot
			inc.Revert()
			checkAgainstScratch(t, "revert", inc, p)
		}
	}
	if wide < 300 || inc.Rebuilds() < 100 {
		t.Fatalf("weak coverage: %d wide steps, %d rebuilds", wide, inc.Rebuilds())
	}
}

// dihedral is one of the 8 symmetries of a rectangular array:
// optionally transpose, then optionally mirror each axis.
type dihedral struct{ transpose, flipX, flipY bool }

// rect maps an array-local rectangle of a w×h array.
func (d dihedral) rect(r geom.Rect, w, h int) geom.Rect {
	if d.transpose {
		r = geom.Rect{X: r.Y, Y: r.X, W: r.H, H: r.W}
		w, h = h, w
	}
	if d.flipX {
		r.X = w - r.MaxX()
	}
	if d.flipY {
		r.Y = h - r.MaxY()
	}
	return r
}

// apply returns the transformed placement; a transposing symmetry
// swaps every module's orientation so its footprint follows.
func (d dihedral) apply(p *place.Placement, w, h int) *place.Placement {
	q := p.Clone()
	for i := range p.Modules {
		q.Pos[i] = d.rect(p.Rect(i), w, h).Origin()
		q.Rot[i] = p.Rot[i] != d.transpose
	}
	return q
}

// randomArrayPlacement places n random modules inside a w×h array.
func randomArrayPlacement(rng *rand.Rand, mods []place.Module, w, h int) *place.Placement {
	p := place.New(mods)
	for i := range mods {
		p.Rot[i] = rng.Intn(2) == 0
		sz := p.Size(i)
		if sz.W > w || sz.H > h {
			p.Rot[i] = !p.Rot[i]
			sz = p.Size(i)
		}
		p.Pos[i] = geom.Point{X: rng.Intn(max(1, w-sz.W+1)), Y: rng.Intn(max(1, h-sz.H+1))}
	}
	return p
}

// TestDihedralInvariance checks that Covered, FTI, module
// relocatability and the mapped CoveredMap are unchanged under every
// symmetry of the array, on small square-ish and wide arrays.
func TestDihedralInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 120; trial++ {
		w, h := 3+rng.Intn(8), 3+rng.Intn(8)
		if trial%4 == 0 {
			w, h = 60+rng.Intn(40), 2+rng.Intn(3)
		}
		mods := make([]place.Module, 1+rng.Intn(6))
		for i := range mods {
			st := rng.Intn(8)
			mods[i] = mod(i, "M", 1+rng.Intn(min(w, 4)), 1+rng.Intn(min(h, 4)), st, st+1+rng.Intn(8))
		}
		p := randomArrayPlacement(rng, mods, w, h)
		base := ComputeOn(p, geom.Rect{W: w, H: h})
		for k := 1; k < 8; k++ {
			d := dihedral{transpose: k&4 != 0, flipX: k&1 != 0, flipY: k&2 != 0}
			tw, th := w, h
			if d.transpose {
				tw, th = h, w
			}
			q := d.apply(p, w, h)
			got := ComputeOn(q, geom.Rect{W: tw, H: th})
			if got.Covered != base.Covered || got.FTI() != base.FTI() {
				t.Fatalf("trial %d %+v: covered %d, untransformed %d", trial, d, got.Covered, base.Covered)
			}
			for mi, r := range base.ModuleRelocatable {
				if got.ModuleRelocatable[mi] != r {
					t.Fatalf("trial %d %+v: module %d relocatable=%v, untransformed %v", trial, d, mi, got.ModuleRelocatable[mi], r)
				}
			}
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					c := d.rect(geom.Rect{X: x, Y: y, W: 1, H: 1}, w, h)
					if got.CoveredAt(c.X, c.Y) != base.CoveredAt(x, y) {
						t.Fatalf("trial %d %+v: cell (%d,%d)→(%d,%d) coverage differs", trial, d, x, y, c.X, c.Y)
					}
				}
			}
		}
	}
}

// TestTimeShiftAndRelabelInvariance checks that the analysis depends
// only on which spans overlap and where modules sit: shifting every
// span by one constant, or permuting the module list, leaves the
// coverage map unchanged and permutes relocatability with the modules.
func TestTimeShiftAndRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 150; trial++ {
		w, h := 4+rng.Intn(8), 4+rng.Intn(8)
		mods := make([]place.Module, 2+rng.Intn(6))
		for i := range mods {
			st := rng.Intn(10)
			mods[i] = mod(i, "M", 1+rng.Intn(4), 1+rng.Intn(4), st, st+1+rng.Intn(8))
		}
		p := randomArrayPlacement(rng, mods, w, h)
		array := geom.Rect{W: w, H: h}
		base := ComputeOn(p, array)

		shift := rng.Intn(1000) - 500
		shifted := make([]place.Module, len(mods))
		for i, m := range mods {
			m.Span = geom.Interval{Start: m.Span.Start + shift, End: m.Span.End + shift}
			shifted[i] = m
		}
		ps := place.New(shifted)
		copy(ps.Pos, p.Pos)
		copy(ps.Rot, p.Rot)
		checkSameResult(t, "time shift", ps, ComputeOn(ps, array), base)

		perm := rng.Perm(len(mods))
		relabelled := make([]place.Module, len(mods))
		for newI, oldI := range perm {
			relabelled[newI] = mods[oldI]
			relabelled[newI].ID = newI
		}
		pr := place.New(relabelled)
		for newI, oldI := range perm {
			pr.Pos[newI], pr.Rot[newI] = p.Pos[oldI], p.Rot[oldI]
		}
		got := ComputeOn(pr, array)
		want := base
		want.ModuleRelocatable = make([]bool, len(mods))
		for newI, oldI := range perm {
			want.ModuleRelocatable[newI] = base.ModuleRelocatable[oldI]
		}
		checkSameResult(t, "relabel", pr, got, want)
	}
}
