package fti

import (
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// fuzzPlacement decodes bytes into an array of up to 80×8 cells and up
// to four modules on it: two dimension bytes and a module count, then
// six bytes per module (width, height, x, y, span start, span length
// with the rotation in its top bit). Missing bytes read as zero, so
// every prefix decodes. Footprints may be one cell wider or taller
// than the array, and modules may overlap: both are situations the
// annealer prices.
func fuzzPlacement(data []byte) (*place.Placement, geom.Rect) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	array := geom.Rect{W: 1 + at(0)%80, H: 1 + at(1)%8}
	mods := make([]place.Module, at(2)%5)
	for i := range mods {
		b := 3 + 6*i
		st := at(b + 4)
		mods[i] = mod(i, "M", 1+at(b)%(array.W+1), 1+at(b+1)%(array.H+1), st, st+1+at(b+5)%16)
	}
	p := place.New(mods)
	for i := range mods {
		b := 3 + 6*i
		p.Pos[i] = geom.Point{X: at(b+2) % array.W, Y: at(b+3) % array.H}
		p.Rot[i] = at(b+5)&0x80 != 0
	}
	return p, array
}

// FuzzFTI differentially fuzzes the site-intersection kernel against
// the exhaustive relocation oracle: CoveredMap and ModuleRelocatable
// must match exactly.
func FuzzFTI(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4, 1, 2, 2, 0, 0, 0, 5})
	f.Add([]byte{5, 2, 2, 2, 2, 0, 0, 0, 9, 2, 3, 3, 0, 0, 0x83})
	f.Add([]byte{69, 3, 3, 66, 1, 0, 0, 0, 4, 3, 2, 64, 1, 2, 3, 1, 0, 70, 0, 1, 0})
	f.Add([]byte{79, 7, 4, 40, 3, 30, 2, 0, 15, 2, 8, 63, 0, 3, 0x82,
		6, 6, 10, 1, 4, 6, 80, 1, 0, 6, 9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, array := fuzzPlacement(data)
		checkSameResult(t, "fuzz", p, ComputeOn(p, array), ComputeBrute(p, array))
	})
}

// FuzzIncremental drives the incremental evaluator through a
// byte-driven sequence of single-module moves on a fuzzPlacement
// placement. The bytes after the placement are read three at a time:
// the module, its new x, and its new y with the rotation in bit 6 and
// "revert instead of commit" in bit 7. After every Commit or Revert
// the evaluator must equal ComputeOn on the bounding box, cell for
// cell. Positions reach past the decoded array, so bounding-box
// changes (full rebuilds) and rows of one to three words all occur,
// and moves that bounce back revisit memoised configurations.
func FuzzIncremental(f *testing.F) {
	f.Add([]byte{4, 4, 2, 2, 2, 0, 0, 0, 9, 2, 3, 3, 0, 0, 0x83,
		0, 2, 1, 0, 0, 0x80, 1, 1, 0x41, 0, 2, 1, 1, 3, 0xc2})
	f.Add([]byte{5, 2, 3, 2, 2, 0, 0, 0, 9, 2, 3, 3, 0, 0, 0x83, 1, 1, 2, 1, 2, 4,
		2, 0, 1, 0, 3, 0, 2, 0, 1, 2, 3, 0x41, 1, 6, 0, 0, 0, 0x80})
	f.Add([]byte{69, 3, 3, 66, 1, 0, 0, 0, 4, 3, 2, 64, 1, 2, 3, 1, 0, 70, 0, 1, 0,
		0, 3, 1, 0, 70, 0x80, 2, 0, 0x42, 1, 65, 2, 0, 0, 0})
	f.Add([]byte{79, 7, 4, 40, 3, 30, 2, 0, 15, 2, 8, 63, 0, 3, 0x82,
		6, 6, 10, 1, 4, 6, 80, 1, 0, 6, 9, 1,
		0, 80, 3, 1, 5, 0x41, 3, 0, 0x80, 0, 30, 2, 2, 60, 0x46, 3, 81, 0})
	// A move sequence on which a memo key that left out the array
	// would serve a rectangle priced on a different bounding box.
	f.Add([]byte("Y&12270 7$000002%00 000z10028A1#0110"))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, array := fuzzPlacement(data)
		if len(p.Modules) == 0 {
			return
		}
		inc := NewIncremental(p)
		checkAgainstScratch(t, "initial", inc, p)
		for b := 3 + 6*len(p.Modules); b+3 <= len(data); b += 3 {
			i := int(data[b]) % len(p.Modules)
			oldPos, oldRot := p.Pos[i], p.Rot[i]
			p.Pos[i] = geom.Point{X: int(data[b+1]) % (array.W + 2), Y: int(data[b+2]&0x3f) % (array.H + 2)}
			p.Rot[i] = data[b+2]&0x40 != 0
			inc.Apply(p.BoundingBox(), affectedBy(inc, i))
			if data[b+2]&0x80 != 0 {
				p.Pos[i], p.Rot[i] = oldPos, oldRot
				inc.Revert()
				checkAgainstScratch(t, "revert", inc, p)
			} else {
				inc.Commit()
				checkAgainstScratch(t, "commit", inc, p)
			}
		}
	})
}
