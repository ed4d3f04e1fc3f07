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
