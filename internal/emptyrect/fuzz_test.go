package emptyrect

import (
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
)

// FuzzMiner differentially fuzzes the linear-time MER miner against
// the exhaustive MaximalBrute oracle on arbitrary small grids, and
// asserts the structural invariants every mined rectangle must hold:
// in-bounds, entirely free, and maximal (not extensible in any
// direction). The miner feeds the recovery planner's choice of
// relocation site, so a divergence here silently corrupts every
// reconfiguration downstream.

// fuzzGrid decodes bytes into an occupancy grid of at most 12x12
// cells: two dimension bytes, then one bit per cell taken from the
// remaining bytes (zero once exhausted, so every prefix decodes).
func fuzzGrid(data []byte) *grid.Grid {
	dim := func(i int) int {
		if i < len(data) {
			return 1 + int(data[i])%12
		}
		return 1
	}
	w, h := dim(0), dim(1)
	g := grid.New(w, h)
	for i := 0; i < w*h; i++ {
		bi := 2 + i/8
		if bi < len(data) && data[bi]&(1<<(i%8)) != 0 {
			g.Set(geom.Point{X: i % w, Y: i / w}, true)
		}
	}
	return g
}

func FuzzMiner(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 4})
	f.Add([]byte{8, 8, 0x42, 0x00, 0x18, 0x18, 0x00, 0x42, 0xff, 0x01})
	f.Add([]byte{12, 12, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55,
		0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	f.Add([]byte{3, 12, 0x01, 0x10, 0x04, 0x40, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGrid(data)
		got := Maximal(g)
		want := MaximalBrute(g)
		if len(got) != len(want) {
			t.Fatalf("miner found %d MERs, oracle %d\ngrid:\n%s\nminer: %v\noracle: %v",
				len(got), len(want), g, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("MER %d: miner %v, oracle %v\ngrid:\n%s", i, got[i], want[i], g)
			}
			r := got[i]
			if !g.Bounds().ContainsRect(r) {
				t.Fatalf("MER %v escapes grid %dx%d", r, g.W(), g.H())
			}
			if !g.RectFree(r) {
				t.Fatalf("MER %v covers an occupied cell\ngrid:\n%s", r, g)
			}
			if !isMaximal(g, r) {
				t.Fatalf("rect %v is not maximal\ngrid:\n%s", r, g)
			}
		}
	})
}
