package fti

import (
	"math/bits"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
)

// Site returns the free site that partial reconfiguration relocates a
// module of footprint s to: a rectangle of free cells of g shaped s or
// s transposed. Among all free sites it picks the one with the fewest
// free cells bordering it (its 4-neighbour ring, inside the grid), so
// the module hugs occupied cells and the array edge and keeps the
// remaining free area in as few, as large pieces as it can. Ties go
// to s before its transpose, then to the lowest y, then to the lowest
// x. ok is false when g has no free site for either orientation.
//
// The candidates are the sites ComputeOn intersects, from the same
// band scan, so with the faulty cell marked occupied on g Site finds
// a site exactly when the FTI counts that cell of the module covered.
func Site(g *grid.Grid, s geom.Size) (site geom.Rect, ok bool) {
	var buf [4]uint64 // rows up to 256 cells wide need no allocation
	var band []uint64
	if wpr := g.WordsPerRow(); wpr <= len(buf) {
		band = buf[:wpr]
	} else {
		band = make([]uint64, wpr)
	}
	best := -1
	for k, o := range [2]geom.Size{s, s.Transpose()} {
		if k == 1 && s.IsSquare() {
			break
		}
		for y := 0; y+o.H <= g.H(); y++ {
			bandSites(band, g, y, o)
			for i, w := range band {
				for ; w != 0; w &= w - 1 {
					r := geom.Rect{X: i*64 + bits.TrailingZeros64(w), Y: y, W: o.W, H: o.H}
					if n := freeBorder(g, r); best < 0 || n < best {
						site, best, ok = r, n, true
						if n == 0 {
							return site, true // nothing scores lower
						}
					}
				}
			}
		}
	}
	return site, ok
}

// freeBorder counts the free cells of g that share an edge with r:
// the rows below and above r over its columns and the columns left
// and right of r over its rows, where they lie inside g.
func freeBorder(g *grid.Grid, r geom.Rect) int {
	n := 0
	for x := r.X; x < r.MaxX(); x++ {
		n += free(g, x, r.Y-1) + free(g, x, r.MaxY())
	}
	for y := r.Y; y < r.MaxY(); y++ {
		n += free(g, r.X-1, y) + free(g, r.MaxX(), y)
	}
	return n
}

// free is 1 when cell (x, y) lies inside g and is free, 0 otherwise.
func free(g *grid.Grid, x, y int) int {
	if g.Free(geom.Point{X: x, Y: y}) {
		return 1
	}
	return 0
}
