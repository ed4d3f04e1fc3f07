// Package fti computes the paper's fault tolerance index (Section 5.2)
// and the underlying per-cell C-coverage.
//
// For a configuration C on an m×n array, a cell is C-covered if
//
//   - no module uses it, or
//   - every module that uses it can be relocated by partial
//     reconfiguration: after temporarily removing the module and
//     marking the faulty cell occupied, some set of contiguous free
//     cells (equivalently, some maximal empty rectangle) accommodates
//     the module's footprint in either orientation.
//
// FTI = (#C-covered cells) / (m·n) ∈ [0, 1]. FTI = 1 means any single
// faulty cell can be bypassed by partial reconfiguration; FTI = 0
// means no faulty cell can.
//
// The combined placement of the paper's "modified 2-D placement" lets
// a cell belong to several modules with pairwise-disjoint time spans;
// such a cell is covered only if every one of those modules is
// relocatable within its own time slice (obstacles are the modules
// whose spans overlap the failing module's span).
//
// Section 5.3 answers "can M avoid faulty cell c?" by mining the
// maximal empty rectangles (MERs) of M's configuration and testing
// each cell against each MER. This package uses an equivalent
// site-intersection kernel. Every free site for M (a placement of
// M's footprint on free cells, in either orientation) lies in some
// MER, and every placement of the footprint inside a MER is a free
// site, so "some MER accommodates M avoiding c" holds exactly when
// some free site misses c, that is, when c is not in the intersection
// of all free sites. Sites are axis-aligned rectangles, so that
// intersection is one rectangle, computed by a word-parallel scan of
// the occupancy rows, and M's uncovered cells are M's rectangle
// intersected with it.
//
// Site runs the same scan for the reconfiguration planner, which
// needs one concrete site rather than the intersection: it picks the
// free site bordering the fewest free cells. A relocation therefore
// exists exactly when the FTI counts the faulty cell covered.
package fti

import (
	"fmt"
	"math/bits"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
	"dmfb/internal/place"
)

// Result reports the fault-tolerance analysis of a placement.
type Result struct {
	Array   geom.Rect // the array the index is computed over
	Covered int       // number of C-covered cells
	Total   int       // m·n
	// CoveredMap[y*Array.W+x] reports whether the array cell at
	// array-local coordinates (x, y) is C-covered.
	CoveredMap []bool
	// ModuleRelocatable[i] reports whether module i can be relocated
	// for at least one faulty cell within it; a module that is not
	// relocatable for any of its cells makes all its cells uncovered.
	ModuleRelocatable []bool
}

// FTI returns the fault tolerance index k/(m·n).
func (r Result) FTI() float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Covered) / float64(r.Total)
}

// CoveredAt reports whether the array cell at array-local (x, y) is
// C-covered.
func (r Result) CoveredAt(x, y int) bool {
	if x < 0 || x >= r.Array.W || y < 0 || y >= r.Array.H {
		return false
	}
	return r.CoveredMap[y*r.Array.W+x]
}

// String summarises the result.
func (r Result) String() string {
	return fmt.Sprintf("FTI %.4f (%d/%d cells C-covered on %dx%d array)",
		r.FTI(), r.Covered, r.Total, r.Array.W, r.Array.H)
}

// Compute analyses the placement on the smallest array containing it
// (its bounding box), the array a designer would fabricate for it.
func Compute(p *place.Placement) Result {
	return ComputeOn(p, p.BoundingBox())
}

// ComputeOn analyses the placement on an explicit array. Modules are
// clipped to the array; cells outside the array do not exist.
//
// The procedure follows Section 5.3: for each module M, the
// configuration during M's operation is encoded as a 0/1 matrix with M
// temporarily removed, and the cells of M that every free site of M's
// footprint covers (the faulty cell, which the paper marks as a 1,
// would block every site) are knocked out. See the package comment
// for why this matches the paper's MER test.
func ComputeOn(p *place.Placement, array geom.Rect) Result {
	res := Result{
		Array:             array,
		Total:             array.Cells(),
		CoveredMap:        make([]bool, array.Cells()),
		ModuleRelocatable: make([]bool, len(p.Modules)),
	}
	// Start from "every cell covered" and knock out the cells of
	// non-relocatable modules.
	for i := range res.CoveredMap {
		res.CoveredMap[i] = true
	}

	var e *moduleEval
	adj := p.Conflicts()
	for mi := range p.Modules {
		if e == nil {
			e = newModuleEval(array)
		}
		bad, relocatable := e.eval(p, adj[mi], mi)
		for y := bad.Y; y < bad.MaxY(); y++ {
			for x := bad.X; x < bad.MaxX(); x++ {
				res.CoveredMap[y*array.W+x] = false
			}
		}
		res.ModuleRelocatable[mi] = relocatable
	}

	for _, c := range res.CoveredMap {
		if c {
			res.Covered++
		}
	}
	return res
}

// moduleEval holds the reusable scratch buffers of the per-module
// relocatability test: the occupancy grid of the array and, for rows
// wider than one word, one row of words for the band scan. One
// instance serves any number of evaluations on the same array size.
type moduleEval struct {
	array geom.Rect
	g     *grid.Grid
	band  []uint64
}

func newModuleEval(array geom.Rect) *moduleEval {
	return &moduleEval{array: array, g: grid.New(array.W, array.H)}
}

// eval runs the per-module procedure for module mi, whose span-overlap
// neighbours (Placement.Conflicts) are adj: encode the
// configuration during mi's time span with mi removed, then intersect
// every free site of mi's footprint, in either orientation, with mi's
// own cells. A cell of mi is uncovered exactly when every site
// contains it, and the intersection of axis-aligned rectangles is a
// rectangle, so the result is one rectangle: bad, mi's uncovered
// cells in array-local coordinates (empty when all are covered;
// all of mi's cells when no site exists). It reports whether any cell
// of mi is relocatable.
func (e *moduleEval) eval(p *place.Placement, adj []int, mi int) (geom.Rect, bool) {
	m := p.Modules[mi]
	cells := p.Rect(mi).Intersect(e.array).Translate(-e.array.X, -e.array.Y)
	if cells.Empty() {
		return geom.Rect{}, false
	}
	// Occupancy during M's time span with M removed: exactly the
	// modules whose spans overlap M's, which are M's neighbours.
	e.g.Clear()
	for _, j := range adj {
		e.g.SetRect(p.Rect(j).Translate(-e.array.X, -e.array.Y), true)
	}
	bad := e.intersectSites(cells, m.Size)
	if !bad.Empty() && !m.Size.IsSquare() {
		bad = e.intersectSites(bad, m.Size.Transpose())
	}
	return bad, bad.Cells() < cells.Cells()
}

// intersectSites intersects bad with every free w×h site of the
// occupancy grid and returns the result, stopping as soon as it is
// empty (the intersection only shrinks). Each row band [y, y+h) is
// scanned as words: OR the band's rows, invert within the width, then
// AND the free mask with itself shifted right until bit x is set
// exactly when the site with origin x is free. The band's sites then
// intersect to [hi, lo+w) × [y, y+h), where lo and hi are the lowest
// and highest origins.
func (e *moduleEval) intersectSites(bad geom.Rect, s geom.Size) geom.Rect {
	g := e.g
	gw, gh, wpr := g.W(), g.H(), g.WordsPerRow()
	if s.W > gw || s.H > gh {
		return bad
	}
	words := g.Words()
	if wpr == 1 {
		// Rows of one word (arrays up to 64 wide, every benchmark
		// array): the band lives in a register, with no band buffer
		// and no word loops. This pays on the Table 2 sweep, where the
		// word-loop scan below is measurably slower on one-word rows.
		row := ^uint64(0) >> uint(64-gw) // the row's cells
		for y := 0; y+s.H <= gh; y++ {
			v := words[y]
			for _, w := range words[y+1 : y+s.H] {
				v |= w
			}
			f := ^v & row
			for k := 1; k < s.W; {
				sh := min(k, s.W-k)
				f &= f >> uint(sh)
				k += sh
			}
			if f == 0 {
				continue
			}
			lo, hi := bits.TrailingZeros64(f), 63-bits.LeadingZeros64(f)
			bad = bad.Intersect(geom.Rect{X: hi, Y: y, W: lo + s.W - hi, H: s.H})
			if bad.Empty() {
				return geom.Rect{}
			}
		}
		return bad
	}
	if cap(e.band) < wpr {
		e.band = make([]uint64, wpr)
	}
	band := e.band[:wpr]
	for y := 0; y+s.H <= gh; y++ {
		bandSites(band, g, y, s)
		lo, hi := -1, -1
		for i, w := range band {
			if w != 0 {
				if lo < 0 {
					lo = i*64 + bits.TrailingZeros64(w)
				}
				hi = i*64 + 63 - bits.LeadingZeros64(w)
			}
		}
		if lo < 0 {
			continue // no site in this band
		}
		bad = bad.Intersect(geom.Rect{X: hi, Y: y, W: lo + s.W - hi, H: s.H})
		if bad.Empty() {
			return geom.Rect{}
		}
	}
	return bad
}

// bandSites sets band, which holds one row of g's words, to the
// free-site mask of footprint s in the row band [y, y+s.H): bit x is
// set exactly when the site with origin (x, y) is free. It ORs the
// band's rows, inverts within the width, then ANDs the free mask with
// itself shifted right until each set bit heads s.W free columns.
func bandSites(band []uint64, g *grid.Grid, y int, s geom.Size) {
	wpr, words := g.WordsPerRow(), g.Words()
	copy(band, words[y*wpr:(y+1)*wpr])
	for r := y + 1; r < y+s.H; r++ {
		row := words[r*wpr : (r+1)*wpr]
		for i := range band {
			band[i] |= row[i]
		}
	}
	for i := range band {
		band[i] = ^band[i]
	}
	if tail := g.W() % 64; tail != 0 {
		band[wpr-1] &= 1<<uint(tail) - 1
	}
	for k := 1; k < s.W; {
		sh := min(k, s.W-k)
		shiftAndRight(band, sh)
		k += sh
	}
}

// shiftAndRight sets f &= f >> sh over a multi-word little-endian bit
// row (bit x%64 of word x/64 is cell x). Ascending word order makes
// the in-place update safe: word i reads only words i and above.
func shiftAndRight(f []uint64, sh int) {
	q, r := sh/64, uint(sh%64)
	for i := range f {
		var v uint64
		if i+q < len(f) {
			v = f[i+q] >> r
			if r != 0 && i+q+1 < len(f) {
				v |= f[i+q+1] << (64 - r)
			}
		}
		f[i] &= v
	}
}

// ComputeBrute is an exhaustive oracle for the test suite: for every
// cell and every module containing it, it tries every position and
// orientation of the module on the array, checking cell-by-cell that
// the candidate site is free and avoids the faulty cell. O(m²n²·|M|)
// — small arrays only.
func ComputeBrute(p *place.Placement, array geom.Rect) Result {
	res := Result{
		Array:             array,
		Total:             array.Cells(),
		CoveredMap:        make([]bool, array.Cells()),
		ModuleRelocatable: make([]bool, len(p.Modules)),
	}
	for y := 0; y < array.H; y++ {
		for x := 0; x < array.W; x++ {
			pt := geom.Point{X: array.X + x, Y: array.Y + y}
			covered := true
			for _, mi := range p.ModulesAt(pt) {
				if !relocatableBrute(p, array, mi, pt) {
					covered = false
					break
				}
			}
			res.CoveredMap[y*array.W+x] = covered
			if covered {
				res.Covered++
			}
		}
	}
	for mi := range p.Modules {
		for _, pt := range p.Rect(mi).Intersect(array).Points() {
			if relocatableBrute(p, array, mi, pt) {
				res.ModuleRelocatable[mi] = true
				break
			}
		}
	}
	return res
}

// relocatableBrute reports whether module mi can be relocated when
// cell faulty (core coordinates) fails, by exhaustive position search.
func relocatableBrute(p *place.Placement, array geom.Rect, mi int, faulty geom.Point) bool {
	m := p.Modules[mi]
	g := p.OccupancyDuring(array, m.Span, mi)
	g.Set(geom.Point{X: faulty.X - array.X, Y: faulty.Y - array.Y}, true)
	sizes := []geom.Size{m.Size}
	if !m.Size.IsSquare() {
		sizes = append(sizes, m.Size.Transpose())
	}
	for _, s := range sizes {
		for y := 0; y+s.H <= array.H; y++ {
			for x := 0; x+s.W <= array.W; x++ {
				if g.RectFree(geom.Rect{X: x, Y: y, W: s.W, H: s.H}) {
					return true
				}
			}
		}
	}
	return false
}
