// Package grid implements the dense occupancy matrix used to model a
// configuration of the microfluidic array: occupied cells (cells of
// currently operating modules, plus any cell marked faulty) are 1s and
// free cells are 0s, exactly as in the encoding step of the paper's
// fast fault-tolerance-index algorithm (Section 5.3).
//
// The matrix is bit-packed: each row is a run of 64-cell words, so
// the hot geometric predicates — RectFree, SetRect, CountOccupied —
// are word operations (mask tests, popcounts) instead of per-cell
// byte loads. Scanline consumers (the maximal-empty-rectangle miner
// and the FTI site scan) read rows as words through Words.
package grid

import (
	"fmt"
	"math/bits"
	"strings"

	"dmfb/internal/geom"
)

// wordBits is the cell capacity of one occupancy word.
const wordBits = 64

// WordsPerRow returns the number of uint64 words needed to hold one
// row of w cells.
func WordsPerRow(w int) int { return (w + wordBits - 1) / wordBits }

// Grid is a W×H occupancy matrix, bit-packed one row per run of
// 64-cell words. The zero value is unusable; construct with New.
// Cells outside the grid are treated as occupied by the query
// helpers, which is the natural boundary condition for
// empty-rectangle mining and droplet routing. Bits of the last word
// of a row beyond the grid width are always zero (free), an invariant
// every mutator preserves so word-level readers need no edge masking.
type Grid struct {
	w, h  int
	wpr   int      // words per row
	words []uint64 // row-major: row y = words[y*wpr : (y+1)*wpr]
}

// New returns an empty (all-free) grid of the given dimensions.
// It panics if either dimension is not positive, since a biochip array
// with no cells is always a caller bug.
func New(w, h int) *Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	wpr := WordsPerRow(w)
	return &Grid{w: w, h: h, wpr: wpr, words: make([]uint64, wpr*h)}
}

// FromRects returns a grid the size of bounds with the given rects
// marked occupied (rects are clipped to the grid).
func FromRects(w, h int, rs ...geom.Rect) *Grid {
	g := New(w, h)
	for _, r := range rs {
		g.SetRect(r, true)
	}
	return g
}

// W returns the grid width in cells.
func (g *Grid) W() int { return g.w }

// H returns the grid height in cells.
func (g *Grid) H() int { return g.h }

// Bounds returns the grid extent as a Rect anchored at the origin.
func (g *Grid) Bounds() geom.Rect { return geom.Rect{X: 0, Y: 0, W: g.w, H: g.h} }

// Cells returns the total number of cells.
func (g *Grid) Cells() int { return g.w * g.h }

// In reports whether p lies inside the grid.
func (g *Grid) In(p geom.Point) bool {
	return p.X >= 0 && p.X < g.w && p.Y >= 0 && p.Y < g.h
}

// Occupied reports whether cell p is occupied. Out-of-bounds cells
// read as occupied.
func (g *Grid) Occupied(p geom.Point) bool {
	if !g.In(p) {
		return true
	}
	return g.words[p.Y*g.wpr+p.X/wordBits]&(1<<(uint(p.X)%wordBits)) != 0
}

// Free reports whether cell p is inside the grid and unoccupied.
func (g *Grid) Free(p geom.Point) bool { return !g.Occupied(p) }

// WordsPerRow returns the number of words each row occupies in Words.
func (g *Grid) WordsPerRow() int { return g.wpr }

// Words returns the whole occupancy matrix as a shared word slice (do
// not mutate; it aliases the grid's storage): row y occupies
// Words()[y*WordsPerRow() : (y+1)*WordsPerRow()], bit x%64 of word
// x/64 is cell (x, y). Bits past the grid width are always zero.
func (g *Grid) Words() []uint64 { return g.words }

// RowWords returns row y of the occupancy matrix as a shared word
// slice (do not mutate; it aliases the grid's storage). Bit x%64 of
// word x/64 is cell (x, y); bits past the grid width are always zero.
// It panics if y is out of range. Scanline algorithms iterate this
// instead of per-cell Occupied calls.
func (g *Grid) RowWords(y int) []uint64 {
	return g.words[y*g.wpr : (y+1)*g.wpr]
}

// Resize reshapes the grid to w×h and marks every cell free, reusing
// the backing storage when it is large enough. It panics on
// non-positive dimensions, like New.
func (g *Grid) Resize(w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	wpr := WordsPerRow(w)
	n := wpr * h
	if cap(g.words) < n {
		g.words = make([]uint64, n)
	} else {
		g.words = g.words[:n]
		clear(g.words)
	}
	g.w, g.h, g.wpr = w, h, wpr
}

// Set marks cell p occupied (true) or free (false). Out-of-bounds
// writes are ignored.
func (g *Grid) Set(p geom.Point, occupied bool) {
	if !g.In(p) {
		return
	}
	bit := uint64(1) << (uint(p.X) % wordBits)
	if occupied {
		g.words[p.Y*g.wpr+p.X/wordBits] |= bit
	} else {
		g.words[p.Y*g.wpr+p.X/wordBits] &^= bit
	}
}

// rowMask returns the masks covering columns [x0, x1) of a row: one
// mask per word from word x0/64 through word (x1-1)/64. first and
// last are the partial masks of the boundary words; full words in
// between are all-ones. When the span fits one word, first == last ==
// the single mask and wFirst == wLast.
func rowMask(x0, x1 int) (wFirst, wLast int, first, last uint64) {
	wFirst = x0 / wordBits
	wLast = (x1 - 1) / wordBits
	first = ^uint64(0) << (uint(x0) % wordBits)
	last = ^uint64(0) >> (uint(wordBits-1-(x1-1)%wordBits) % wordBits)
	if wFirst == wLast {
		first &= last
		last = first
	}
	return wFirst, wLast, first, last
}

// SetRect marks every cell of r (clipped to the grid) occupied or free.
func (g *Grid) SetRect(r geom.Rect, occupied bool) {
	c := r.Intersect(g.Bounds())
	if c.Empty() {
		return
	}
	wFirst, wLast, first, last := rowMask(c.X, c.MaxX())
	for y := c.Y; y < c.MaxY(); y++ {
		row := g.words[y*g.wpr : (y+1)*g.wpr : (y+1)*g.wpr]
		if occupied {
			if wFirst == wLast {
				row[wFirst] |= first
				continue
			}
			row[wFirst] |= first
			for w := wFirst + 1; w < wLast; w++ {
				row[w] = ^uint64(0)
			}
			row[wLast] |= last
		} else {
			if wFirst == wLast {
				row[wFirst] &^= first
				continue
			}
			row[wFirst] &^= first
			for w := wFirst + 1; w < wLast; w++ {
				row[w] = 0
			}
			row[wLast] &^= last
		}
	}
}

// RectFree reports whether r lies entirely inside the grid and every
// cell of r is free.
func (g *Grid) RectFree(r geom.Rect) bool {
	if r.Empty() {
		return true
	}
	if !g.Bounds().ContainsRect(r) {
		return false
	}
	wFirst, wLast, first, last := rowMask(r.X, r.MaxX())
	for y := r.Y; y < r.MaxY(); y++ {
		row := g.words[y*g.wpr : (y+1)*g.wpr : (y+1)*g.wpr]
		if wFirst == wLast {
			if row[wFirst]&first != 0 {
				return false
			}
			continue
		}
		if row[wFirst]&first != 0 || row[wLast]&last != 0 {
			return false
		}
		for w := wFirst + 1; w < wLast; w++ {
			if row[w] != 0 {
				return false
			}
		}
	}
	return true
}

// CountOccupied returns the number of occupied cells.
func (g *Grid) CountOccupied() int { return g.PopCount() }

// PopCount returns the number of occupied cells as the popcount of
// the word matrix (padding bits are zero by invariant).
func (g *Grid) PopCount() int {
	n := 0
	for _, w := range g.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountFree returns the number of free cells.
func (g *Grid) CountFree() int { return g.Cells() - g.CountOccupied() }

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	c := &Grid{w: g.w, h: g.h, wpr: g.wpr, words: make([]uint64, len(g.words))}
	copy(c.words, g.words)
	return c
}

// Clear marks every cell free.
func (g *Grid) Clear() {
	clear(g.words)
}

// Equal reports whether the two grids have identical dimensions and
// contents.
func (g *Grid) Equal(o *Grid) bool {
	if g.w != o.w || g.h != o.h {
		return false
	}
	for i := range g.words {
		if g.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// String renders the grid with '#' for occupied and '.' for free,
// top row (largest y) first, matching how the paper draws arrays.
func (g *Grid) String() string {
	var b strings.Builder
	for y := g.h - 1; y >= 0; y-- {
		row := g.RowWords(y)
		for x := 0; x < g.w; x++ {
			if row[x/wordBits]&(1<<(uint(x)%wordBits)) != 0 {
				b.WriteByte('#')
			} else {
				b.WriteByte('.')
			}
		}
		if y > 0 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Parse builds a grid from a String-style picture: lines of '#'
// (occupied) and '.' (free), first line = top row. All lines must have
// equal length. Intended for tests.
func Parse(s string) (*Grid, error) {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) == 0 {
		return nil, fmt.Errorf("grid: empty picture")
	}
	h := len(lines)
	w := len(strings.TrimSpace(lines[0]))
	g := New(w, h)
	for i, ln := range lines {
		ln = strings.TrimSpace(ln)
		if len(ln) != w {
			return nil, fmt.Errorf("grid: line %d has width %d, want %d", i, len(ln), w)
		}
		y := h - 1 - i
		for x := 0; x < w; x++ {
			switch ln[x] {
			case '#':
				g.Set(geom.Point{X: x, Y: y}, true)
			case '.':
			default:
				return nil, fmt.Errorf("grid: bad cell %q at line %d col %d", ln[x], i, x)
			}
		}
	}
	return g, nil
}
