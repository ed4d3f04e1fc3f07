package grid

import (
	"fmt"
	"strings"

	"dmfb/internal/geom"
)

// BoolGrid is the historical []bool occupancy matrix, retained as the
// differential-testing oracle for the bit-packed Grid: it implements
// the same operations cell by cell, with no word-level cleverness to
// share a bug with. Property tests drive both implementations through
// identical op sequences and assert identical observations.
type BoolGrid struct {
	w, h  int
	cells []bool // row-major: index = y*w + x
}

// NewBool returns an empty (all-free) bool grid of the given
// dimensions, panicking on non-positive dimensions like New.
func NewBool(w, h int) *BoolGrid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	return &BoolGrid{w: w, h: h, cells: make([]bool, w*h)}
}

// W returns the grid width in cells.
func (g *BoolGrid) W() int { return g.w }

// H returns the grid height in cells.
func (g *BoolGrid) H() int { return g.h }

// Bounds returns the grid extent as a Rect anchored at the origin.
func (g *BoolGrid) Bounds() geom.Rect { return geom.Rect{X: 0, Y: 0, W: g.w, H: g.h} }

// Cells returns the total number of cells.
func (g *BoolGrid) Cells() int { return g.w * g.h }

// In reports whether p lies inside the grid.
func (g *BoolGrid) In(p geom.Point) bool {
	return p.X >= 0 && p.X < g.w && p.Y >= 0 && p.Y < g.h
}

// Occupied reports whether cell p is occupied; out-of-bounds cells
// read as occupied.
func (g *BoolGrid) Occupied(p geom.Point) bool {
	if !g.In(p) {
		return true
	}
	return g.cells[p.Y*g.w+p.X]
}

// Set marks cell p occupied or free; out-of-bounds writes are ignored.
func (g *BoolGrid) Set(p geom.Point, occupied bool) {
	if !g.In(p) {
		return
	}
	g.cells[p.Y*g.w+p.X] = occupied
}

// SetRect marks every cell of r (clipped to the grid) occupied or free.
func (g *BoolGrid) SetRect(r geom.Rect, occupied bool) {
	c := r.Intersect(g.Bounds())
	for y := c.Y; y < c.MaxY(); y++ {
		for x := c.X; x < c.MaxX(); x++ {
			g.cells[y*g.w+x] = occupied
		}
	}
}

// RectFree reports whether r lies entirely inside the grid and every
// cell of r is free.
func (g *BoolGrid) RectFree(r geom.Rect) bool {
	if r.Empty() {
		return true
	}
	if !g.Bounds().ContainsRect(r) {
		return false
	}
	for y := r.Y; y < r.MaxY(); y++ {
		for x := r.X; x < r.MaxX(); x++ {
			if g.cells[y*g.w+x] {
				return false
			}
		}
	}
	return true
}

// CountOccupied returns the number of occupied cells.
func (g *BoolGrid) CountOccupied() int {
	n := 0
	for _, c := range g.cells {
		if c {
			n++
		}
	}
	return n
}

// Resize reshapes the grid to w×h and marks every cell free.
func (g *BoolGrid) Resize(w, h int) {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	g.w, g.h = w, h
	g.cells = make([]bool, w*h)
}

// Clear marks every cell free.
func (g *BoolGrid) Clear() {
	for i := range g.cells {
		g.cells[i] = false
	}
}

// Row returns row y as a []bool, one entry per cell.
func (g *BoolGrid) Row(y int) []bool {
	return g.cells[y*g.w : (y+1)*g.w]
}

// String renders the grid exactly like Grid.String.
func (g *BoolGrid) String() string {
	var b strings.Builder
	for y := g.h - 1; y >= 0; y-- {
		for x := 0; x < g.w; x++ {
			if g.cells[y*g.w+x] {
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
