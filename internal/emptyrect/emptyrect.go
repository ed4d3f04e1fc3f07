// Package emptyrect enumerates maximal empty rectangles (MERs) in an
// occupancy grid. A maximal empty rectangle is a rectangle of free
// cells that is not contained in any larger rectangle of free cells.
//
// The paper's fast fault-tolerance-index algorithm (Section 5.3) mines
// MERs with the staircase technique of Edmonds et al.; relocating a
// faulty module succeeds exactly when some MER can accommodate the
// module's footprint. The reconfiguration planner picks its target
// site from these MERs; the FTI kernel answers the same yes/no
// question by intersecting free sites instead (see package fti).
//
// This package implements an equivalent linear-sweep enumeration:
// rows are scanned bottom-to-top while a per-column free-run histogram
// is maintained, and a monotone stack — the staircase of partially
// overlapping empty rectangles sharing a corner cell — yields every
// width-maximal, height-tight rectangle. Rectangles that could still
// grow upward are deferred to a later row, so each MER is reported
// exactly once. Total cost is O(W·H + #MER).
package emptyrect

import (
	"sort"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
)

// Maximal returns all maximal empty rectangles of g. The result is
// sorted by (Y, X, W, H) so output is deterministic. The slice is nil
// when the grid is fully occupied. The rows of the grid are consumed
// through the bit-packed word API, never per-cell reads.
func Maximal(g *grid.Grid) []geom.Rect {
	w, h, wpr := g.W(), g.H(), g.WordsPerRow()
	words := g.Words()
	var out []geom.Rect
	up := make([]int, w)          // free-run length ending at the current row
	occPrefix := make([]int, w+1) // prefix of occupied cells in the row above
	stack := make([]minerBar, 0, w+1)

	for y := 0; y < h; y++ {
		row := words[y*wpr : (y+1)*wpr]
		for wi, word := range row {
			base := wi * wordBits
			n := min(w-base, wordBits)
			if word == 0 {
				for c := 0; c < n; c++ {
					up[base+c]++
				}
				continue
			}
			for c := 0; c < n; c++ {
				if word&(1<<uint(c)) != 0 {
					up[base+c] = 0
				} else {
					up[base+c]++
				}
			}
		}
		// Occupancy prefix sums for the row above: a candidate with top
		// edge at row y is maximal only if it cannot grow into row y+1.
		topRow := y == h-1
		if !topRow {
			above := words[(y+1)*wpr : (y+2)*wpr]
			s := 0
			for wi, word := range above {
				base := wi * wordBits
				n := min(w-base, wordBits)
				for c := 0; c < n; c++ {
					s += int(word>>uint(c)) & 1
					occPrefix[base+c+1] = s
				}
			}
		}

		stack = stack[:0]
		for x := 0; x <= w; x++ {
			cur := -1 // sentinel flushes the stack at the right edge
			if x < w {
				cur = up[x]
			}
			start := x
			for len(stack) > 0 && stack[len(stack)-1].h > cur {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				// Maximal only if blocked above (inclusive span b.start..x-1).
				if b.h > 0 && (topRow || occPrefix[x]-occPrefix[b.start] > 0) {
					out = append(out, geom.Rect{X: b.start, Y: y - b.h + 1, W: x - b.start, H: b.h})
				}
				start = b.start
			}
			if len(stack) == 0 || stack[len(stack)-1].h < cur {
				stack = append(stack, minerBar{start, cur})
			}
		}
	}
	sortRects(out)
	return out
}

type minerBar struct{ start, h int }

// wordBits mirrors the grid package's word size; RowWords documents
// the bit layout (bit x%64 of word x/64 is cell x).
const wordBits = 64

// MaximalBrute is an exhaustive oracle used by the test suite and by
// the fault-tolerance-index cross-checks: it examines every rectangle
// in the grid, keeps the free ones, and filters to those that cannot be
// extended by one cell in any direction. O(W³·H³); use only on small
// grids.
func MaximalBrute(g *grid.Grid) []geom.Rect {
	var out []geom.Rect
	for y := 0; y < g.H(); y++ {
		for x := 0; x < g.W(); x++ {
			for hh := 1; y+hh <= g.H(); hh++ {
				for ww := 1; x+ww <= g.W(); ww++ {
					r := geom.Rect{X: x, Y: y, W: ww, H: hh}
					if !g.RectFree(r) {
						break // wider is not free either
					}
					if isMaximal(g, r) {
						out = append(out, r)
					}
				}
			}
		}
	}
	sortRects(out)
	return out
}

func isMaximal(g *grid.Grid, r geom.Rect) bool {
	grow := []geom.Rect{
		{X: r.X - 1, Y: r.Y, W: r.W + 1, H: r.H}, // left
		{X: r.X, Y: r.Y, W: r.W + 1, H: r.H},     // right
		{X: r.X, Y: r.Y - 1, W: r.W, H: r.H + 1}, // down
		{X: r.X, Y: r.Y, W: r.W, H: r.H + 1},     // up
	}
	for _, e := range grow {
		if g.RectFree(e) {
			return false
		}
	}
	return true
}

// fitsAvoiding reports whether footprint s (fixed orientation) has at
// least one placement inside r that does not cover avoid.
func fitsAvoiding(r geom.Rect, s geom.Size, avoid geom.Point) bool {
	if !s.Fits(r.Size()) {
		return false
	}
	if !r.Contains(avoid) {
		return true // every placement avoids it
	}
	// Origins form the grid [r.X, r.X+r.W-s.W] × [r.Y, r.Y+r.H-s.H].
	// Origins whose rectangle covers avoid satisfy
	// origin.X ∈ [avoid.X-s.W+1, avoid.X] and likewise for Y.
	totalX := r.W - s.W + 1
	totalY := r.H - s.H + 1
	covX := overlapLen(r.X, r.X+r.W-s.W, avoid.X-s.W+1, avoid.X)
	covY := overlapLen(r.Y, r.Y+r.H-s.H, avoid.Y-s.H+1, avoid.Y)
	return covX*covY < totalX*totalY
}

// overlapLen returns the size of the intersection of the inclusive
// integer ranges [a0,a1] and [b0,b1].
func overlapLen(a0, a1, b0, b1 int) int {
	lo := max(a0, b0)
	hi := min(a1, b1)
	if hi < lo {
		return 0
	}
	return hi - lo + 1
}

// BestFitAvoiding returns the placement rectangle for footprint s
// (considering both orientations) inside the rectangle set that
// minimises leftover area of the hosting MER, preferring the first in
// sorted order on ties, under the constraint that the placement must
// not cover the cell avoid. ok is false when no rectangle can host s
// that way. The placement is anchored at the host origin when that
// avoids the cell, otherwise shifted the minimum distance needed.
func BestFitAvoiding(rects []geom.Rect, s geom.Size, avoid geom.Point) (placed geom.Rect, ok bool) {
	bestWaste := int(^uint(0) >> 1)
	for _, r := range rects {
		for _, o := range orientations(s) {
			if !fitsAvoiding(r, o, avoid) {
				continue
			}
			waste := r.Cells() - o.Cells()
			if waste >= bestWaste {
				continue
			}
			if p, found := placeAvoiding(r, o, avoid); found {
				bestWaste = waste
				placed = p
				ok = true
			}
		}
	}
	return placed, ok
}

// placeAvoiding scans candidate origins in (y, x) order and returns
// the first placement of o inside r that does not cover avoid.
func placeAvoiding(r geom.Rect, o geom.Size, avoid geom.Point) (geom.Rect, bool) {
	for y := r.Y; y+o.H <= r.MaxY(); y++ {
		for x := r.X; x+o.W <= r.MaxX(); x++ {
			c := geom.Rect{X: x, Y: y, W: o.W, H: o.H}
			if !c.Contains(avoid) {
				return c, true
			}
		}
	}
	return geom.Rect{}, false
}

func orientations(s geom.Size) []geom.Size {
	if s.IsSquare() {
		return []geom.Size{s}
	}
	return []geom.Size{s, s.Transpose()}
}

func sortRects(rs []geom.Rect) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.X != b.X {
			return a.X < b.X
		}
		if a.W != b.W {
			return a.W < b.W
		}
		return a.H < b.H
	})
}
