// Package emptyrect enumerates maximal empty rectangles (MERs) in an
// occupancy grid. A maximal empty rectangle is a rectangle of free
// cells that is not contained in any larger rectangle of free cells.
//
// The paper's fast fault-tolerance-index algorithm (Section 5.3) mines
// MERs with the staircase technique of Edmonds et al.; relocating a
// faulty module succeeds exactly when some MER can accommodate the
// module's footprint. Production code no longer mines them: the FTI
// intersects free sites, and the reconfiguration planner picks its
// site from the same band scan (fti.Site). Maximal's one remaining
// caller is the benchmark's MER replay (perfbench), which times this
// miner as a layer of its own.
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
