// Package router plans droplet transport paths on the microfluidic
// array. Cells in the microfluidic array double as transport paths —
// the programmability the paper contrasts with DRFPGAs ("the cells ...
// can be used for storage, functional operations, as well as for
// transporting fluid droplets").
//
// Routing is breadth-first search over healthy, unreserved cells:
// shortest paths under unit step cost, which is exact for single
// droplet transport (one cell per control step). Obstacles are faulty
// cells, the segregation regions of concurrently active modules
// (except the droplet's own source/target module) and the separation
// halo of other droplets.
package router

import (
	"fmt"

	"dmfb/internal/fluidics"
	"dmfb/internal/geom"
)

// Request describes one routing query.
type Request struct {
	From, To geom.Point
	// KeepOut lists rectangles the path must not enter (active
	// modules' segregation regions). A rectangle containing From or To
	// is implicitly permitted at those cells only... not at all:
	// callers should exclude the droplet's own module from KeepOut.
	KeepOut []geom.Rect
	// AvoidDroplets lists positions of other droplets; the path keeps
	// Chebyshev distance ≥ 2 from each (static fluidic constraint).
	AvoidDroplets []geom.Point
	// ExtraBlocked lists additional blocked cells.
	ExtraBlocked []geom.Point
}

// Route returns a shortest admissible path from From to To inclusive,
// or an error when no path exists. The path's first element is From
// and its last is To; consecutive elements are orthogonally adjacent.
func Route(chip *fluidics.Chip, req Request) ([]geom.Point, error) {
	var t Tree
	t.Reset(chip, req)
	return t.PathTo(req.To)
}

// Steps returns the number of control steps a path takes (cells moved).
func Steps(path []geom.Point) int {
	if len(path) == 0 {
		return 0
	}
	return len(path) - 1
}

// Reachable returns all cells reachable from origin under the same
// admissibility rules, including origin itself (if unblocked).
func Reachable(chip *fluidics.Chip, req Request) []geom.Point {
	var t Tree
	t.Reset(chip, req)
	return t.Reached()
}

// Tree is the breadth-first search tree of one routing request, grown
// lazily from req.From. Within one request the obstacle set is fixed,
// and a BFS from a fixed source gives every cell the same parent
// whether it stops early or runs on, so one tree answers every
// candidate target of a routing decision exactly as separate Route
// calls would. Its buffers are reused across Reset; a Tree is not safe
// for concurrent use.
type Tree struct {
	chip    *fluidics.Chip
	from    geom.Point
	w       int
	blocked []bool
	seen    []bool
	prev    []geom.Point // parent of each seen cell
	queue   []geom.Point // every seen cell in discovery order
	head    int          // queue[:head] have been expanded
}

// Reset starts a new tree for req on chip; req.To is ignored. Slices
// returned by Reached are overwritten.
func (t *Tree) Reset(chip *fluidics.Chip, req Request) {
	n := chip.W() * chip.H()
	t.chip, t.from, t.w = chip, req.From, chip.W()
	t.blocked = resetBools(t.blocked, n)
	t.seen = resetBools(t.seen, n)
	if cap(t.prev) < n {
		t.prev = make([]geom.Point, n)
		t.queue = make([]geom.Point, 0, n)
	}
	t.prev = t.prev[:n]
	t.queue, t.head = t.queue[:0], 0
	fillBlocked(t.blocked, chip, req)
	if chip.In(req.From) && !t.blocked[idx(req.From, t.w)] {
		t.seen[idx(req.From, t.w)] = true
		t.queue = append(t.queue, req.From)
	}
}

func resetBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// PathTo returns exactly what Route returns for the tree's request with
// To set to to.
func (t *Tree) PathTo(to geom.Point) ([]geom.Point, error) {
	from, w := t.from, t.w
	if !t.chip.In(from) || !t.chip.In(to) {
		return nil, fmt.Errorf("router: endpoints %v -> %v outside %dx%d array",
			from, to, w, t.chip.H())
	}
	if t.blocked[idx(from, w)] && from != to {
		return nil, fmt.Errorf("router: source %v is blocked", from)
	}
	if t.blocked[idx(to, w)] {
		return nil, fmt.Errorf("router: target %v is blocked", to)
	}
	if from == to {
		return []geom.Point{from}, nil
	}
	target := idx(to, w)
	t.grow(target)
	if !t.seen[target] {
		return nil, fmt.Errorf("router: no path %v -> %v", from, to)
	}
	n := 1
	for cur := to; cur != from; cur = t.prev[idx(cur, w)] {
		if n++; n > len(t.queue) {
			panic("router: search tree parent chain does not reach the source")
		}
	}
	path := make([]geom.Point, n)
	for cur, i := to, n-1; i >= 0; i-- {
		path[i] = cur
		cur = t.prev[idx(cur, w)]
	}
	return path, nil
}

// Reached returns every cell reachable from the source, the source
// first, in discovery order — exactly Reachable's list. The slice is
// the tree's own and is overwritten by the next Reset.
func (t *Tree) Reached() []geom.Point {
	t.grow(-1)
	if len(t.queue) == 0 {
		return nil
	}
	return t.queue
}

// grow expands the tree in BFS order until cell index target has been
// discovered (never, for a negative target) or the frontier is empty.
func (t *Tree) grow(target int) {
	w := t.w
	for t.head < len(t.queue) && (target < 0 || !t.seen[target]) {
		cur := t.queue[t.head]
		t.head++
		for _, nb := range cur.Neighbors4() {
			if !t.chip.In(nb) {
				continue
			}
			i := idx(nb, w)
			if t.seen[i] || t.blocked[i] {
				continue
			}
			t.seen[i] = true
			t.prev[i] = cur
			t.queue = append(t.queue, nb)
		}
	}
}

func idx(p geom.Point, w int) int { return p.Y*w + p.X }

// fillBlocked marks the obstacle cells of req in a cleared w×h buffer.
func fillBlocked(blocked []bool, chip *fluidics.Chip, req Request) {
	w, h := chip.W(), chip.H()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := geom.Point{X: x, Y: y}
			if chip.IsFaulty(p) {
				blocked[idx(p, w)] = true
			}
		}
	}
	for _, r := range req.KeepOut {
		c := r.Intersect(chip.Bounds())
		for yy := c.Y; yy < c.MaxY(); yy++ {
			for xx := c.X; xx < c.MaxX(); xx++ {
				blocked[yy*w+xx] = true
			}
		}
	}
	for _, d := range req.AvoidDroplets {
		// Separation halo: the droplet cell and its 8 neighbours.
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				p := geom.Point{X: d.X + dx, Y: d.Y + dy}
				if chip.In(p) {
					blocked[idx(p, w)] = true
				}
			}
		}
	}
	for _, p := range req.ExtraBlocked {
		if chip.In(p) {
			blocked[idx(p, w)] = true
		}
	}
}
