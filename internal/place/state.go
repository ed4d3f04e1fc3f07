package place

import (
	"fmt"

	"dmfb/internal/geom"
)

// ConflictAdjacency returns, for each module, the indices of the
// modules whose time spans overlap its own — the neighbours it must
// never share cells with — in ascending order. It is ConflictPairs in
// adjacency-list form, the shape the incremental cost kernel consumes,
// built in two passes (degrees, then entries) over one backing array.
func ConflictAdjacency(mods []Module) [][]int {
	deg := make([]int, len(mods))
	total := 0
	for i := range mods {
		for j := i + 1; j < len(mods); j++ {
			if mods[i].Span.Overlaps(mods[j].Span) {
				deg[i]++
				deg[j]++
				total += 2
			}
		}
	}
	adj := make([][]int, len(mods))
	backing := make([]int, total)
	off := 0
	for i, d := range deg {
		adj[i] = backing[off : off : off+d]
		off += d
	}
	for i := range mods {
		for j := i + 1; j < len(mods); j++ {
			if mods[i].Span.Overlaps(mods[j].Span) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// State wraps a Placement with incrementally maintained cost
// quantities, so a simulated-annealing move can be priced in O(degree)
// instead of rescanning every module and conflict pair:
//
//   - each module's rectangle (Placement.Rect) is cached, so a move
//     reads its neighbours' rectangles instead of rebuilding them;
//   - the forbidden-overlap cell count (Placement.OverlapCells) is
//     kept as a running sum, adjusted per move by one pass over the
//     moved module's conflict adjacency list;
//   - the bounding box (Placement.BoundingBox) is maintained from
//     per-coordinate occupancy counts of module edges, so boundary
//     shrinks are found by a short scan instead of a full pass;
//   - between Begin and Rollback, a journal records each moved
//     module's previous rectangle and orientation and the overlap and
//     bounding box at Begin, so a rejected move is undone by restoring
//     them, without pricing anything again.
//
// All bookkeeping is integer-exact: after any sequence of MoveModule
// and Rollback calls, Overlap and BoundingBox equal the from-scratch
// values bit for bit (the differential tests assert this over long
// random move sequences). Mutate the placement only through
// MoveModule and Rollback; positions must stay non-negative.
type State struct {
	P     *Placement
	adj   [][]int     // conflict adjacency lists, index-aligned with modules
	rects []geom.Rect // P.Rect(i) per module, kept in step by MoveModule

	overlap int

	// Edge occupancy counts: loX[v] counts modules whose rectangle
	// starts at x = v, hiX[v] counts modules whose exclusive right
	// edge is at x = v; likewise for y. The bounding box is the span
	// between the extreme non-zero counts.
	loX, hiX, loY, hiY []int
	bbox               geom.Rect

	// Undo journal, open from Begin to Commit or Rollback.
	open      bool
	journal   []undoEntry
	atOverlap int       // overlap at Begin
	atBBox    geom.Rect // bounding box at Begin
}

// undoEntry is one journaled relocation: the module and the rectangle
// and orientation it had before the move (its position is the
// rectangle's origin).
type undoEntry struct {
	i   int
	r   geom.Rect
	rot bool
}

// NewState builds the incremental view of p, deriving every cached
// quantity from scratch. It panics if any module sits at a negative
// coordinate (the annealing placers clamp positions to the core area,
// so a negative position is a caller bug).
func NewState(p *Placement) *State {
	s := &State{P: p, adj: ConflictAdjacency(p.Modules), rects: make([]geom.Rect, len(p.Modules))}
	maxX, maxY := 1, 1
	for i := range p.Modules {
		r := p.Rect(i)
		s.rects[i] = r
		if r.X < 0 || r.Y < 0 {
			panic(fmt.Sprintf("place: module %s at negative position %v",
				p.Modules[i].Name, r.Origin()))
		}
		maxX = max(maxX, r.MaxX())
		maxY = max(maxY, r.MaxY())
	}
	s.loX = make([]int, maxX+1)
	s.hiX = make([]int, maxX+1)
	s.loY = make([]int, maxY+1)
	s.hiY = make([]int, maxY+1)
	for _, r := range s.rects {
		s.loX[r.X]++
		s.hiX[r.MaxX()]++
		s.loY[r.Y]++
		s.hiY[r.MaxY()]++
	}
	s.overlap = p.OverlapCells()
	s.bbox = p.BoundingBox()
	return s
}

// Overlap returns the cached forbidden-overlap cell count; it equals
// P.OverlapCells().
func (s *State) Overlap() int { return s.overlap }

// BoundingBox returns the cached bounding box; it equals
// P.BoundingBox().
func (s *State) BoundingBox() geom.Rect { return s.bbox }

// ArrayCells returns the cached bounding-array cell count; it equals
// P.ArrayCells().
func (s *State) ArrayCells() int { return s.bbox.Cells() }

// Adjacent returns module i's conflict adjacency list (do not mutate).
func (s *State) Adjacent(i int) []int { return s.adj[i] }

// Rect returns module i's cached rectangle; it equals P.Rect(i).
func (s *State) Rect(i int) geom.Rect { return s.rects[i] }

// Begin opens the undo journal: the MoveModule calls up to the next
// Commit or Rollback can be undone together by Rollback.
func (s *State) Begin() {
	s.open = true
	s.journal = s.journal[:0]
	s.atOverlap, s.atBBox = s.overlap, s.bbox
}

// Commit closes the undo journal, keeping the moves made since Begin.
func (s *State) Commit() { s.open = false }

// Rollback undoes every move made since Begin, newest first, and
// closes the journal. It restores the journaled rectangles,
// orientations, overlap count and bounding box and moves each module's
// edge counts back; it prices no overlap and scans no boundary. It
// panics if no journal is open.
func (s *State) Rollback() {
	if !s.open {
		panic("place: Rollback without Begin")
	}
	for k := len(s.journal) - 1; k >= 0; k-- {
		e := s.journal[k]
		s.dropEdges(s.rects[e.i])
		s.addEdges(e.r)
		s.rects[e.i] = e.r
		s.P.Pos[e.i] = e.r.Origin()
		s.P.Rot[e.i] = e.rot
	}
	s.overlap, s.bbox = s.atOverlap, s.atBBox
	s.open = false
}

// MoveModule relocates module i to pos with orientation rot, updating
// the cached rectangle, overlap count and bounding box in O(degree +
// boundary scan), and journals the previous rectangle and orientation
// when a journal is open. The overlap change is priced in one pass
// over the conflict adjacency, from cached rectangles and without
// branches.
func (s *State) MoveModule(i int, pos geom.Point, rot bool) {
	now := geom.RectAt(pos, s.P.Modules[i].Oriented(rot))
	if now.X < 0 || now.Y < 0 {
		panic(fmt.Sprintf("place: module %s moved to negative position %v",
			s.P.Modules[i].Name, pos))
	}
	old := s.rects[i]
	if s.open {
		s.journal = append(s.journal, undoEntry{i: i, r: old, rot: s.P.Rot[i]})
	}
	d := 0
	for _, j := range s.adj[i] {
		r := s.rects[j]
		d += overlapCells(now, r) - overlapCells(old, r)
	}
	s.overlap += d

	s.rects[i] = now
	s.P.Pos[i] = pos
	s.P.Rot[i] = rot
	s.dropEdges(old)
	s.addEdges(now)
	s.refitBBox(old, now)
}

// overlapCells returns the cell count of a ∩ b, as
// a.Intersect(b).Cells() does, without building the intersection:
// each axis contributes max(min(ends) − max(starts), 0).
func overlapCells(a, b geom.Rect) int {
	w := max(min(a.X+a.W, b.X+b.W)-max(a.X, b.X), 0)
	h := max(min(a.Y+a.H, b.Y+b.H)-max(a.Y, b.Y), 0)
	return w * h
}

// dropEdges removes a rectangle's edge contributions.
func (s *State) dropEdges(r geom.Rect) {
	s.loX[r.X]--
	s.hiX[r.MaxX()]--
	s.loY[r.Y]--
	s.hiY[r.MaxY()]--
}

// addEdges records a rectangle's edge contributions, growing the
// coordinate count arrays when the rectangle extends past them.
func (s *State) addEdges(r geom.Rect) {
	if n := r.MaxX() + 1; n > len(s.loX) {
		s.loX = append(s.loX, make([]int, n-len(s.loX))...)
		s.hiX = append(s.hiX, make([]int, n-len(s.hiX))...)
	}
	if n := r.MaxY() + 1; n > len(s.loY) {
		s.loY = append(s.loY, make([]int, n-len(s.loY))...)
		s.hiY = append(s.hiY, make([]int, n-len(s.hiY))...)
	}
	s.loX[r.X]++
	s.hiX[r.MaxX()]++
	s.loY[r.Y]++
	s.hiY[r.MaxY()]++
}

// refitBBox re-derives the bounding box after one rectangle changed
// from old to now. Extremes that moved outward are adopted directly;
// extremes that may have retreated are rediscovered by scanning the
// edge counts inward from the previous boundary. Every scanned
// coordinate is backed by at least one module edge, so the scans
// terminate inside the array.
func (s *State) refitBBox(old, now geom.Rect) {
	b := s.bbox
	// Outward growth.
	if now.X < b.X {
		b = geom.Rect{X: now.X, Y: b.Y, W: b.MaxX() - now.X, H: b.H}
	}
	if now.Y < b.Y {
		b = geom.Rect{X: b.X, Y: now.Y, W: b.W, H: b.MaxY() - now.Y}
	}
	if now.MaxX() > b.MaxX() {
		b.W = now.MaxX() - b.X
	}
	if now.MaxY() > b.MaxY() {
		b.H = now.MaxY() - b.Y
	}
	// Inward shrink: only possible when the old rectangle defined the
	// boundary and no other module still holds it.
	if old.X == b.X && s.loX[b.X] == 0 {
		v := b.X
		for s.loX[v] == 0 {
			v++
		}
		b = geom.Rect{X: v, Y: b.Y, W: b.MaxX() - v, H: b.H}
	}
	if old.Y == b.Y && s.loY[b.Y] == 0 {
		v := b.Y
		for s.loY[v] == 0 {
			v++
		}
		b = geom.Rect{X: b.X, Y: v, W: b.W, H: b.MaxY() - v}
	}
	if old.MaxX() == b.MaxX() && s.hiX[b.MaxX()] == 0 {
		v := b.MaxX()
		for s.hiX[v] == 0 {
			v--
		}
		b.W = v - b.X
	}
	if old.MaxY() == b.MaxY() && s.hiY[b.MaxY()] == 0 {
		v := b.MaxY()
		for s.hiY[v] == 0 {
			v--
		}
		b.H = v - b.Y
	}
	s.bbox = b
}
