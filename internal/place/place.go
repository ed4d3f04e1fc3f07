// Package place defines the module-placement model of the paper's
// Section 4: the "modified 2-D placement" obtained by reducing the 3-D
// packing problem (rectangle × time-span boxes) to 2-D configurations
// on fixed cutting planes. Every module's start time is fixed by
// architectural-level synthesis; placement chooses its position and
// orientation. Two modules may overlap in space only when their time
// spans are disjoint — that is the dynamic reconfigurability the chip
// provides.
package place

import (
	"fmt"
	"sort"
	"strings"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
	"dmfb/internal/schedule"
)

// Module is one microfluidic module to place: a footprint operating
// over a fixed time span.
type Module struct {
	ID   int           // index within the problem
	Name string        // e.g. "M1"
	Size geom.Size     // canonical footprint (width × height as bound)
	Span geom.Interval // operation interval fixed by synthesis
}

// Oriented returns m's footprint, transposed when rot is set.
func (m Module) Oriented(rot bool) geom.Size {
	if rot {
		return m.Size.Transpose()
	}
	return m.Size
}

// FromSchedule extracts the placement problem from a synthesis result:
// one module per scheduled reconfigurable operation, in op-ID order.
func FromSchedule(s *schedule.Schedule) []Module {
	var out []Module
	for _, it := range s.BoundItems() {
		out = append(out, Module{
			ID:   len(out),
			Name: it.Op.Name,
			Size: it.Device.Size,
			Span: it.Span,
		})
	}
	return out
}

// SearchOptions configures multi-start annealing search: how many
// independent starts to run, how wide to fan them out, and the base
// seed the per-start seeds derive from. The struct is shared by every
// layer that exposes the search knobs — the core placers, the facade,
// the CLI flag group, and the compile endpoint — so the options mean
// the same thing everywhere.
//
// Determinism contract: for a fixed Starts and base seed, the winning
// placement is byte-identical at any Workers value. Start 0 runs the
// base seed unchanged (so Starts ≤ 1 reproduces a plain single-start
// run exactly), start i ≥ 1 runs a splitmix64-derived stream seed, and
// the best result is selected by lowest final cost with ties broken by
// lowest start index. Workers only bounds concurrency.
type SearchOptions struct {
	// Starts is the number of independent annealing starts; 0 and 1
	// both mean a single start.
	Starts int
	// Workers caps how many starts run concurrently; 0 means one per
	// available CPU. Workers never affects the result, only wall-clock
	// time, and is therefore excluded from placement-cache keys.
	Workers int
	// Seed, when non-zero, overrides the placer's base seed for the
	// multi-start derivation (useful to vary the start family without
	// touching the single-start seed).
	Seed int64
}

// Normalized returns the options with the "single start" encodings
// collapsed (Starts < 1 becomes 1) and the result-neutral Workers
// field cleared — the form placement caches fingerprint.
func (s SearchOptions) Normalized() SearchOptions {
	if s.Starts < 1 {
		s.Starts = 1
	}
	s.Workers = 0
	return s
}

// Placement assigns each module an origin and an orientation.
// Positions refer to a core area anchored at (0,0); the fabricated
// array is the bounding box of the placed modules.
type Placement struct {
	Modules []Module     // shared, immutable problem definition
	Pos     []geom.Point // origin (bottom-left cell) per module
	Rot     []bool       // true: footprint transposed (90° rotation)

	conflicts [][]int // cached ConflictAdjacency of Modules
}

// New returns a placement with all modules at the origin, unrotated.
func New(mods []Module) *Placement {
	return &Placement{
		Modules:   mods,
		Pos:       make([]geom.Point, len(mods)),
		Rot:       make([]bool, len(mods)),
		conflicts: ConflictAdjacency(mods),
	}
}

// Clone returns an independent copy sharing the module definitions.
func (p *Placement) Clone() *Placement {
	c := &Placement{
		Modules:   p.Modules,
		Pos:       append([]geom.Point(nil), p.Pos...),
		Rot:       append([]bool(nil), p.Rot...),
		conflicts: p.conflicts,
	}
	return c
}

// Conflicts returns the span-overlap adjacency lists of the modules
// (ConflictAdjacency of Modules), built once by New and shared by
// every clone. The lists are read-only.
func (p *Placement) Conflicts() [][]int { return p.conflicts }

// Size returns module i's footprint in its current orientation.
func (p *Placement) Size(i int) geom.Size { return p.Modules[i].Oriented(p.Rot[i]) }

// Rect returns module i's occupied rectangle.
func (p *Placement) Rect(i int) geom.Rect {
	return geom.RectAt(p.Pos[i], p.Size(i))
}

// BoundingBox returns the smallest rectangle containing every module —
// the microfluidic array that must be fabricated (or reserved) for
// this placement.
func (p *Placement) BoundingBox() geom.Rect {
	var bb geom.Rect
	for i := range p.Modules {
		bb = bb.Union(p.Rect(i))
	}
	return bb
}

// ArrayCells returns the cell count of the bounding array, the area
// metric of the paper (reported in mm² via modlib.AreaMM2).
func (p *Placement) ArrayCells() int { return p.BoundingBox().Cells() }

// CoveredCells returns the number of array cells covered by at least
// one module at some time during the assay.
func (p *Placement) CoveredCells() int {
	bb := p.BoundingBox()
	if bb.Empty() {
		return 0
	}
	g := grid.New(bb.W, bb.H)
	for i := range p.Modules {
		g.SetRect(p.Rect(i).Translate(-bb.X, -bb.Y), true)
	}
	return g.CountOccupied()
}

// Utilization returns CoveredCells/ArrayCells: the fraction of the
// fabricated array ever claimed by a module. The remainder is spare
// area, useful only as relocation headroom for reconfiguration — a
// key quantity for the telemetry layer's placement-quality gauges.
func (p *Placement) Utilization() float64 {
	cells := p.ArrayCells()
	if cells == 0 {
		return 0
	}
	return float64(p.CoveredCells()) / float64(cells)
}

// OverlapCells returns the total number of doubly-claimed cells over
// all time-conflicting module pairs: the forbidden-overlap penalty
// term of the annealer's cost function. Zero means feasible.
func (p *Placement) OverlapCells() int {
	total := 0
	for i, adj := range p.conflicts {
		for _, j := range adj {
			if j > i {
				total += p.Rect(i).Intersect(p.Rect(j)).Cells()
			}
		}
	}
	return total
}

// Valid reports whether the placement has no forbidden overlap.
func (p *Placement) Valid() bool { return p.OverlapCells() == 0 }

// FitsIn reports whether every module lies inside the core area
// [0,w)×[0,h).
func (p *Placement) FitsIn(w, h int) bool {
	core := geom.Rect{X: 0, Y: 0, W: w, H: h}
	for i := range p.Modules {
		if !core.ContainsRect(p.Rect(i)) {
			return false
		}
	}
	return true
}

// ActiveDuring returns the indices of modules whose spans overlap iv,
// excluding the listed indices.
func (p *Placement) ActiveDuring(iv geom.Interval, exclude ...int) []int {
	return p.AppendActiveDuring(nil, iv, exclude...)
}

// AppendActiveDuring appends to dst the indices of modules whose spans
// overlap iv, excluding the listed indices, and returns the extended
// slice. The exclude list is scanned directly (it is one or two
// entries everywhere in the flow), so a caller that reuses dst runs
// allocation-free — this sits in the inner loop of the FTI and
// reconfiguration engines.
func (p *Placement) AppendActiveDuring(dst []int, iv geom.Interval, exclude ...int) []int {
	for i := range p.Modules {
		if containsIdx(exclude, i) || !p.Modules[i].Span.Overlaps(iv) {
			continue
		}
		dst = append(dst, i)
	}
	return dst
}

func containsIdx(s []int, v int) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

// OccupancyDuring builds the occupancy grid of the given array for the
// interval iv: cells of every module active during iv are occupied,
// except the excluded modules. Module rectangles are clipped to the
// array; coordinates are translated so the array's origin maps to
// grid cell (0,0).
func (p *Placement) OccupancyDuring(array geom.Rect, iv geom.Interval, exclude ...int) *grid.Grid {
	g := grid.New(array.W, array.H)
	for i := range p.Modules {
		if containsIdx(exclude, i) || !p.Modules[i].Span.Overlaps(iv) {
			continue
		}
		g.SetRect(p.Rect(i).Translate(-array.X, -array.Y), true)
	}
	return g
}

// ModulesAt returns the indices of modules whose rectangle contains
// cell pt (in core coordinates), in index order.
func (p *Placement) ModulesAt(pt geom.Point) []int {
	var out []int
	for i := range p.Modules {
		if p.Rect(i).Contains(pt) {
			out = append(out, i)
		}
	}
	return out
}

// Normalize translates all modules so the bounding box is anchored at
// the origin. Relative geometry is unchanged.
func (p *Placement) Normalize() {
	bb := p.BoundingBox()
	if bb.Empty() || (bb.X == 0 && bb.Y == 0) {
		return
	}
	for i := range p.Pos {
		p.Pos[i] = p.Pos[i].Add(geom.Point{X: -bb.X, Y: -bb.Y})
	}
}

// Validate performs a full consistency check, returning a descriptive
// error for the first violation found: negative coordinates after
// normalisation are allowed, but forbidden overlaps are not.
func (p *Placement) Validate() error {
	if len(p.Pos) != len(p.Modules) || len(p.Rot) != len(p.Modules) {
		return fmt.Errorf("place: %d modules but %d positions / %d rotations",
			len(p.Modules), len(p.Pos), len(p.Rot))
	}
	for i, adj := range p.conflicts {
		for _, j := range adj {
			if j < i {
				continue
			}
			if ov := p.Rect(i).Intersect(p.Rect(j)); !ov.Empty() {
				return fmt.Errorf("place: modules %s%v and %s%v overlap at %v during %v",
					p.Modules[i].Name, p.Rect(i), p.Modules[j].Name, p.Rect(j),
					ov, p.Modules[i].Span.Intersect(p.Modules[j].Span))
			}
		}
	}
	return nil
}

// String renders each module's assignment, sorted by start time.
func (p *Placement) String() string {
	idx := make([]int, len(p.Modules))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ma, mb := p.Modules[idx[a]], p.Modules[idx[b]]
		if ma.Span.Start != mb.Span.Start {
			return ma.Span.Start < mb.Span.Start
		}
		return idx[a] < idx[b]
	})
	bb := p.BoundingBox()
	var b strings.Builder
	fmt.Fprintf(&b, "placement: array %dx%d = %d cells\n", bb.W, bb.H, bb.Cells())
	for _, i := range idx {
		fmt.Fprintf(&b, "  %-4s %v %s\n", p.Modules[i].Name, p.Rect(i), p.Modules[i].Span)
	}
	return b.String()
}
