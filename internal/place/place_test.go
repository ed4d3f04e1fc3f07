package place

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dmfb/internal/geom"
	"dmfb/internal/pcr"
)

func twoModules() []Module {
	return []Module{
		{ID: 0, Name: "A", Size: geom.Size{W: 2, H: 3}, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 1, Name: "B", Size: geom.Size{W: 3, H: 2}, Span: geom.Interval{Start: 3, End: 8}},
	}
}

// TestConflictPairs pins the conflict lists New caches: spans that
// only touch do not conflict, each pair appears in both modules'
// lists, and every clone shares the lists.
func TestConflictPairs(t *testing.T) {
	mods := []Module{
		{ID: 0, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 1, Span: geom.Interval{Start: 5, End: 10}}, // back-to-back: no conflict
		{ID: 2, Span: geom.Interval{Start: 4, End: 6}},  // conflicts both
	}
	p := New(mods)
	got := p.Conflicts()
	want := [][]int{{2}, {2}, {0, 1}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Conflicts = %v, want %v", got, want)
	}
	if c := p.Clone().Conflicts(); &c[0][0] != &got[0][0] {
		t.Fatal("Clone rebuilt the conflict lists instead of sharing them")
	}
}

func TestRectAndRotation(t *testing.T) {
	p := New(twoModules())
	p.Pos[0] = geom.Point{X: 1, Y: 2}
	if got := p.Rect(0); got != (geom.Rect{X: 1, Y: 2, W: 2, H: 3}) {
		t.Errorf("Rect = %v", got)
	}
	p.Rot[0] = true
	if got := p.Rect(0); got != (geom.Rect{X: 1, Y: 2, W: 3, H: 2}) {
		t.Errorf("rotated Rect = %v", got)
	}
	if p.Size(0) != (geom.Size{W: 3, H: 2}) {
		t.Errorf("Size after rotation = %v", p.Size(0))
	}
}

func TestOverlapAndValidity(t *testing.T) {
	p := New(twoModules())
	// Both at origin: spans [0,5) and [3,8) conflict; footprints 2x3
	// and 3x2 overlap in a 2x2 region.
	if got := p.OverlapCells(); got != 4 {
		t.Errorf("OverlapCells = %d, want 4", got)
	}
	if p.Valid() {
		t.Error("overlapping placement reported valid")
	}
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("Validate = %v", err)
	}
	// Separate them.
	p.Pos[1] = geom.Point{X: 2, Y: 0}
	if !p.Valid() {
		t.Errorf("separated placement invalid: %v", p.Validate())
	}
	// Same cells, disjoint spans: valid (dynamic reconfiguration).
	mods := twoModules()
	mods[1].Span = geom.Interval{Start: 5, End: 8}
	q := New(mods)
	if !q.Valid() {
		t.Error("time-disjoint overlap should be allowed")
	}
}

func TestBoundingBoxAndArea(t *testing.T) {
	p := New(twoModules())
	p.Pos[0] = geom.Point{X: 0, Y: 0} // 2x3
	p.Pos[1] = geom.Point{X: 2, Y: 0} // 3x2
	bb := p.BoundingBox()
	if bb != (geom.Rect{X: 0, Y: 0, W: 5, H: 3}) {
		t.Errorf("BoundingBox = %v", bb)
	}
	if p.ArrayCells() != 15 {
		t.Errorf("ArrayCells = %d", p.ArrayCells())
	}
	if !p.FitsIn(5, 3) || p.FitsIn(4, 3) {
		t.Error("FitsIn wrong")
	}
}

func TestNormalize(t *testing.T) {
	p := New(twoModules())
	p.Pos[0] = geom.Point{X: 3, Y: 4}
	p.Pos[1] = geom.Point{X: 6, Y: 5}
	p.Normalize()
	bb := p.BoundingBox()
	if bb.X != 0 || bb.Y != 0 {
		t.Errorf("Normalize left bbox at %v", bb)
	}
	// Relative geometry preserved.
	if p.Pos[1].X-p.Pos[0].X != 3 || p.Pos[1].Y-p.Pos[0].Y != 1 {
		t.Error("Normalize broke relative positions")
	}
}

func TestActiveDuringAndOccupancy(t *testing.T) {
	p := New(twoModules())
	p.Pos[1] = geom.Point{X: 2, Y: 0}
	if got := p.ActiveDuring(geom.Interval{Start: 0, End: 1}); len(got) != 1 || got[0] != 0 {
		t.Errorf("ActiveDuring[0,1) = %v", got)
	}
	if got := p.ActiveDuring(geom.Interval{Start: 4, End: 5}); len(got) != 2 {
		t.Errorf("ActiveDuring[4,5) = %v", got)
	}
	if got := p.ActiveDuring(geom.Interval{Start: 4, End: 5}, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("ActiveDuring exclude = %v", got)
	}
	g := p.OccupancyDuring(geom.Rect{X: 0, Y: 0, W: 5, H: 3}, geom.Interval{Start: 4, End: 5})
	if g.CountOccupied() != 2*3+3*2 {
		t.Errorf("occupied = %d", g.CountOccupied())
	}
	// Excluding module 0 leaves only B's 6 cells.
	g = p.OccupancyDuring(geom.Rect{X: 0, Y: 0, W: 5, H: 3}, geom.Interval{Start: 4, End: 5}, 0)
	if g.CountOccupied() != 6 {
		t.Errorf("occupied with exclusion = %d", g.CountOccupied())
	}
	// Array offset translates coordinates.
	g = p.OccupancyDuring(geom.Rect{X: 2, Y: 0, W: 3, H: 2}, geom.Interval{Start: 4, End: 5}, 0)
	if g.CountOccupied() != 6 {
		t.Errorf("translated occupancy = %d", g.CountOccupied())
	}
	if !g.Occupied(geom.Point{X: 0, Y: 0}) {
		t.Error("translation wrong")
	}
}

func TestModulesAt(t *testing.T) {
	mods := twoModules()
	mods[1].Span = geom.Interval{Start: 5, End: 8} // allow stacking
	p := New(mods)
	got := p.ModulesAt(geom.Point{X: 0, Y: 0})
	if len(got) != 2 {
		t.Errorf("ModulesAt origin = %v", got)
	}
	if got := p.ModulesAt(geom.Point{X: 2, Y: 2}); len(got) != 0 {
		t.Errorf("ModulesAt(2,2) = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := New(twoModules())
	c := p.Clone()
	c.Pos[0] = geom.Point{X: 9, Y: 9}
	c.Rot[1] = true
	if p.Pos[0] == c.Pos[0] || p.Rot[1] {
		t.Error("Clone shares state")
	}
}

func TestFromSchedulePCR(t *testing.T) {
	s := pcr.MustSchedule()
	mods := FromSchedule(s)
	if len(mods) != 7 {
		t.Fatalf("modules = %d", len(mods))
	}
	totalCells := 0
	for i, m := range mods {
		if m.ID != i {
			t.Errorf("ID %d at index %d", m.ID, i)
		}
		if m.Span.Empty() || !m.Size.Valid() {
			t.Errorf("module %s malformed: %v %v", m.Name, m.Size, m.Span)
		}
		totalCells += m.Size.Cells()
	}
	if totalCells != 130 {
		t.Errorf("total module cells = %d, want 130 (Table 1)", totalCells)
	}
	// The PCR conflict structure: M7 (last) conflicts with nothing.
	edges := 0
	for i, adj := range ConflictAdjacency(mods) {
		if mods[i].Name == "M7" && len(adj) != 0 {
			t.Errorf("M7 should be conflict-free, got neighbours %v", adj)
		}
		edges += len(adj)
	}
	if edges == 0 {
		t.Error("PCR should have conflicting modules")
	}
}

// Property: OverlapCells is exactly the number of (cell, conflicting
// pair) incidences counted by brute force.
func TestOverlapCellsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(5)
		mods := make([]Module, n)
		for i := range mods {
			st := rng.Intn(10)
			mods[i] = Module{
				ID:   i,
				Size: geom.Size{W: 1 + rng.Intn(4), H: 1 + rng.Intn(4)},
				Span: geom.Interval{Start: st, End: st + 1 + rng.Intn(8)},
			}
		}
		p := New(mods)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(8), Y: rng.Intn(8)}
			p.Rot[i] = rng.Intn(2) == 0
		}
		want := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !mods[i].Span.Overlaps(mods[j].Span) {
					continue
				}
				for _, pt := range p.Rect(i).Points() {
					if p.Rect(j).Contains(pt) {
						want++
					}
				}
			}
		}
		if got := p.OverlapCells(); got != want {
			t.Fatalf("OverlapCells = %d, want %d", got, want)
		}
		if p.Valid() != (want == 0) || (p.Validate() == nil) != (want == 0) {
			t.Fatal("Valid/Validate inconsistent with overlap count")
		}
	}
}

// Property (testing/quick): rotating a module twice is the identity,
// and rotation preserves cell count.
func TestRotationInvolutionQuick(t *testing.T) {
	f := func(w, h uint8, x, y int8, rot bool) bool {
		mods := []Module{{ID: 0, Name: "A",
			Size: geom.Size{W: int(w%6) + 1, H: int(h%6) + 1},
			Span: geom.Interval{Start: 0, End: 5}}}
		p := New(mods)
		p.Pos[0] = geom.Point{X: int(x % 16), Y: int(y % 16)}
		p.Rot[0] = rot
		before := p.Rect(0)
		p.Rot[0] = !p.Rot[0]
		mid := p.Rect(0)
		p.Rot[0] = !p.Rot[0]
		after := p.Rect(0)
		return before == after && before.Cells() == mid.Cells()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property (testing/quick): Normalize is idempotent and preserves
// validity, area and overlap count.
func TestNormalizeIdempotentQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		mods := make([]Module, n)
		for i := range mods {
			st := rng.Intn(6)
			mods[i] = Module{ID: i,
				Size: geom.Size{W: 1 + rng.Intn(4), H: 1 + rng.Intn(4)},
				Span: geom.Interval{Start: st, End: st + 1 + rng.Intn(6)}}
		}
		p := New(mods)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(10) - 3, Y: rng.Intn(10) - 3}
		}
		area, overlap := p.ArrayCells(), p.OverlapCells()
		p.Normalize()
		first := p.String()
		p.Normalize()
		return p.String() == first && p.ArrayCells() == area && p.OverlapCells() == overlap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoveredCellsAndUtilization(t *testing.T) {
	// Two 2x2 modules side by side inside a 4x2 bounding box: full
	// coverage.
	mods := []Module{
		{ID: 0, Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 2}},
		{ID: 1, Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 2}},
	}
	p := New(mods)
	p.Pos[1] = geom.Point{X: 2, Y: 0}
	if got := p.CoveredCells(); got != 8 {
		t.Errorf("CoveredCells = %d, want 8", got)
	}
	if got := p.Utilization(); got != 1 {
		t.Errorf("Utilization = %v, want 1", got)
	}

	// Spread the second module out: bounding box 6x2 = 12 cells, 8
	// covered.
	p.Pos[1] = geom.Point{X: 4, Y: 0}
	if got := p.CoveredCells(); got != 8 {
		t.Errorf("CoveredCells = %d, want 8", got)
	}
	if got, want := p.Utilization(), 8.0/12.0; got != want {
		t.Errorf("Utilization = %v, want %v", got, want)
	}

	// Time-disjoint overlap counts each cell once.
	disjoint := []Module{
		{ID: 0, Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 1}},
		{ID: 1, Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 1, End: 2}},
	}
	q := New(disjoint)
	if got := q.CoveredCells(); got != 4 {
		t.Errorf("stacked CoveredCells = %d, want 4", got)
	}
	if got := q.Utilization(); got != 1 {
		t.Errorf("stacked Utilization = %v, want 1", got)
	}

	empty := New(nil)
	if empty.CoveredCells() != 0 || empty.Utilization() != 0 {
		t.Errorf("empty placement: covered %d, utilization %v",
			empty.CoveredCells(), empty.Utilization())
	}
}
