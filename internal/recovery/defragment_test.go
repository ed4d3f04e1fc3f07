package recovery

import (
	"math/rand"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
)

// L3 is the one "re-place around dead cells" path: full
// reconfiguration of the paper's Section 5.2. These tests drive it
// without a schedule, as the fault campaigns do.

func lightAnneal(seed int64) core.Options {
	return core.Options{Seed: seed, ItersPerModule: 150, WindowPatience: 5}
}

func TestDefragmentPCR(t *testing.T) {
	res, err := core.TwoStage(core.FromSchedule(pcr.MustSchedule()), lightAnneal(1), core.FTOptions{Beta: 40})
	if err != nil {
		t.Fatal(err)
	}
	old := res.Final
	bb := old.BoundingBox()
	// Kill a handful of cells and re-place everything around them.
	dead := []geom.Point{
		{X: bb.X, Y: bb.Y},
		{X: bb.X + bb.W/2, Y: bb.Y + bb.H/2},
		{X: bb.MaxX() - 1, Y: bb.MaxY() - 1},
	}
	st := State{Placement: old, Array: bb, Fault: dead[2], Faults: dead}
	plan, err := New(Options{Anneal: lightAnneal(2)}).tryDefragment(st)
	if err != nil {
		t.Fatal(err)
	}
	fresh := plan.Placement
	if err := fresh.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range fresh.Modules {
		for _, d := range dead {
			if fresh.Rect(i).Contains(d) {
				t.Errorf("module %s covers dead cell %v", fresh.Modules[i].Name, d)
			}
		}
	}
	// The chip is already fabricated: the new placement must stay
	// within the array.
	if !fresh.FitsIn(bb.MaxX(), bb.MaxY()) {
		t.Errorf("full reconfiguration escaped the fabricated %dx%d array", bb.MaxX(), bb.MaxY())
	}
}

// TestDefragmentSurvivesWherePartialFails: on the packed area-minimal
// placement most single faults defeat partial reconfiguration, but
// full re-placement absorbs many of them because the module set
// genuinely fits the array minus one cell. Without a schedule the
// ladder skips L2.
func TestDefragmentSurvivesWherePartialFails(t *testing.T) {
	p, _, err := core.AnnealArea(core.FromSchedule(pcr.MustSchedule()), lightAnneal(1))
	if err != nil {
		t.Fatal(err)
	}
	array := p.BoundingBox()
	cov := fti.ComputeOn(p, array)
	rng := rand.New(rand.NewSource(9))
	recovered, tried := 0, 0
	for i := 0; i < 30 && tried < 6; i++ {
		cell := geom.Point{X: array.X + rng.Intn(array.W), Y: array.Y + rng.Intn(array.H)}
		// Only faults where partial reconfiguration fails.
		if cov.CoveredAt(cell.X-array.X, cell.Y-array.Y) || len(p.ModulesAt(cell)) == 0 {
			continue
		}
		tried++
		st := State{Placement: p, Array: array, Fault: cell, Faults: []geom.Point{cell}}
		plan, rep := New(Options{MaxLevel: LevelDefragment, Anneal: lightAnneal(int64(i))}).Recover(st)
		if len(rep.Attempts) == 0 || rep.Attempts[0].Level != LevelRelocate || rep.Attempts[0].Err == "" {
			t.Fatalf("fault %v: attempts %+v, want a failed L1 first", cell, rep.Attempts)
		}
		for _, a := range rep.Attempts {
			if a.Level == LevelDowngrade {
				t.Fatalf("fault %v: L2 attempted without a schedule", cell)
			}
		}
		if plan == nil {
			continue
		}
		if plan.Level != LevelDefragment {
			t.Fatalf("fault %v: level %v, want defragment", cell, plan.Level)
		}
		for i := range plan.Placement.Modules {
			if plan.Placement.Rect(i).Contains(cell) {
				t.Fatalf("full reconfiguration still covers the fault %v", cell)
			}
		}
		recovered++
	}
	if tried == 0 {
		t.Skip("no partial-failure faults sampled")
	}
	if recovered == 0 {
		t.Errorf("full reconfiguration recovered 0/%d faults that defeated partial", tried)
	}
}

// TestDefragmentDeterministic: identical inputs replay to identical
// placements.
func TestDefragmentDeterministic(t *testing.T) {
	mods := []place.Module{
		{ID: 0, Name: "A", Size: geom.Size{W: 3, H: 3}, Span: geom.Interval{Start: 0, End: 6}},
		{ID: 1, Name: "B", Size: geom.Size{W: 2, H: 4}, Span: geom.Interval{Start: 3, End: 10}},
		{ID: 2, Name: "C", Size: geom.Size{W: 4, H: 2}, Span: geom.Interval{Start: 7, End: 13}},
	}
	old := place.New(mods)
	old.Pos[1] = geom.Point{X: 3, Y: 0}
	old.Pos[2] = geom.Point{X: 0, Y: 4}
	dead := []geom.Point{{X: 1, Y: 1}}
	st := State{Placement: old, Array: old.BoundingBox(), Fault: dead[0], Faults: dead}
	l := New(Options{Anneal: lightAnneal(9)})
	p1, err := l.tryDefragment(st)
	if err != nil {
		t.Fatalf("defragment: %v", err)
	}
	p2, err := l.tryDefragment(st)
	if err != nil {
		t.Fatalf("defragment rerun: %v", err)
	}
	if p1.Placement.String() != p2.Placement.String() {
		t.Fatalf("defragment not deterministic:\n%s\nvs\n%s", p1.Placement, p2.Placement)
	}
	for i := range p1.Placement.Modules {
		if p1.Placement.Rect(i).Contains(dead[0]) {
			t.Fatalf("module %s covers dead cell %v", p1.Placement.Modules[i].Name, dead[0])
		}
	}
}
