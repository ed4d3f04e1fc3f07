package defect

import (
	"bytes"
	"slices"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/format"
	"dmfb/internal/geom"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/recovery"
	"dmfb/internal/schedule"
)

// pcrFixture is the seed-2 area-minimal PCR placement with its
// schedule — origin-anchored, as Reconfigure requires.
func pcrFixture(t *testing.T) (*schedule.Schedule, *place.Placement) {
	t.Helper()
	s := pcr.MustSchedule()
	p, _, err := core.AnnealArea(core.FromSchedule(s),
		core.Options{Seed: 2, ItersPerModule: 120, WindowPatience: 4})
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

func reconfOpts() recovery.Options {
	return recovery.Options{Anneal: core.Options{Seed: 1, ItersPerModule: 60, WindowPatience: 2}}
}

func TestReconfigureEmptyMapSurvives(t *testing.T) {
	s, p := pcrFixture(t)
	rev := Reconfigure(s, p, p.BoundingBox(), nil, reconfOpts())
	if !rev.Survivable {
		t.Fatal("defect-free die reported unsurvivable")
	}
	if len(rev.Levels) != 0 {
		t.Errorf("defect-free review carries work: %+v", rev)
	}
	if rev.Placement != p || rev.Sched != s {
		t.Error("defect-free review must return the inputs unchanged")
	}
}

func TestReconfigureUnusedCellIsFree(t *testing.T) {
	s, p := pcrFixture(t)
	array := p.BoundingBox()
	var free *geom.Point
	for y := 0; y < array.H && free == nil; y++ {
		for x := 0; x < array.W; x++ {
			cell := geom.Point{X: array.X + x, Y: array.Y + y}
			if len(p.ModulesAt(cell)) == 0 {
				free = &cell
				break
			}
		}
	}
	if free == nil {
		t.Skip("fixture placement has no unused cell")
	}
	rev := Reconfigure(s, p, array, []geom.Point{*free}, reconfOpts())
	if !rev.Survivable {
		t.Fatalf("defect on unused cell %v unsurvivable", *free)
	}
	if len(rev.Levels) != 1 || rev.Levels[0] != recovery.LevelNone {
		t.Errorf("levels = %v, want [none]", rev.Levels)
	}
}

func TestReconfigureModuleCellRelocates(t *testing.T) {
	s, p := pcrFixture(t)
	array := p.BoundingBox()
	var hit geom.Point
	found := false
	for y := 0; y < array.H && !found; y++ {
		for x := 0; x < array.W; x++ {
			cell := geom.Point{X: array.X + x, Y: array.Y + y}
			if len(p.ModulesAt(cell)) > 0 {
				hit, found = cell, true
				break
			}
		}
	}
	if !found {
		t.Fatal("fixture placement has no module cell")
	}
	rev := Reconfigure(s, p, array, []geom.Point{hit}, reconfOpts())
	if !rev.Survivable {
		t.Fatalf("single module-cell defect at %v unsurvivable", hit)
	}
	if len(rev.Levels) != 1 || rev.Levels[0] < recovery.LevelRelocate {
		t.Errorf("levels %v, want one of at least relocate", rev.Levels)
	}
	// No module may still occupy the defective cell at the time any
	// module uses it; the ladder guarantees this, spot-check it.
	for _, m := range rev.Placement.ModulesAt(hit) {
		t.Errorf("module %d still covers the defect at %v", m, hit)
	}
	if err := rev.Placement.Validate(); err != nil {
		t.Errorf("reconfigured placement invalid: %v", err)
	}
}

func TestReconfigureSaturatedDieFails(t *testing.T) {
	s, p := pcrFixture(t)
	array := p.BoundingBox()
	// Every cell dead: no rung can host anything anywhere.
	var all []geom.Point
	for y := 0; y < array.H; y++ {
		for x := 0; x < array.W; x++ {
			all = append(all, geom.Point{X: array.X + x, Y: array.Y + y})
		}
	}
	rev := Reconfigure(s, p, array, all, reconfOpts())
	if rev.Survivable {
		t.Fatal("fully dead die reported survivable")
	}
	if len(rev.Levels) >= len(all) {
		t.Errorf("review absorbed %d of %d defects but failed", len(rev.Levels), len(all))
	}
}

func TestReconfigureDeterministic(t *testing.T) {
	s, p := pcrFixture(t)
	array := p.BoundingBox()
	defects := []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 1}, {X: 4, Y: 3}}
	a := Reconfigure(s, p, array, defects, reconfOpts())
	b := Reconfigure(s, p, array, defects, reconfOpts())
	if a.Survivable != b.Survivable || !slices.Equal(a.Levels, b.Levels) {
		t.Fatalf("reviews differ: %+v vs %+v", a, b)
	}
	ra, err := format.MarshalPlacement(a.Placement)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := format.MarshalPlacement(b.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ra, rb) {
		t.Error("same inputs produced different reconfigured placements")
	}
}
