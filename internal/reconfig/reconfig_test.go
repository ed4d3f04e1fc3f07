package reconfig

import (
	"math/rand"
	"strings"
	"testing"

	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
)

func mod(id int, name string, w, h, s, e int) place.Module {
	return place.Module{ID: id, Name: name, Size: geom.Size{W: w, H: h},
		Span: geom.Interval{Start: s, End: e}}
}

func TestPlanFaultInFreeCell(t *testing.T) {
	p := place.New([]place.Module{mod(0, "A", 2, 2, 0, 10)})
	array := geom.Rect{X: 0, Y: 0, W: 6, H: 6}
	rels, err := Plan(nil, p, array, geom.Point{X: 5, Y: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 0 {
		t.Fatalf("fault in unused cell should need no relocation, got %v", rels)
	}
}

func TestPlanOutsideArray(t *testing.T) {
	p := place.New([]place.Module{mod(0, "A", 2, 2, 0, 10)})
	array := geom.Rect{X: 0, Y: 0, W: 6, H: 6}
	if _, err := Plan(nil, p, array, geom.Point{X: 6, Y: 0}); err == nil {
		t.Error("fault outside array accepted")
	}
}

func TestRecoverSimpleRelocation(t *testing.T) {
	p := place.New([]place.Module{mod(0, "A", 2, 2, 0, 10)})
	array := geom.Rect{X: 0, Y: 0, W: 6, H: 6}
	fault := geom.Point{X: 0, Y: 0}
	rels, err := Recover(nil, p, array, fault)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("relocations = %v", rels)
	}
	if p.Rect(0).Contains(fault) {
		t.Errorf("module still uses the faulty cell: %v", p.Rect(0))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rels[0].String(), "module 0") {
		t.Errorf("String = %q", rels[0].String())
	}
}

func TestRecoverFailsWhenNoSpace(t *testing.T) {
	// 3x3 module fills the whole array.
	p := place.New([]place.Module{mod(0, "A", 3, 3, 0, 10)})
	array := geom.Rect{X: 0, Y: 0, W: 3, H: 3}
	if _, err := Recover(nil, p, array, geom.Point{X: 1, Y: 1}); err == nil {
		t.Error("impossible relocation accepted")
	}
	// Placement untouched on failure.
	if p.Pos[0] != (geom.Point{X: 0, Y: 0}) {
		t.Error("failed recovery mutated the placement")
	}
}

func TestRecoverTimeSharedCell(t *testing.T) {
	// Two modules with disjoint spans share the origin cell. Both must
	// be relocated.
	mods := []place.Module{mod(0, "A", 2, 2, 0, 5), mod(1, "B", 2, 2, 5, 10)}
	p := place.New(mods)
	array := geom.Rect{X: 0, Y: 0, W: 4, H: 4}
	rels, err := Recover(nil, p, array, geom.Point{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("want 2 relocations, got %v", rels)
	}
	for i := 0; i < 2; i++ {
		if p.Rect(i).Contains(geom.Point{X: 0, Y: 0}) {
			t.Errorf("module %d still uses the faulty cell", i)
		}
	}
}

func TestRelocationUsesRotationWhenNeeded(t *testing.T) {
	// A 2x3 module; the only free pocket is 3x2.
	mods := []place.Module{
		mod(0, "A", 2, 3, 0, 10),
		mod(1, "B", 3, 1, 0, 10), // blocks (2..4, 2)
	}
	p := place.New(mods)
	p.Pos[0] = geom.Point{X: 0, Y: 0}
	p.Pos[1] = geom.Point{X: 2, Y: 2}
	// Array 5x3: free cells are x2..4 y0..1 (3x2). A (2x3) fits only
	// rotated.
	array := geom.Rect{X: 0, Y: 0, W: 5, H: 3}
	rels, err := Recover(nil, p, array, geom.Point{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 || !rels[0].Rotated() {
		t.Fatalf("expected one rotated relocation, got %v", rels)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyRejectsGarbage(t *testing.T) {
	p := place.New([]place.Module{mod(0, "A", 2, 2, 0, 10)})
	if err := Apply(nil, p, []Relocation{{Module: 5, To: geom.Rect{W: 2, H: 2}}}); err == nil {
		t.Error("unknown module accepted")
	}
	if err := Apply(nil, p, []Relocation{{Module: 0, To: geom.Rect{W: 3, H: 2}}}); err == nil {
		t.Error("wrong footprint accepted")
	}
}

// Property: Plan succeeds exactly on the C-covered cells reported by
// the fault tolerance index — the FTI is a faithful predictor of
// on-line recoverability.
func TestPlanMatchesFTICoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(4)
		mods := make([]place.Module, n)
		for i := range mods {
			st := rng.Intn(8)
			mods[i] = mod(i, "M", 1+rng.Intn(3), 1+rng.Intn(3), st, st+1+rng.Intn(8))
		}
		p := place.New(mods)
		aw, ah := 4+rng.Intn(4), 4+rng.Intn(4)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(aw - 1), Y: rng.Intn(ah - 1)}
		}
		if !p.Valid() {
			continue
		}
		array := geom.Rect{X: 0, Y: 0, W: aw, H: ah}
		cov := fti.ComputeOn(p, array)
		for y := 0; y < ah; y++ {
			for x := 0; x < aw; x++ {
				_, err := Plan(nil, p.Clone(), array, geom.Point{X: x, Y: y})
				if (err == nil) != cov.CoveredAt(x, y) {
					t.Fatalf("trial %d: cell (%d,%d) Plan err=%v but covered=%v\n%s",
						trial, x, y, err, cov.CoveredAt(x, y), p)
				}
			}
		}
	}
}

// Property: after a successful Recover, the placement is valid, no
// module of the affected set uses the faulty cell, and untouched
// modules did not move.
func TestRecoverPostconditions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(3)
		mods := make([]place.Module, n)
		for i := range mods {
			st := rng.Intn(6)
			mods[i] = mod(i, "M", 1+rng.Intn(3), 1+rng.Intn(3), st, st+1+rng.Intn(6))
		}
		p := place.New(mods)
		aw, ah := 6+rng.Intn(4), 6+rng.Intn(4)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(4), Y: rng.Intn(4)}
		}
		if !p.Valid() {
			continue
		}
		array := geom.Rect{X: 0, Y: 0, W: aw, H: ah}
		fault := geom.Point{X: rng.Intn(aw), Y: rng.Intn(ah)}
		affected := map[int]bool{}
		for _, mi := range p.ModulesAt(fault) {
			affected[mi] = true
		}
		before := p.Clone()
		rels, err := Recover(nil, p, array, fault)
		if err != nil {
			continue // uncovered fault; tested elsewhere
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: invalid after recover: %v", trial, err)
		}
		if len(rels) != len(affected) {
			t.Fatalf("trial %d: %d relocations for %d affected modules",
				trial, len(rels), len(affected))
		}
		for i := range mods {
			if affected[i] {
				if p.Rect(i).Contains(fault) {
					t.Fatalf("trial %d: module %d still on fault", trial, i)
				}
			} else if p.Pos[i] != before.Pos[i] || p.Rot[i] != before.Rot[i] {
				t.Fatalf("trial %d: partial reconfiguration moved unaffected module %d", trial, i)
			}
		}
		// Relocated modules stay within the array.
		for _, r := range rels {
			if !array.ContainsRect(r.To) {
				t.Fatalf("trial %d: relocation %v escapes array", trial, r)
			}
		}
	}
}
