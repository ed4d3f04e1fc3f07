package reconfig

import (
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// TestRecoverSequentialFaultsAvoidPrior is the golden test for fault
// accumulation: when a second fault strikes a module that was already
// relocated once, the new site must avoid BOTH dead cells. Planning
// with only the newest fault used to park the module right on top of
// the first one.
func TestRecoverSequentialFaultsAvoidPrior(t *testing.T) {
	p := place.New([]place.Module{mod(0, "M", 2, 2, 0, 10)})
	array := geom.Rect{X: 0, Y: 0, W: 6, H: 2}

	// Fault 1 hits the module at its initial site (0,0)-(2,2). The
	// free sites are x = 2, 3, 4; x = 4 borders the fewest free cells
	// (the array edge closes its right side).
	f1 := geom.Point{X: 1, Y: 1}
	rels1, err := Recover(nil, p, array, f1)
	if err != nil {
		t.Fatalf("first recovery: %v", err)
	}
	want1 := geom.Rect{X: 4, Y: 0, W: 2, H: 2}
	if len(rels1) != 1 || rels1[0].To != want1 {
		t.Fatalf("first relocation = %v, want single move to %v", rels1, want1)
	}

	// Fault 2 hits the relocated module. Without the first fault as an
	// obstacle the planner picks the tightest site, x = 0 against the
	// left edge — which covers the dead cell f1. This pins the gap the
	// variadic obstacle parameter closes.
	f2 := geom.Point{X: 4, Y: 0}
	buggy, err := PlanModule(nil, p, array, 0, f2)
	if err != nil {
		t.Fatalf("obstacle-less plan: %v", err)
	}
	if !buggy.To.Contains(f1) {
		t.Fatalf("expected the obstacle-less plan to cover prior fault %v, got site %v", f1, buggy.To)
	}

	rels2, err := Recover(nil, p, array, f2, f1)
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	want2 := geom.Rect{X: 2, Y: 0, W: 2, H: 2}
	if len(rels2) != 1 || rels2[0].To != want2 {
		t.Fatalf("second relocation = %v, want single move to %v", rels2, want2)
	}
	for _, r := range rels2 {
		if r.To.Contains(f1) || r.To.Contains(f2) {
			t.Errorf("relocation %v covers an accumulated fault (%v, %v)", r, f1, f2)
		}
	}
}
