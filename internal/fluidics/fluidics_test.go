package fluidics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dmfb/internal/geom"
)

func TestChipBasics(t *testing.T) {
	c := NewChip(8, 6)
	if c.W() != 8 || c.H() != 6 {
		t.Fatal("dims wrong")
	}
	p := geom.Point{X: 3, Y: 2}
	if c.IsFaulty(p) {
		t.Error("fresh chip faulty")
	}
	if err := c.InjectFault(p); err != nil {
		t.Fatal(err)
	}
	if !c.IsFaulty(p) {
		t.Error("fault not recorded")
	}
	if got := c.Faults(); len(got) != 1 || got[0] != p {
		t.Errorf("Faults = %v", got)
	}
	c.RepairFault(p)
	if c.IsFaulty(p) {
		t.Error("repair failed")
	}
	if err := c.InjectFault(geom.Point{X: 8, Y: 0}); err == nil {
		t.Error("out-of-bounds fault accepted")
	}
	if !c.IsFaulty(geom.Point{X: -1, Y: 0}) {
		t.Error("out-of-bounds should read faulty")
	}
}

func TestStepTiming(t *testing.T) {
	// 20 cm/s over 1.5 mm pitch = 7.5 ms per cell; the 10 ms control
	// step is the conservative prototype rate.
	if StepMS != 10 || StepsPerSecond != 100 {
		t.Fatal("timing constants wrong")
	}
}

func TestDispenseAndSeparation(t *testing.T) {
	s := NewState(NewChip(8, 8))
	d1, err := s.Dispense("kcl", geom.Point{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Volume != 1 || d1.Fluid != "kcl" {
		t.Errorf("droplet = %+v", d1)
	}
	// Adjacent (even diagonal) dispense violates separation.
	if _, err := s.Dispense("x", geom.Point{X: 1, Y: 1}); err == nil {
		t.Error("diagonal-adjacent dispense accepted")
	}
	if _, err := s.Dispense("x", geom.Point{X: 0, Y: 1}); err == nil {
		t.Error("adjacent dispense accepted")
	}
	// Distance 2 is fine.
	if _, err := s.Dispense("x", geom.Point{X: 2, Y: 0}); err != nil {
		t.Errorf("separated dispense rejected: %v", err)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	// Faulty port.
	s2 := NewState(NewChip(4, 4))
	s2.Chip().InjectFault(geom.Point{X: 0, Y: 0})
	if _, err := s2.Dispense("x", geom.Point{X: 0, Y: 0}); err == nil {
		t.Error("dispense on faulty cell accepted")
	}
}

func TestMoveRules(t *testing.T) {
	s := NewState(NewChip(6, 6))
	d, _ := s.Dispense("a", geom.Point{X: 2, Y: 2})
	// Legal single step.
	if err := s.Move(d.ID, geom.Point{X: 3, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Droplet(d.ID); got.Pos != (geom.Point{X: 3, Y: 2}) {
		t.Errorf("pos = %v", got.Pos)
	}
	if s.Moves() != 1 {
		t.Errorf("Moves = %d", s.Moves())
	}
	// Diagonal and multi-cell moves rejected.
	if err := s.Move(d.ID, geom.Point{X: 4, Y: 3}); err == nil {
		t.Error("diagonal move accepted")
	}
	if err := s.Move(d.ID, geom.Point{X: 5, Y: 2}); err == nil {
		t.Error("two-cell jump accepted")
	}
	// Off-array move rejected.
	e, _ := s.Dispense("b", geom.Point{X: 0, Y: 5})
	if err := s.Move(e.ID, geom.Point{X: -1, Y: 5}); err == nil {
		t.Error("off-array move accepted")
	}
	// Unknown droplet.
	if err := s.Move(99, geom.Point{X: 0, Y: 0}); err == nil {
		t.Error("unknown droplet accepted")
	}
}

func TestMoveIntoFaultySticksDroplet(t *testing.T) {
	s := NewState(NewChip(6, 6))
	s.Chip().InjectFault(geom.Point{X: 3, Y: 2})
	d, _ := s.Dispense("a", geom.Point{X: 2, Y: 2})
	if err := s.Move(d.ID, geom.Point{X: 3, Y: 2}); err == nil {
		t.Fatal("move onto faulty cell accepted")
	}
	// Droplet stays put — detectable by the testing layer.
	got, _ := s.Droplet(d.ID)
	if got.Pos != (geom.Point{X: 2, Y: 2}) {
		t.Errorf("droplet moved to %v", got.Pos)
	}
}

func TestMoveSeparationViolation(t *testing.T) {
	s := NewState(NewChip(8, 8))
	a, _ := s.Dispense("a", geom.Point{X: 0, Y: 0})
	_, _ = s.Dispense("b", geom.Point{X: 3, Y: 0})
	// Moving a to (1,0) puts it diagonal/adjacent... distance to b
	// becomes 2 -> OK. Moving to (2,0) would be distance 1 -> blocked.
	if err := s.Move(a.ID, geom.Point{X: 1, Y: 0}); err != nil {
		t.Fatalf("legal move rejected: %v", err)
	}
	if err := s.Move(a.ID, geom.Point{X: 2, Y: 0}); err == nil {
		t.Error("separation-violating move accepted")
	}
}

func TestFollowPath(t *testing.T) {
	s := NewState(NewChip(6, 6))
	d, _ := s.Dispense("a", geom.Point{X: 0, Y: 0})
	path := []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 1}}
	if err := s.FollowPath(d.ID, path); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Droplet(d.ID)
	if got.Pos != (geom.Point{X: 2, Y: 1}) {
		t.Errorf("pos = %v", got.Pos)
	}
	if s.Moves() != 3 {
		t.Errorf("Moves = %d", s.Moves())
	}
	// Path must start at the droplet.
	if err := s.FollowPath(d.ID, []geom.Point{{X: 0, Y: 0}}); err == nil {
		t.Error("mis-anchored path accepted")
	}
	if err := s.FollowPath(d.ID, nil); err == nil {
		t.Error("empty path accepted")
	}
}

func TestMergeRules(t *testing.T) {
	s := NewState(NewChip(8, 8))
	a, _ := s.Dispense("kcl", geom.Point{X: 0, Y: 0})
	b, _ := s.Dispense("tris", geom.Point{X: 3, Y: 0})
	// Too far to coalesce.
	if _, err := s.Merge(a.ID, b.ID); err == nil {
		t.Fatal("distant merge accepted")
	}
	// Teleport respects the separation halo (Chebyshev < 2).
	if err := s.Teleport(b.ID, geom.Point{X: 1, Y: 0}); err == nil {
		t.Fatal("teleport into separation halo accepted")
	}
	// Distance 2 is legal for a plain move; distance 1 is not.
	if err := s.Move(b.ID, geom.Point{X: 2, Y: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Move(b.ID, geom.Point{X: 1, Y: 0}); err == nil {
		t.Fatal("move into separation halo accepted")
	}
	// The final approach is MoveToMerge: separation waived against the
	// partner only.
	if err := s.MoveToMerge(b.ID, a.ID, geom.Point{X: 1, Y: 0}); err != nil {
		t.Fatal(err)
	}
	// But not against third droplets.
	c, _ := s.Dispense("dna", geom.Point{X: 0, Y: 4})
	if err := s.MoveToMerge(b.ID, a.ID, geom.Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err) // still fine: c is far away
	}
	if err := s.MoveToMerge(b.ID, a.ID, geom.Point{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.MoveToMerge(b.ID, a.ID, geom.Point{X: 1, Y: 3}); err == nil {
		t.Fatal("approach entered third droplet's halo")
	}
	_ = c
	if _, err := s.Merge(a.ID, a.ID); err == nil {
		t.Error("self-merge accepted")
	}
	if _, err := s.Merge(a.ID, 99); err == nil {
		t.Error("merge with unknown droplet accepted")
	}
}

func TestMergeAdjacent(t *testing.T) {
	// Build adjacency through the documented primitive order: dispense
	// far apart, then Merge moves are the simulator's responsibility.
	// The state-level contract: Merge succeeds iff Chebyshev ≤ 1.
	s := NewState(NewChip(8, 8))
	a, _ := s.Dispense("kcl", geom.Point{X: 0, Y: 0})
	b, _ := s.Dispense("tris", geom.Point{X: 2, Y: 1})
	// Chebyshev((0,0),(2,1)) = 2: too far.
	if _, err := s.Merge(a.ID, b.ID); err == nil {
		t.Fatal("too-far merge accepted")
	}
	// Move b one step closer: (1,1) is within a's halo — allowed only
	// for merge; the fluidics model treats the merge itself as the
	// moment of contact, so the approach uses MergeFrom semantics:
	// bring to distance where Merge is legal by moving a instead:
	// a (0,0) -> (1,0): distance to b (2,1) becomes 1: that move is
	// blocked by separation too. The physical reality: approach and
	// coalescence are one operation. Model decision: Merge performs
	// the final approach itself when distance == 2? No — the sim
	// always ends transports at distance ≤ 1 inside a module where
	// only the two partners are present, and SeparationOK excepts the
	// partner: Move with the halo of the partner excepted is done via
	// MoveToMerge.
	if err := s.MoveToMerge(b.ID, a.ID, geom.Point{X: 1, Y: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := s.Merge(a.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	if m.Volume != 2 {
		t.Errorf("merged volume = %v", m.Volume)
	}
	if !strings.Contains(m.Fluid, "kcl") || !strings.Contains(m.Fluid, "tris") {
		t.Errorf("merged fluid = %q", m.Fluid)
	}
	if s.Count() != 1 {
		t.Errorf("Count after merge = %d", s.Count())
	}
	if _, ok := s.At(geom.Point{X: 1, Y: 1}); ok {
		t.Error("b's cell still occupied")
	}
}

func TestSplit(t *testing.T) {
	s := NewState(NewChip(8, 8))
	a, _ := s.Dispense("kcl", geom.Point{X: 0, Y: 4})
	b, _ := s.Dispense("tris", geom.Point{X: 2, Y: 4})
	if err := s.MoveToMerge(b.ID, a.ID, geom.Point{X: 1, Y: 4}); err != nil {
		t.Fatal(err)
	}
	m, err := s.Merge(a.ID, b.ID)
	if err != nil {
		t.Fatal(err)
	}
	d1, d2, err := s.Split(m.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Volume != 1 || d2.Volume != 1 {
		t.Errorf("split volumes = %v, %v", d1.Volume, d2.Volume)
	}
	if d1.Pos != (geom.Point{X: 0, Y: 3}) || d2.Pos != (geom.Point{X: 0, Y: 5}) {
		t.Errorf("split positions = %v, %v", d1.Pos, d2.Pos)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	// Unit droplets cannot split.
	if _, _, err := s.Split(d1.ID, true); err == nil {
		t.Error("unit split accepted")
	}
}

func TestRemoveAndAt(t *testing.T) {
	s := NewState(NewChip(4, 4))
	d, _ := s.Dispense("a", geom.Point{X: 1, Y: 1})
	if got, ok := s.At(geom.Point{X: 1, Y: 1}); !ok || got.ID != d.ID {
		t.Error("At lookup failed")
	}
	if err := s.Remove(d.ID); err != nil {
		t.Fatal(err)
	}
	if s.Count() != 0 {
		t.Error("Remove did not delete")
	}
	if _, ok := s.At(geom.Point{X: 1, Y: 1}); ok {
		t.Error("cell still occupied after Remove")
	}
	if err := s.Remove(d.ID); err == nil {
		t.Error("double remove accepted")
	}
}

func TestDropletsSnapshotIsolation(t *testing.T) {
	s := NewState(NewChip(4, 4))
	s.Dispense("a", geom.Point{X: 0, Y: 0})
	ds := s.Droplets()
	ds[0].Pos = geom.Point{X: 3, Y: 3}
	if got, _ := s.Droplet(ds[0].ID); got.Pos == (geom.Point{X: 3, Y: 3}) {
		t.Error("Droplets exposes internal state")
	}
}

// TestStateKeepsIDOrder runs random dispense, move, split, merge and
// remove sequences against a map model: Droplets must come out in
// strictly increasing ID order without re-sorting, and every lookup
// (Droplet, At) must agree with the model.
func TestStateKeepsIDOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	merges, splits := 0, 0
	for trial := 0; trial < 200; trial++ {
		chip := NewChip(9, 9)
		s := NewState(chip)
		model := map[int]Droplet{}
		cell := func() geom.Point { return geom.Point{X: rng.Intn(9), Y: rng.Intn(9)} }
		for step := 0; step < 60; step++ {
			ids := make([]int, 0, len(model))
			for id := range model {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			pick := func() int { return ids[rng.Intn(len(ids))] }
			switch op := rng.Intn(5); {
			case op == 0 || len(ids) == 0:
				if d, err := s.Dispense("f", cell()); err == nil {
					model[d.ID] = d
				}
			case op == 1:
				id := pick()
				to := model[id].Pos.Neighbors4()[rng.Intn(4)]
				if s.Move(id, to) == nil {
					d := model[id]
					d.Pos = to
					model[id] = d
				}
			case op == 2:
				id := pick()
				if d1, d2, err := s.Split(id, rng.Intn(2) == 0); err == nil {
					delete(model, id)
					model[d1.ID], model[d2.ID] = d1, d2
					splits++
				}
			case op == 3 && len(ids) > 1:
				a, b := pick(), pick()
				db := model[b]
				for _, to := range db.Pos.Neighbors4() {
					if a != b && chebyshev(to, model[a].Pos) == 1 && s.MoveToMerge(b, a, to) == nil {
						db.Pos = to
						model[b] = db
						break
					}
				}
				if m, err := s.Merge(a, b); err == nil {
					delete(model, b)
					model[a] = m
					merges++
				}
			case op == 4:
				id := pick()
				if err := s.Remove(id); err != nil {
					t.Fatal(err)
				}
				delete(model, id)
			}
			ds := s.Droplets()
			if len(ds) != len(model) || s.Count() != len(model) {
				t.Fatalf("trial %d step %d: %d droplets, model has %d", trial, step, len(ds), len(model))
			}
			for i, d := range ds {
				if i > 0 && ds[i-1].ID >= d.ID {
					t.Fatalf("trial %d step %d: Droplets out of ID order: %v", trial, step, ds)
				}
				if d != model[d.ID] {
					t.Fatalf("trial %d step %d: droplet %+v, model %+v", trial, step, d, model[d.ID])
				}
				if got, ok := s.Droplet(d.ID); !ok || *got != d {
					t.Fatalf("trial %d step %d: Droplet(%d) = %+v, %v", trial, step, d.ID, got, ok)
				}
				if got, ok := s.At(d.Pos); !ok || got.ID != d.ID {
					t.Fatalf("trial %d step %d: At(%v) = %+v, %v", trial, step, d.Pos, got, ok)
				}
			}
		}
	}
	if merges == 0 || splits == 0 {
		t.Fatalf("sequences made %d merges and %d splits; both must occur", merges, splits)
	}
}
