package assay

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// chain builds dispense -> mix(with second dispense) -> output.
func smallGraph(t *testing.T) (*Graph, []int) {
	t.Helper()
	g := New("small")
	d1 := g.AddOp("D1", Dispense, "sample")
	d2 := g.AddOp("D2", Dispense, "reagent")
	m := g.AddOp("M", Mix, "")
	o := g.AddOp("O", Output, "")
	g.MustEdge(d1, m)
	g.MustEdge(d2, m)
	g.MustEdge(m, o)
	return g, []int{d1, d2, m, o}
}

// TestSuccPredAppendIsolated checks that Succ and Pred views have
// their capacity clipped: appending to one copies, so neither the
// caller's appended element nor the graph's later edges overwrite
// each other. Three edges leave spare capacity in the graph's lists.
func TestSuccPredAppendIsolated(t *testing.T) {
	g := New("fan")
	hub := g.AddOp("H", Mix, "")
	var ends []int
	for _, name := range []string{"A", "B", "C", "D"} {
		ends = append(ends, g.AddOp(name, Output, ""))
	}
	for _, e := range ends[:3] {
		g.MustEdge(hub, e)
		g.MustEdge(e, ends[3])
	}
	succ := append(g.Succ(hub), 999)
	pred := append(g.Pred(ends[3]), 999)
	g.MustEdge(hub, ends[3])
	if got := g.Succ(hub); fmt.Sprint(got) != fmt.Sprint(ends) {
		t.Errorf("Succ(H) = %v after appending to a view, want %v", got, ends)
	}
	if got, want := g.Pred(ends[3]), append(ends[:3:3], hub); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Pred(D) = %v after appending to a view, want %v", got, want)
	}
	if succ[3] != 999 || pred[3] != 999 {
		t.Errorf("graph edges overwrote appended elements: succ %v, pred %v", succ, pred)
	}
}

func TestOpKindString(t *testing.T) {
	if Mix.String() != "mix" || Dispense.String() != "dispense" {
		t.Error("kind names wrong")
	}
	if !strings.Contains(OpKind(99).String(), "99") {
		t.Error("unknown kind not flagged")
	}
}

func TestReconfigurable(t *testing.T) {
	for _, k := range []OpKind{Mix, Dilute, Store, Detect} {
		if !k.Reconfigurable() {
			t.Errorf("%v should be reconfigurable", k)
		}
	}
	for _, k := range []OpKind{Dispense, Output} {
		if k.Reconfigurable() {
			t.Errorf("%v should not be reconfigurable", k)
		}
	}
}

func TestBuildAndQuery(t *testing.T) {
	g, ids := smallGraph(t)
	if g.NumOps() != 4 {
		t.Fatalf("NumOps = %d", g.NumOps())
	}
	m := ids[2]
	if got := g.Pred(m); len(got) != 2 {
		t.Errorf("Pred(M) = %v", got)
	}
	if got := g.Succ(m); len(got) != 1 || got[0] != ids[3] {
		t.Errorf("Succ(M) = %v", got)
	}
	if got := g.Sources(); len(got) != 2 {
		t.Errorf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 1 || got[0] != ids[3] {
		t.Errorf("Sinks = %v", got)
	}
	if op := g.Op(m); op.Name != "M" || op.Kind != Mix || op.ID != m {
		t.Errorf("Op(M) = %+v", op)
	}
	ops := g.Ops()
	ops[0].Name = "mutated"
	if g.Op(0).Name == "mutated" {
		t.Error("Ops returns aliased slice")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g, ids := smallGraph(t)
	if err := g.AddEdge(-1, 0); err == nil {
		t.Error("negative id accepted")
	}
	if err := g.AddEdge(0, 99); err == nil {
		t.Error("unknown id accepted")
	}
	if err := g.AddEdge(ids[2], ids[2]); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(ids[0], ids[2]); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestMustEdgePanics(t *testing.T) {
	g, _ := smallGraph(t)
	defer func() {
		if recover() == nil {
			t.Error("MustEdge did not panic")
		}
	}()
	g.MustEdge(0, 0)
}

func TestValidate(t *testing.T) {
	g, _ := smallGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	// Mix with three inputs.
	g2 := New("bad-fanin")
	a := g2.AddOp("a", Dispense, "x")
	b := g2.AddOp("b", Dispense, "y")
	c := g2.AddOp("c", Dispense, "z")
	m := g2.AddOp("m", Mix, "")
	g2.MustEdge(a, m)
	g2.MustEdge(b, m)
	g2.MustEdge(c, m)
	if err := g2.Validate(); err == nil {
		t.Error("3-input mix accepted")
	}

	// Dispense with an input.
	g3 := New("bad-dispense")
	d1 := g3.AddOp("d1", Dispense, "x")
	d2 := g3.AddOp("d2", Dispense, "y")
	g3.MustEdge(d1, d2)
	if err := g3.Validate(); err == nil {
		t.Error("dispense with input accepted")
	}

	// Orphan mix (no inputs).
	g4 := New("orphan")
	g4.AddOp("m", Mix, "")
	if err := g4.Validate(); err == nil {
		t.Error("input-less mix accepted")
	}
}

func TestTopoOrderAndCycle(t *testing.T) {
	g, ids := smallGraph(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, v := range order {
		for _, s := range g.Succ(v) {
			if pos[s] < pos[v] {
				t.Fatalf("topo order violated: %d before %d", s, v)
			}
		}
	}
	_ = ids

	// A cycle must be detected.
	gc := New("cyclic")
	a := gc.AddOp("a", Mix, "")
	b := gc.AddOp("b", Mix, "")
	gc.MustEdge(a, b)
	gc.MustEdge(b, a)
	if _, err := gc.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if err := gc.Validate(); err == nil {
		t.Error("Validate missed the cycle")
	}
}

func TestDepth(t *testing.T) {
	g, ids := smallGraph(t)
	depth, err := g.Depth()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 1, 2}
	for i, id := range ids {
		if depth[id] != want[i] {
			t.Errorf("depth[%s] = %d, want %d", g.Op(id).Name, depth[id], want[i])
		}
	}
}

func TestCriticalPathLen(t *testing.T) {
	g, _ := smallGraph(t)
	dur := func(op Op) int {
		switch op.Kind {
		case Dispense:
			return 2
		case Mix:
			return 10
		default:
			return 1
		}
	}
	got, err := g.CriticalPathLen(dur)
	if err != nil {
		t.Fatal(err)
	}
	if got != 13 { // 2 + 10 + 1
		t.Errorf("critical path = %d, want 13", got)
	}
}

func TestCountKind(t *testing.T) {
	g, _ := smallGraph(t)
	if g.CountKind(Dispense) != 2 || g.CountKind(Mix) != 1 || g.CountKind(Detect) != 0 {
		t.Error("CountKind wrong")
	}
}

// Property: for random DAGs (edges only low->high ID), TopoOrder
// succeeds and respects every edge; Depth is consistent with preds.
func TestTopoOrderRandomDAGProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(20)
		g := New("rand")
		for i := 0; i < n; i++ {
			g.AddOp("op", Mix, "")
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(4) == 0 {
					g.MustEdge(i, j)
				}
			}
		}
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatalf("DAG rejected: %v", err)
		}
		pos := make([]int, n)
		for i, v := range order {
			pos[v] = i
		}
		for v := 0; v < n; v++ {
			for _, s := range g.Succ(v) {
				if pos[s] <= pos[v] {
					t.Fatal("edge violated in topo order")
				}
			}
		}
		depth, err := g.Depth()
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < n; v++ {
			wantD := 0
			for _, p := range g.Pred(v) {
				if depth[p]+1 > wantD {
					wantD = depth[p] + 1
				}
			}
			if depth[v] != wantD {
				t.Fatalf("depth[%d] = %d, want %d", v, depth[v], wantD)
			}
		}
	}
}
