// Package assay models biochemical assays as sequencing graphs, the
// behavioural input to the synthesis flow (paper Section 1: "A
// behavioral model for a biochemical assay is first generated from the
// laboratory protocol for that assay").
//
// A sequencing graph is a directed acyclic graph whose nodes are
// fluidic operations (dispense, mix, dilute, store, detect, output)
// and whose edges are droplet dependencies: an edge u→v means the
// droplet produced by u is consumed by v.
package assay

import (
	"fmt"
	"sort"
)

// OpKind classifies a fluidic operation.
type OpKind int

// Operation kinds supported by the flow. Reconfigurable operations
// (Mix, Dilute, Store, Detect) occupy a module on the array;
// Dispense and Output use reservoir/IO ports on the chip boundary.
const (
	Dispense OpKind = iota // emit a droplet from an on-chip reservoir
	Mix                    // merge two droplets and mix to homogeneity
	Dilute                 // mix sample with buffer and split
	Store                  // hold a droplet for a period of time
	Detect                 // optical/electrical readout of a droplet
	Output                 // move a droplet to a waste/collection port
)

var kindNames = [...]string{"dispense", "mix", "dilute", "store", "detect", "output"}

// String returns the lower-case kind name.
func (k OpKind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("opkind(%d)", int(k))
	}
	return kindNames[k]
}

// Reconfigurable reports whether the operation executes on a virtual
// module of array cells (true) or on a boundary port (false).
func (k OpKind) Reconfigurable() bool {
	switch k {
	case Mix, Dilute, Store, Detect:
		return true
	}
	return false
}

// maxInputs returns the maximum in-degree allowed for the kind.
func (k OpKind) maxInputs() int {
	switch k {
	case Dispense:
		return 0
	case Mix, Dilute:
		return 2
	default:
		return 1
	}
}

// Op is a node of the sequencing graph.
type Op struct {
	ID    int    // index within the graph, assigned by AddOp
	Name  string // human-readable label, e.g. "M1" or "DisposeSample"
	Kind  OpKind
	Fluid string // reagent/sample name for dispense ops; informational otherwise
}

// Graph is a sequencing graph under construction or analysis.
// The zero value is an empty graph ready for use.
type Graph struct {
	Name string
	ops  []Op
	succ [][]int
	pred [][]int
}

// New returns an empty sequencing graph with the given name.
func New(name string) *Graph { return &Graph{Name: name} }

// AddOp appends an operation and returns its ID.
func (g *Graph) AddOp(name string, kind OpKind, fluid string) int {
	id := len(g.ops)
	g.ops = append(g.ops, Op{ID: id, Name: name, Kind: kind, Fluid: fluid})
	g.succ = append(g.succ, nil)
	g.pred = append(g.pred, nil)
	return id
}

// AddEdge records that the droplet produced by from is consumed by to.
// It returns an error for unknown IDs, self-loops or duplicate edges.
func (g *Graph) AddEdge(from, to int) error {
	if from < 0 || from >= len(g.ops) || to < 0 || to >= len(g.ops) {
		return fmt.Errorf("assay: edge %d->%d references unknown op", from, to)
	}
	if from == to {
		return fmt.Errorf("assay: self-loop on op %d (%s)", from, g.ops[from].Name)
	}
	for _, s := range g.succ[from] {
		if s == to {
			return fmt.Errorf("assay: duplicate edge %d->%d", from, to)
		}
	}
	g.succ[from] = append(g.succ[from], to)
	g.pred[to] = append(g.pred[to], from)
	return nil
}

// MustEdge is AddEdge that panics on error; for hand-built graphs in
// case studies and tests.
func (g *Graph) MustEdge(from, to int) {
	if err := g.AddEdge(from, to); err != nil {
		panic(err)
	}
}

// NumOps returns the number of operations.
func (g *Graph) NumOps() int { return len(g.ops) }

// Op returns the operation with the given ID. It panics on an unknown
// ID, which is always a caller bug.
func (g *Graph) Op(id int) Op {
	return g.ops[id]
}

// Ops returns all operations in ID order. The returned slice is a
// copy.
func (g *Graph) Ops() []Op {
	out := make([]Op, len(g.ops))
	copy(out, g.ops)
	return out
}

// Succ returns the successor IDs of op id as a read-only view of the
// graph's own list: do not write its elements. Its capacity is clipped
// to its length, so appending to it copies instead of growing the
// graph's list.
func (g *Graph) Succ(id int) []int { s := g.succ[id]; return s[:len(s):len(s)] }

// Pred returns the predecessor IDs of op id, a read-only view like
// Succ's.
func (g *Graph) Pred(id int) []int { p := g.pred[id]; return p[:len(p):len(p)] }

// Sources returns ops with no predecessors, in ID order.
func (g *Graph) Sources() []int {
	var out []int
	for i := range g.ops {
		if len(g.pred[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Sinks returns ops with no successors, in ID order.
func (g *Graph) Sinks() []int {
	var out []int
	for i := range g.ops {
		if len(g.succ[i]) == 0 {
			out = append(out, i)
		}
	}
	return out
}

// Validate checks structural well-formedness: acyclicity, in-degree
// limits per kind (a mix consumes at most two droplets, a dispense
// none), and that every non-dispense operation has at least one input.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for i, op := range g.ops {
		in := len(g.pred[i])
		if maxIn := op.Kind.maxInputs(); in > maxIn {
			return fmt.Errorf("assay: op %s (%s) has %d inputs, max %d", op.Name, op.Kind, in, maxIn)
		}
		if op.Kind != Dispense && in == 0 {
			return fmt.Errorf("assay: op %s (%s) has no input droplet", op.Name, op.Kind)
		}
	}
	return nil
}

// TopoOrder returns a topological ordering of the operation IDs
// (Kahn's algorithm, smallest-ID-first for determinism) or an error if
// the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	n := len(g.ops)
	indeg := make([]int, n)
	for i := range g.ops {
		indeg[i] = len(g.pred[i])
	}
	ready := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	for len(ready) > 0 {
		sort.Ints(ready)
		v := ready[0]
		ready = ready[1:]
		order = append(order, v)
		for _, s := range g.succ[v] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("assay: graph %q contains a cycle", g.Name)
	}
	return order, nil
}

// Depth returns, for every op, the length (in edges) of the longest
// path from any source to that op. Useful for drawing levels of the
// sequencing graph.
func (g *Graph) Depth() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	depth := make([]int, len(g.ops))
	for _, v := range order {
		for _, p := range g.pred[v] {
			if depth[p]+1 > depth[v] {
				depth[v] = depth[p] + 1
			}
		}
	}
	return depth, nil
}

// CriticalPathLen returns the longest source-to-sink path length
// weighted by the supplied per-op durations. This is the lower bound
// on assay completion time regardless of resources.
func (g *Graph) CriticalPathLen(duration func(Op) int) (int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, err
	}
	finish := make([]int, len(g.ops))
	best := 0
	for _, v := range order {
		start := 0
		for _, p := range g.pred[v] {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[v] = start + duration(g.ops[v])
		if finish[v] > best {
			best = finish[v]
		}
	}
	return best, nil
}

// CountKind returns the number of operations of the given kind.
func (g *Graph) CountKind(k OpKind) int {
	n := 0
	for _, op := range g.ops {
		if op.Kind == k {
			n++
		}
	}
	return n
}
