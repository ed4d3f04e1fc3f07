package router

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmfb/internal/fluidics"
	"dmfb/internal/geom"
)

// referenceRoute is the one-query breadth-first search Route ran
// before it was built on Tree: it stops the moment To is discovered.
// The Tree differential tests hold Tree, Route and Reachable to it.
func referenceRoute(chip *fluidics.Chip, req Request) ([]geom.Point, error) {
	w, h := chip.W(), chip.H()
	if !chip.In(req.From) || !chip.In(req.To) {
		return nil, fmt.Errorf("router: endpoints %v -> %v outside %dx%d array",
			req.From, req.To, w, h)
	}
	blocked := referenceBlocked(chip, req)
	if blocked[req.From] && req.From != req.To {
		return nil, fmt.Errorf("router: source %v is blocked", req.From)
	}
	if blocked[req.To] {
		return nil, fmt.Errorf("router: target %v is blocked", req.To)
	}
	if req.From == req.To {
		return []geom.Point{req.From}, nil
	}
	prev := map[geom.Point]geom.Point{}
	seen := map[geom.Point]bool{req.From: true}
	queue := []geom.Point{req.From}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range cur.Neighbors4() {
			if !chip.In(nb) || seen[nb] || blocked[nb] {
				continue
			}
			seen[nb] = true
			prev[nb] = cur
			if nb == req.To {
				var rev []geom.Point
				for c := req.To; c != req.From; c = prev[c] {
					rev = append(rev, c)
				}
				rev = append(rev, req.From)
				slices.Reverse(rev)
				return rev, nil
			}
			queue = append(queue, nb)
		}
	}
	return nil, fmt.Errorf("router: no path %v -> %v", req.From, req.To)
}

// referenceReachable is the flood fill Reachable ran before Tree.
func referenceReachable(chip *fluidics.Chip, req Request) []geom.Point {
	blocked := referenceBlocked(chip, req)
	if !chip.In(req.From) || blocked[req.From] {
		return nil
	}
	seen := map[geom.Point]bool{req.From: true}
	queue := []geom.Point{req.From}
	out := []geom.Point{req.From}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range cur.Neighbors4() {
			if !chip.In(nb) || seen[nb] || blocked[nb] {
				continue
			}
			seen[nb] = true
			out = append(out, nb)
			queue = append(queue, nb)
		}
	}
	return out
}

func referenceBlocked(chip *fluidics.Chip, req Request) map[geom.Point]bool {
	blocked := map[geom.Point]bool{}
	for y := 0; y < chip.H(); y++ {
		for x := 0; x < chip.W(); x++ {
			p := geom.Point{X: x, Y: y}
			in := chip.IsFaulty(p) || slices.Contains(req.ExtraBlocked, p)
			for _, r := range req.KeepOut {
				in = in || r.Contains(p)
			}
			for _, d := range req.AvoidDroplets {
				in = in || (abs(p.X-d.X) <= 1 && abs(p.Y-d.Y) <= 1)
			}
			blocked[p] = in
		}
	}
	return blocked
}

// randomTreeCase draws a chip of 1..maxSide cells a side with faults,
// keep-outs, droplet halos and extra blocked cells, and a source that
// is sometimes blocked and sometimes off the chip.
func randomTreeCase(rng *rand.Rand, maxSide int) (*fluidics.Chip, Request) {
	w, h := 1+rng.Intn(maxSide), 1+rng.Intn(maxSide)
	chip := fluidics.NewChip(w, h)
	cell := func() geom.Point { return geom.Point{X: rng.Intn(w), Y: rng.Intn(h)} }
	for i := rng.Intn(w*h/4 + 1); i > 0; i-- {
		if err := chip.InjectFault(cell()); err != nil {
			panic(err)
		}
	}
	var req Request
	for i := rng.Intn(3); i > 0; i-- {
		c := cell()
		req.KeepOut = append(req.KeepOut, geom.Rect{X: c.X - 1, Y: c.Y, W: 1 + rng.Intn(3), H: 1 + rng.Intn(3)})
	}
	for i := rng.Intn(3); i > 0; i-- {
		req.AvoidDroplets = append(req.AvoidDroplets, geom.Point{X: rng.Intn(w+2) - 1, Y: rng.Intn(h+2) - 1})
	}
	for i := rng.Intn(3); i > 0; i-- {
		req.ExtraBlocked = append(req.ExtraBlocked, cell())
	}
	req.From = cell()
	switch rng.Intn(12) {
	case 0:
		req.ExtraBlocked = append(req.ExtraBlocked, req.From) // blocked source
	case 1:
		req.From = geom.Point{X: -1, Y: rng.Intn(h)} // off the chip
	}
	return chip, req
}

// checkTree compares every answer of one tree against the references:
// PathTo for every cell (and two off-chip cells) in a random order,
// with Reached asked at a random point in between.
func checkTree(t *testing.T, tree *Tree, chip *fluidics.Chip, req Request, rng *rand.Rand) {
	t.Helper()
	targets := []geom.Point{{X: chip.W(), Y: 0}, {X: 0, Y: -1}}
	for y := 0; y < chip.H(); y++ {
		for x := 0; x < chip.W(); x++ {
			targets = append(targets, geom.Point{X: x, Y: y})
		}
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	reachedAt := rng.Intn(len(targets) + 1)
	tree.Reset(chip, req)
	for i, to := range targets {
		if i == reachedAt {
			checkReached(t, tree, chip, req)
		}
		q := req
		q.To = to
		want, werr := referenceRoute(chip, q)
		got, gerr := tree.PathTo(to)
		if fmt.Sprint(werr) != fmt.Sprint(gerr) || !slices.Equal(got, want) {
			t.Fatalf("%dx%d %+v: PathTo(%v) = %v, %v; reference %v, %v",
				chip.W(), chip.H(), req, to, got, gerr, want, werr)
		}
		if rp, rerr := Route(chip, q); fmt.Sprint(rerr) != fmt.Sprint(werr) || !slices.Equal(rp, want) {
			t.Fatalf("%dx%d %+v: Route to %v = %v, %v; reference %v, %v",
				chip.W(), chip.H(), req, to, rp, rerr, want, werr)
		}
	}
	if reachedAt == len(targets) {
		checkReached(t, tree, chip, req)
	}
}

func checkReached(t *testing.T, tree *Tree, chip *fluidics.Chip, req Request) {
	t.Helper()
	want := referenceReachable(chip, req)
	if got := tree.Reached(); !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%dx%d %+v: Reached = %v, reference %v", chip.W(), chip.H(), req, got, want)
	}
	if got := Reachable(chip, req); !slices.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("%dx%d %+v: Reachable = %v, reference %v", chip.W(), chip.H(), req, got, want)
	}
}

// TestTreeMatchesReference reuses one tree across random chips of
// changing size: every PathTo equals the one-query reference search,
// and Reached equals the reference flood fill, whenever it is asked.
func TestTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	var tree Tree
	for trial := 0; trial < 400; trial++ {
		chip, req := randomTreeCase(rng, 12)
		checkTree(t, &tree, chip, req, rng)
	}
}

// TestTreeResetClearsState grows a tree to completion on an open chip,
// then resets it on a walled chip of the same size and a smaller one:
// no cell seen or blocked before may leak into the new search.
func TestTreeResetClearsState(t *testing.T) {
	var tree Tree
	open := fluidics.NewChip(6, 4)
	tree.Reset(open, Request{From: geom.Point{X: 0, Y: 0}})
	if n := len(tree.Reached()); n != 24 {
		t.Fatalf("open 6x4 reached %d cells, want 24", n)
	}
	walled := fluidics.NewChip(6, 4)
	for y := 0; y < 4; y++ {
		if err := walled.InjectFault(geom.Point{X: 2, Y: y}); err != nil {
			t.Fatal(err)
		}
	}
	tree.Reset(walled, Request{From: geom.Point{X: 0, Y: 0}})
	if _, err := tree.PathTo(geom.Point{X: 5, Y: 3}); err == nil {
		t.Fatal("path through a fault wall after Reset")
	}
	if n := len(tree.Reached()); n != 8 {
		t.Fatalf("walled 6x4 reached %d cells, want 8", n)
	}
	tree.Reset(fluidics.NewChip(3, 2), Request{From: geom.Point{X: 2, Y: 1},
		ExtraBlocked: []geom.Point{{X: 1, Y: 1}}})
	got, err := tree.PathTo(geom.Point{X: 0, Y: 1})
	want := []geom.Point{{X: 2, Y: 1}, {X: 2, Y: 0}, {X: 1, Y: 0}, {X: 0, Y: 0}, {X: 0, Y: 1}}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("3x2 after reuse: %v, %v; want %v", got, err, want)
	}
	tree.Reset(fluidics.NewChip(3, 2), Request{From: geom.Point{X: 0, Y: 0}})
	if _, err := tree.PathTo(geom.Point{X: 1, Y: 1}); err != nil {
		t.Fatalf("extra blocked cell of the previous request leaked: %v", err)
	}
}

// FuzzRouteTree decodes a chip, a request and a query order from the
// input and holds one reused tree to the reference searches.
func FuzzRouteTree(f *testing.F) {
	f.Add(int64(1), uint8(8))
	f.Add(int64(7), uint8(1))
	f.Add(int64(42), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, side uint8) {
		rng := rand.New(rand.NewSource(seed))
		var tree Tree
		for i := 0; i < 3; i++ {
			chip, req := randomTreeCase(rng, 1+int(side%24))
			checkTree(t, &tree, chip, req, rng)
		}
	})
}
