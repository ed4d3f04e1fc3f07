package emptyrect

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
)

func mustParse(t *testing.T, s string) *grid.Grid {
	t.Helper()
	g, err := grid.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func rectsEqual(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMaximalEmptyGrid(t *testing.T) {
	g := grid.New(5, 3)
	got := Maximal(g)
	want := []geom.Rect{{X: 0, Y: 0, W: 5, H: 3}}
	if !rectsEqual(got, want) {
		t.Fatalf("Maximal(empty) = %v, want %v", got, want)
	}
}

func TestMaximalFullGrid(t *testing.T) {
	g := grid.New(4, 4)
	g.SetRect(geom.Rect{X: 0, Y: 0, W: 4, H: 4}, true)
	if got := Maximal(g); len(got) != 0 {
		t.Fatalf("Maximal(full) = %v, want none", got)
	}
}

func TestMaximalSingleObstacle(t *testing.T) {
	// 3x3 grid with centre occupied: four 3x1/1x3 MERs.
	g := mustParse(t, `
		...
		.#.
		...`)
	got := Maximal(g)
	want := []geom.Rect{
		{X: 0, Y: 0, W: 1, H: 3},
		{X: 0, Y: 0, W: 3, H: 1},
		{X: 2, Y: 0, W: 1, H: 3},
		{X: 0, Y: 2, W: 3, H: 1},
	}
	if !rectsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaximalStaircasePattern(t *testing.T) {
	g := mustParse(t, `
		#..
		##.
		...`)
	got := Maximal(g)
	want := maximalBrute(g)
	if !rectsEqual(got, want) {
		t.Fatalf("fast %v != brute %v", got, want)
	}
	// The full bottom row and the right column must be among them.
	hasBottom, hasRight := false, false
	for _, r := range got {
		if r == (geom.Rect{X: 0, Y: 0, W: 3, H: 1}) {
			hasBottom = true
		}
		if r == (geom.Rect{X: 2, Y: 0, W: 1, H: 3}) {
			hasRight = true
		}
	}
	if !hasBottom || !hasRight {
		t.Fatalf("expected bottom row and right column MERs, got %v", got)
	}
}

func TestMaximalRowAndColumnSlits(t *testing.T) {
	// A plus-shaped free region.
	g := mustParse(t, `
		#.#
		...
		#.#`)
	got := Maximal(g)
	want := []geom.Rect{
		{X: 1, Y: 0, W: 1, H: 3},
		{X: 0, Y: 1, W: 3, H: 1},
	}
	if !rectsEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestMaximalPropertiesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		w, h := 1+rng.Intn(9), 1+rng.Intn(9)
		g := grid.New(w, h)
		density := rng.Float64()
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if rng.Float64() < density {
					g.Set(geom.Point{X: x, Y: y}, true)
				}
			}
		}
		fast := Maximal(g)
		brute := maximalBrute(g)
		if !rectsEqual(fast, brute) {
			t.Fatalf("trial %d: fast enumeration differs\ngrid:\n%s\nfast:  %v\nbrute: %v",
				trial, g, fast, brute)
		}
		seen := map[geom.Rect]bool{}
		for _, r := range fast {
			if seen[r] {
				t.Fatalf("duplicate MER %v", r)
			}
			seen[r] = true
			if !g.RectFree(r) {
				t.Fatalf("MER %v not free in\n%s", r, g)
			}
			if !isMaximal(g, r) {
				t.Fatalf("MER %v extensible in\n%s", r, g)
			}
		}
	}
}

// Property: every free cell belongs to at least one MER.
func TestEveryFreeCellCovered(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		w, h := 1+rng.Intn(10), 1+rng.Intn(10)
		g := grid.New(w, h)
		for i := 0; i < w*h/3; i++ {
			g.Set(geom.Point{X: rng.Intn(w), Y: rng.Intn(h)}, true)
		}
		mers := Maximal(g)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := geom.Point{X: x, Y: y}
				if g.Occupied(p) {
					continue
				}
				covered := false
				for _, r := range mers {
					if r.Contains(p) {
						covered = true
						break
					}
				}
				if !covered {
					t.Fatalf("free cell %v not in any MER for\n%s\nmers=%v", p, g, mers)
				}
			}
		}
	}
}

func BenchmarkMaximal16x16(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := grid.New(16, 16)
	for i := 0; i < 40; i++ {
		g.Set(geom.Point{X: rng.Intn(16), Y: rng.Intn(16)}, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Maximal(g)
	}
}

func BenchmarkMaximalBrute16x16(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := grid.New(16, 16)
	for i := 0; i < 40; i++ {
		g.Set(geom.Point{X: rng.Intn(16), Y: rng.Intn(16)}, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		maximalBrute(g)
	}
}

// maximalBrute is the exhaustive oracle of the miner tests: it
// examines every rectangle in the grid, keeps the free ones, and
// filters to those that cannot be extended by one cell in any
// direction. O(W³·H³); use only on small grids.
func maximalBrute(g *grid.Grid) []geom.Rect {
	var out []geom.Rect
	for y := 0; y < g.H(); y++ {
		for x := 0; x < g.W(); x++ {
			for hh := 1; y+hh <= g.H(); hh++ {
				for ww := 1; x+ww <= g.W(); ww++ {
					r := geom.Rect{X: x, Y: y, W: ww, H: hh}
					if !g.RectFree(r) {
						break // wider is not free either
					}
					if isMaximal(g, r) {
						out = append(out, r)
					}
				}
			}
		}
	}
	sortRects(out)
	return out
}

func isMaximal(g *grid.Grid, r geom.Rect) bool {
	grow := []geom.Rect{
		{X: r.X - 1, Y: r.Y, W: r.W + 1, H: r.H}, // left
		{X: r.X, Y: r.Y, W: r.W + 1, H: r.H},     // right
		{X: r.X, Y: r.Y - 1, W: r.W, H: r.H + 1}, // down
		{X: r.X, Y: r.Y, W: r.W, H: r.H + 1},     // up
	}
	for _, e := range grow {
		if g.RectFree(e) {
			return false
		}
	}
	return true
}
