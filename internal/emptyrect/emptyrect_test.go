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
	want := MaximalBrute(g)
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
		brute := MaximalBrute(g)
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

// accommodatesAvoiding reports whether a module footprint s can be
// placed inside some rectangle without covering the cell avoid, in
// either orientation: the MER form of the relocation test, which
// BestFitAvoiding must agree with.
func accommodatesAvoiding(rects []geom.Rect, s geom.Size, avoid geom.Point) bool {
	for _, r := range rects {
		for _, o := range orientations(s) {
			if fitsAvoiding(r, o, avoid) {
				return true
			}
		}
	}
	return false
}

// TestAccommodates checks plain fit (in either orientation) through
// accommodatesAvoiding with the avoided cell outside every rectangle.
func TestAccommodates(t *testing.T) {
	rects := []geom.Rect{{X: 0, Y: 0, W: 3, H: 5}, {X: 4, Y: 4, W: 2, H: 2}}
	outside := geom.Point{X: -1, Y: -1}
	cases := []struct {
		s    geom.Size
		want bool
	}{
		{geom.Size{W: 3, H: 5}, true},
		{geom.Size{W: 5, H: 3}, true}, // via rotation
		{geom.Size{W: 2, H: 2}, true},
		{geom.Size{W: 4, H: 4}, false},
		{geom.Size{W: 1, H: 6}, false},
		{geom.Size{W: 3, H: 4}, true},
	}
	for _, c := range cases {
		if got := accommodatesAvoiding(rects, c.s, outside); got != c.want {
			t.Errorf("accommodatesAvoiding(%v) = %v, want %v", c.s, got, c.want)
		}
	}
	if accommodatesAvoiding(nil, geom.Size{W: 1, H: 1}, outside) {
		t.Error("accommodatesAvoiding(nil) = true")
	}
}

func TestAccommodatesAvoiding(t *testing.T) {
	// One 3x3 MER; a 3x3 module fits only exactly, so any cell of the
	// MER is unavoidable; a 2x2 module can always dodge one cell.
	rects := []geom.Rect{{X: 2, Y: 2, W: 3, H: 3}}
	if accommodatesAvoiding(rects, geom.Size{W: 3, H: 3}, geom.Point{X: 3, Y: 3}) {
		t.Error("exact-fit module cannot avoid an interior cell")
	}
	if !accommodatesAvoiding(rects, geom.Size{W: 3, H: 3}, geom.Point{X: 0, Y: 0}) {
		t.Error("cell outside MER should not block")
	}
	// Every 2x2 placement inside a 3x3 covers the centre cell.
	if accommodatesAvoiding(rects, geom.Size{W: 2, H: 2}, geom.Point{X: 3, Y: 3}) {
		t.Error("2x2 in 3x3 cannot avoid the centre cell")
	}
	// A corner, however, can be dodged.
	if !accommodatesAvoiding(rects, geom.Size{W: 2, H: 2}, geom.Point{X: 2, Y: 2}) {
		t.Error("2x2 in 3x3 should avoid a corner")
	}
	// 2x3 in 3x3 avoiding centre: origins (2,2),(3,2) for 2x3 — both
	// cover y-range 2..4 and x-ranges {2,3},{3,4}: all cover (3,3)?
	// origin (2,2): covers x 2-3, y 2-4 -> covers (3,3). origin (3,2):
	// x 3-4 -> covers. Rotated 3x2: origins (2,2),(2,3): y 2-3 / 3-4,
	// x 2-4 -> both cover (3,3). So impossible.
	if accommodatesAvoiding(rects, geom.Size{W: 2, H: 3}, geom.Point{X: 3, Y: 3}) {
		t.Error("2x3 in 3x3 cannot avoid the centre cell")
	}
	// But avoiding a corner is possible.
	if !accommodatesAvoiding(rects, geom.Size{W: 2, H: 3}, geom.Point{X: 2, Y: 2}) {
		t.Error("2x3 in 3x3 should avoid a corner")
	}
}

// Property: accommodatesAvoiding agrees with explicit placement search.
func TestAccommodatesAvoidingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		r := geom.Rect{X: rng.Intn(4), Y: rng.Intn(4), W: 1 + rng.Intn(5), H: 1 + rng.Intn(5)}
		s := geom.Size{W: 1 + rng.Intn(5), H: 1 + rng.Intn(5)}
		avoid := geom.Point{X: rng.Intn(8), Y: rng.Intn(8)}
		want := false
		for _, o := range orientations(s) {
			if _, ok := placeAvoiding(r, o, avoid); ok && o.Fits(r.Size()) {
				want = true
			}
		}
		got := accommodatesAvoiding([]geom.Rect{r}, s, avoid)
		if got != want {
			t.Fatalf("accommodatesAvoiding(%v, %v, %v) = %v, want %v", r, s, avoid, got, want)
		}
	}
}

// TestBestFit checks the least-waste host choice through
// BestFitAvoiding with the avoided cell outside every rectangle.
func TestBestFit(t *testing.T) {
	rects := []geom.Rect{{X: 0, Y: 0, W: 6, H: 6}, {X: 7, Y: 0, W: 3, H: 4}}
	outside := geom.Point{X: -1, Y: -1}
	placed, ok := BestFitAvoiding(rects, geom.Size{W: 3, H: 4}, outside)
	if !ok {
		t.Fatal("BestFitAvoiding failed")
	}
	// The 3x4 host wastes 0 cells; must be chosen over the 6x6.
	if placed != (geom.Rect{X: 7, Y: 0, W: 3, H: 4}) {
		t.Fatalf("BestFitAvoiding = %v, want tight host", placed)
	}
	if _, ok := BestFitAvoiding(rects, geom.Size{W: 7, H: 7}, outside); ok {
		t.Fatal("BestFitAvoiding accepted an oversized module")
	}
}

func TestBestFitAvoiding(t *testing.T) {
	rects := []geom.Rect{{X: 0, Y: 0, W: 3, H: 3}}
	placed, ok := BestFitAvoiding(rects, geom.Size{W: 2, H: 2}, geom.Point{X: 0, Y: 0})
	if !ok {
		t.Fatal("BestFitAvoiding failed")
	}
	if placed.Contains(geom.Point{X: 0, Y: 0}) {
		t.Fatalf("placement %v covers the avoided cell", placed)
	}
	if _, ok := BestFitAvoiding(rects, geom.Size{W: 3, H: 3}, geom.Point{X: 1, Y: 1}); ok {
		t.Fatal("BestFitAvoiding accepted an impossible placement")
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
		MaximalBrute(g)
	}
}

// Property: BestFitAvoiding returns a free placement of the footprint
// that does not cover the avoided cell, and reports failure exactly
// when accommodatesAvoiding does.
func TestBestFitConsistencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		g := grid.New(1+rng.Intn(9), 1+rng.Intn(9))
		for i := 0; i < g.Cells()/3; i++ {
			g.Set(geom.Point{X: rng.Intn(g.W()), Y: rng.Intn(g.H())}, true)
		}
		mers := Maximal(g)
		s := geom.Size{W: 1 + rng.Intn(4), H: 1 + rng.Intn(4)}
		avoid := geom.Point{X: rng.Intn(g.W()+2) - 1, Y: rng.Intn(g.H()+2) - 1}
		placed, ok := BestFitAvoiding(mers, s, avoid)
		if ok != accommodatesAvoiding(mers, s, avoid) {
			t.Fatalf("BestFitAvoiding ok=%v disagrees with accommodatesAvoiding", ok)
		}
		if !ok {
			continue
		}
		if placed.Size() != s && placed.Size() != s.Transpose() {
			t.Fatalf("BestFitAvoiding returned wrong footprint %v for %v", placed.Size(), s)
		}
		if !g.RectFree(placed) || placed.Contains(avoid) {
			t.Fatalf("BestFitAvoiding placement %v not free or covers %v in\n%s", placed, avoid, g)
		}
	}
}
