package fti

import (
	"math/rand"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
)

// siteBrute is the oracle for Site: it tries every origin of both
// orientations with RectFree and scores each free site by walking the
// cells of the site grown by one in every direction, skipping the
// site itself and the four corners. The first site with the lowest
// score in (orientation, y, x) order wins.
func siteBrute(g *grid.Grid, s geom.Size) (site geom.Rect, score int, ok bool) {
	for k, o := range []geom.Size{s, s.Transpose()} {
		if k == 1 && o == s {
			break
		}
		for y := 0; y+o.H <= g.H(); y++ {
			for x := 0; x+o.W <= g.W(); x++ {
				r := geom.Rect{X: x, Y: y, W: o.W, H: o.H}
				if !g.RectFree(r) {
					continue
				}
				n := ringFree(g, r)
				if !ok || n < score {
					site, score, ok = r, n, true
				}
			}
		}
	}
	return site, score, ok
}

func ringFree(g *grid.Grid, r geom.Rect) int {
	n := 0
	for y := r.Y - 1; y <= r.MaxY(); y++ {
		for x := r.X - 1; x <= r.MaxX(); x++ {
			inX, inY := x >= r.X && x < r.MaxX(), y >= r.Y && y < r.MaxY()
			if inX != inY && g.Free(geom.Point{X: x, Y: y}) {
				n++
			}
		}
	}
	return n
}

// checkSite fails unless Site agrees with siteBrute on g and s, and
// its site is a free, in-grid rectangle of the footprint.
func checkSite(t *testing.T, g *grid.Grid, s geom.Size) (geom.Rect, bool) {
	t.Helper()
	got, ok := Site(g, s)
	want, score, wantOK := siteBrute(g, s)
	if ok != wantOK {
		t.Fatalf("Site(%v) ok=%v, oracle %v on %dx%d grid\n%s", s, ok, wantOK, g.W(), g.H(), g)
	}
	if !ok {
		return got, false
	}
	if got.Size() != s && got.Size() != s.Transpose() {
		t.Fatalf("Site(%v) = %v: wrong footprint", s, got)
	}
	if !g.RectFree(got) {
		t.Fatalf("Site(%v) = %v: not free and inside the %dx%d grid\n%s", s, got, g.W(), g.H(), g)
	}
	if n := ringFree(g, got); got != want || n != score {
		t.Fatalf("Site(%v) = %v (border %d), oracle %v (border %d) on %dx%d grid\n%s",
			s, got, n, want, score, g.W(), g.H(), g)
	}
	return got, true
}

// TestSiteMatchesBrute differentially checks Site against the oracle
// on random grids 1–140 cells wide, so rows take one, two or three
// words, with footprints that are small, square, or nearly as wide as
// the grid in either orientation.
func TestSiteMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var found, rotated int
	words := map[int]bool{}
	for trial := 0; trial < 3000; trial++ {
		w := 1 + rng.Intn(64) + 64*(trial%3)
		if w > 140 {
			w = 129 + rng.Intn(12)
		}
		h := 1 + rng.Intn(8)
		words[grid.WordsPerRow(w)] = true
		g := grid.New(w, h)
		for i, n := 0, rng.Intn(6); i < n; i++ {
			g.SetRect(geom.Rect{X: rng.Intn(w), Y: rng.Intn(h), W: 1 + rng.Intn(w), H: 1 + rng.Intn(h)}, true)
		}
		for i, n := 0, rng.Intn(w*h/4+1); i < n; i++ {
			g.Set(geom.Point{X: rng.Intn(w), Y: rng.Intn(h)}, true)
		}
		s := geom.Size{W: 1 + rng.Intn(4), H: 1 + rng.Intn(4)}
		switch rng.Intn(4) {
		case 0: // as wide as the grid, or nearly, in either orientation
			s.W = w - rng.Intn(min(w, 6))
		case 1:
			s.H = w - rng.Intn(min(w, 6))
		}
		if r, ok := checkSite(t, g, s); ok {
			found++
			if r.Size() != s {
				rotated++
			}
		}
	}
	if len(words) != 3 || found < 500 || rotated < 50 {
		t.Fatalf("weak coverage: row word counts %v, %d sites found, %d rotated", words, found, rotated)
	}
}

// TestSiteRule pins the choice on hand-built grids: the tightest site
// wins over a roomier one, equal scores go to the lower row and to the
// footprint before its transpose, and occupied cells block.
func TestSiteRule(t *testing.T) {
	// A wall at x = 6 closes a 3-wide bay on the right: a 3×4 site
	// there borders 3 free cells, against 7 in the open 6×6 region.
	// The bay's two rows tie at 3; the lower wins.
	g := grid.New(10, 6)
	g.SetRect(geom.Rect{X: 6, Y: 0, W: 1, H: 6}, true)
	if got, _ := checkSite(t, g, geom.Size{W: 3, H: 4}); got != (geom.Rect{X: 7, Y: 0, W: 3, H: 4}) {
		t.Errorf("bay site = %v, want [7,0 3x4]", got)
	}
	// On an empty 4×4 grid the 2×1 corner site and its 1×2 transpose
	// both border 3 free cells; the footprint as given wins.
	if got, _ := checkSite(t, grid.New(4, 4), geom.Size{W: 2, H: 1}); got != (geom.Rect{X: 0, Y: 0, W: 2, H: 1}) {
		t.Errorf("tie site = %v, want [0,0 2x1]", got)
	}
	// A fault at the centre of a 3×3 grid leaves no 2×2 site; a 3×3
	// footprint fits nowhere either.
	g = grid.New(3, 3)
	g.Set(geom.Point{X: 1, Y: 1}, true)
	for _, s := range []geom.Size{{W: 2, H: 2}, {W: 3, H: 3}, {W: 4, H: 1}} {
		if r, ok := checkSite(t, g, s); ok {
			t.Errorf("Site(%v) = %v on a grid with no free site", s, r)
		}
	}
}

// FuzzSite differentially fuzzes Site against the oracle on grids up
// to 140×8 cells, built from two dimension bytes, two footprint bytes
// and then occupied rectangles of four bytes each (x, y, w, h).
// Missing bytes read as zero, so every prefix decodes. checkSite
// asserts that a returned site is free, inside the grid and of the
// footprint, that one exists iff the oracle finds one, and that the
// chosen site and its border score equal the oracle's.
func FuzzSite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 5, 2, 3, 6, 0, 0, 5})
	f.Add([]byte{69, 3, 66, 1, 64, 1, 0, 0})
	f.Add([]byte{139, 7, 1, 130, 10, 2, 50, 3, 100, 0, 20, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		w, h := 1+at(0)%140, 1+at(1)%8
		g := grid.New(w, h)
		for b := 4; b < len(data); b += 4 {
			g.SetRect(geom.Rect{X: at(b) % w, Y: at(b+1) % h, W: 1 + at(b+2)%w, H: 1 + at(b+3)%h}, true)
		}
		checkSite(t, g, geom.Size{W: 1 + at(2)%(w+1), H: 1 + at(3)%(max(w, h)+1)})
	})
}
