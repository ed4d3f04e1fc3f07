package place

import (
	"fmt"
	"math/rand"
	"testing"

	"dmfb/internal/geom"
)

func randomModules(rng *rand.Rand, n int) []Module {
	mods := make([]Module, n)
	for i := range mods {
		start := rng.Intn(20)
		mods[i] = Module{
			ID:   i,
			Name: "M",
			Size: geom.Size{W: 1 + rng.Intn(5), H: 1 + rng.Intn(5)},
			Span: geom.Interval{Start: start, End: start + 1 + rng.Intn(10)},
		}
	}
	return mods
}

// denseModules returns n modules whose spans all start in [0,12) and
// last 6–15 steps, so most pairs conflict — the regime of the in-vitro
// assays, where a module has a dozen or more span conflicts.
func denseModules(rng *rand.Rand, n int) []Module {
	mods := make([]Module, n)
	for i := range mods {
		start := rng.Intn(12)
		mods[i] = Module{
			ID:   i,
			Name: "D",
			Size: geom.Size{W: 1 + rng.Intn(5), H: 1 + rng.Intn(5)},
			Span: geom.Interval{Start: start, End: start + 6 + rng.Intn(10)},
		}
	}
	return mods
}

// checkState asserts that every cached quantity of s equals its
// from-scratch value on p: overlap, bounding box, array cells and
// each module's rectangle.
func checkState(t *testing.T, ctx string, s *State, p *Placement) {
	t.Helper()
	if got, want := s.Overlap(), p.OverlapCells(); got != want {
		t.Fatalf("%s: overlap = %d, scratch %d", ctx, got, want)
	}
	if got, want := s.BoundingBox(), p.BoundingBox(); got != want {
		t.Fatalf("%s: bbox = %v, scratch %v", ctx, got, want)
	}
	if got, want := s.ArrayCells(), p.ArrayCells(); got != want {
		t.Fatalf("%s: cells = %d, scratch %d", ctx, got, want)
	}
	for i := range p.Modules {
		if got, want := s.Rect(i), p.Rect(i); got != want {
			t.Fatalf("%s: Rect(%d) = %v, scratch %v", ctx, i, got, want)
		}
	}
}

// TestStateDifferential drives State through long random move
// sequences and asserts, at every step, that the incrementally
// maintained overlap count, bounding box and module rectangles exactly
// equal the from-scratch values. Sparse rounds use 3–10 modules;
// dense rounds use 32 modules with a mean conflict degree of at least
// 12, as in the in-vitro assays.
func TestStateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const sparseRounds, denseRounds = 20, 6
	const movesPerRound = 600 // 26 × 600 = 15600 checked moves

	for round := 0; round < sparseRounds+denseRounds; round++ {
		var mods []Module
		if round < sparseRounds {
			mods = randomModules(rng, 3+rng.Intn(8))
		} else {
			mods = denseModules(rng, 32)
			if deg := 2 * len(ConflictPairs(mods)) / len(mods); deg < 12 {
				t.Fatalf("round %d: dense modules have mean degree %d, want ≥ 12", round, deg)
			}
		}
		p := New(mods)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(12), Y: rng.Intn(12)}
			p.Rot[i] = rng.Intn(2) == 0
		}
		s := NewState(p)
		checkState(t, fmt.Sprintf("round %d start", round), s, p)

		for mv := 0; mv < movesPerRound; mv++ {
			i := rng.Intn(len(mods))
			s.MoveModule(i, geom.Point{X: rng.Intn(14), Y: rng.Intn(14)}, rng.Intn(2) == 0)
			checkState(t, fmt.Sprintf("round %d move %d", round, mv), s, p)
		}
	}
}

// TestStateMoveRevert checks that Rollback undoes one or two staged
// moves exactly, restoring the incremental quantities and the
// placement, on a sparse and on a dense conflict set.
func TestStateMoveRevert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, mods := range [][]Module{randomModules(rng, 6), denseModules(rng, 32)} {
		p := New(mods)
		for i := range mods {
			p.Pos[i] = geom.Point{X: rng.Intn(10), Y: rng.Intn(10)}
		}
		s := NewState(p)

		for mv := 0; mv < 2000; mv++ {
			wantPos := append([]geom.Point(nil), p.Pos...)
			wantRot := append([]bool(nil), p.Rot...)
			wantOverlap, wantBB := s.Overlap(), s.BoundingBox()

			s.Begin()
			for range 1 + rng.Intn(2) {
				s.MoveModule(rng.Intn(len(mods)),
					geom.Point{X: rng.Intn(14), Y: rng.Intn(14)}, rng.Intn(2) == 0)
			}
			s.Rollback()

			if s.Overlap() != wantOverlap || s.BoundingBox() != wantBB {
				t.Fatalf("%d modules, move %d: rollback drifted: overlap %d→%d bbox %v→%v",
					len(mods), mv, wantOverlap, s.Overlap(), wantBB, s.BoundingBox())
			}
			checkPlacement(t, fmt.Sprintf("%d modules, move %d", len(mods), mv), p, wantPos, wantRot)
			checkState(t, fmt.Sprintf("%d modules, move %d", len(mods), mv), s, p)
		}
	}
}

// checkPlacement asserts that p holds exactly the given positions and
// orientations.
func checkPlacement(t *testing.T, ctx string, p *Placement, pos []geom.Point, rot []bool) {
	t.Helper()
	for i := range p.Modules {
		if p.Pos[i] != pos[i] || p.Rot[i] != rot[i] {
			t.Fatalf("%s: module %d at %v rot %v, want %v rot %v",
				ctx, i, p.Pos[i], p.Rot[i], pos[i], rot[i])
		}
	}
}

func TestStateRollbackWithoutBegin(t *testing.T) {
	s := NewState(New(randomModules(rand.New(rand.NewSource(3)), 3)))
	s.Begin()
	s.Commit()
	defer func() {
		if recover() == nil {
			t.Fatalf("Rollback after Commit did not panic")
		}
	}()
	s.Rollback()
}

// FuzzStateMoves decodes bytes into 1–12 modules and a sequence of
// steps, and checks every cached quantity of State against the
// from-scratch values after each. The first byte is the module count;
// six bytes per module follow (width, height, x, y, span start, span
// length with the rotation in its top bit); then three bytes per
// relocation: the module index in the low six bits, x with the
// rotation in its top bit, y. A relocation byte with bit 7 clear is a
// plain move. With bit 7 set the step opens the undo journal and
// stages the relocation, plus the next three bytes' relocation when
// bit 6 is also set; the top bit of the last y then commits the
// staged moves, and otherwise they are rolled back and the placement
// must be exactly as before. Missing bytes read as zero, so every
// prefix decodes.
func FuzzStateMoves(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 0, 0, 0, 4, 0, 5, 5})
	f.Add([]byte{2, 3, 3, 0, 0, 0, 5, 2, 2, 1, 1, 2, 0x85, 0, 7, 0x83, 1, 0x81, 0, 0})
	f.Add([]byte{3, 2, 2, 0, 0, 0, 6, 3, 1, 4, 4, 1, 5, 1, 3, 2, 2, 2, 4,
		0xc0, 9, 9, 0x02, 0x81, 0, 0x81, 3, 0x84, 0xc1, 1, 1, 2, 0, 12})
	f.Add([]byte{12,
		5, 5, 0, 0, 0, 9, 4, 2, 3, 3, 1, 0x88, 1, 1, 15, 15, 7, 7,
		2, 6, 8, 0, 0, 3, 6, 2, 4, 9, 2, 8, 3, 3, 3, 3, 5, 0x85,
		1, 4, 10, 10, 6, 6, 4, 1, 2, 12, 7, 3, 5, 5, 0, 1, 1, 8,
		6, 6, 11, 2, 0, 5, 2, 2, 13, 13, 3, 0x83, 3, 4, 0, 9, 4, 4,
		0x80, 20, 20, 1, 0x80, 0, 0x8b, 3, 3, 5, 9, 19, 11, 0, 0, 0x86, 0x92, 17,
		0xc4, 0x90, 2, 0x07, 1, 18, 0xca, 5, 5, 3, 0x8e, 0x81})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		mods := make([]Module, 1+at(0)%12)
		for i := range mods {
			b := 1 + 6*i
			st := at(b+4) % 8
			mods[i] = Module{
				ID:   i,
				Name: "F",
				Size: geom.Size{W: 1 + at(b)%6, H: 1 + at(b+1)%6},
				Span: geom.Interval{Start: st, End: st + 1 + at(b+5)%8},
			}
		}
		p := New(mods)
		for i := range mods {
			b := 1 + 6*i
			p.Pos[i] = geom.Point{X: at(b+2) % 20, Y: at(b+3) % 20}
			p.Rot[i] = at(b+5)&0x80 != 0
		}
		s := NewState(p)
		checkState(t, "start", s, p)

		move := func(b int) {
			x := at(b + 1)
			s.MoveModule((at(b)&0x3f)%len(mods),
				geom.Point{X: (x & 0x7f) % 20, Y: (at(b+2) & 0x7f) % 20}, x&0x80 != 0)
			checkState(t, fmt.Sprintf("byte %d: move", b), s, p)
		}
		for b := 1 + 6*len(mods); b < len(data); b += 3 {
			op := at(b)
			if op&0x80 == 0 {
				move(b)
				continue
			}
			wantPos := append([]geom.Point(nil), p.Pos...)
			wantRot := append([]bool(nil), p.Rot...)
			wantOverlap, wantBB := s.Overlap(), s.BoundingBox()
			s.Begin()
			move(b)
			if op&0x40 != 0 {
				b += 3
				move(b)
			}
			if at(b+2)&0x80 != 0 {
				s.Commit()
				checkState(t, fmt.Sprintf("byte %d: commit", b), s, p)
				continue
			}
			s.Rollback()
			if s.Overlap() != wantOverlap || s.BoundingBox() != wantBB {
				t.Fatalf("byte %d: rollback drifted: overlap %d→%d bbox %v→%v",
					b, wantOverlap, s.Overlap(), wantBB, s.BoundingBox())
			}
			checkPlacement(t, fmt.Sprintf("byte %d: rollback", b), p, wantPos, wantRot)
			checkState(t, fmt.Sprintf("byte %d: rollback", b), s, p)
		}
	})
}

func TestConflictAdjacency(t *testing.T) {
	mods := []Module{
		{ID: 0, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 1, Span: geom.Interval{Start: 3, End: 8}},
		{ID: 2, Span: geom.Interval{Start: 6, End: 9}},
	}
	adj := ConflictAdjacency(mods)
	want := [][]int{{1}, {0, 2}, {1}}
	for i := range want {
		if len(adj[i]) != len(want[i]) {
			t.Fatalf("adj[%d] = %v, want %v", i, adj[i], want[i])
		}
		for k := range want[i] {
			if adj[i][k] != want[i][k] {
				t.Fatalf("adj[%d] = %v, want %v", i, adj[i], want[i])
			}
		}
	}
}

func TestNewStatePanicsOnNegative(t *testing.T) {
	mods := randomModules(rand.New(rand.NewSource(1)), 2)
	p := New(mods)
	p.Pos[1] = geom.Point{X: -1, Y: 0}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewState accepted a negative position")
		}
	}()
	NewState(p)
}
