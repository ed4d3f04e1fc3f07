package place

import (
	"testing"

	"dmfb/internal/geom"
)

// TestAppendActiveDuringMatchesActiveDuring cross-checks the
// allocation-free variant against the allocating one.
func TestAppendActiveDuringMatchesActiveDuring(t *testing.T) {
	mods := []Module{
		{ID: 0, Name: "A", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 1, Name: "B", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 3, End: 8}},
		{ID: 2, Name: "C", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 6, End: 9}},
		{ID: 3, Name: "D", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 9}},
	}
	p := New(mods)
	iv := geom.Interval{Start: 2, End: 7}
	for _, exclude := range [][]int{nil, {1}, {0, 3}, {0, 1, 2, 3}} {
		want := p.ActiveDuring(iv, exclude...)
		got := p.AppendActiveDuring(make([]int, 0, len(mods)), iv, exclude...)
		if len(got) != len(want) {
			t.Fatalf("exclude %v: got %v, want %v", exclude, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("exclude %v: got %v, want %v", exclude, got, want)
			}
		}
	}
}

// TestAppendActiveDuringZeroAlloc asserts the inner-loop variant does
// not allocate when the destination has capacity — the per-call
// map[int]bool of the old implementation is gone.
func TestAppendActiveDuringZeroAlloc(t *testing.T) {
	mods := make([]Module, 12)
	for i := range mods {
		mods[i] = Module{ID: i, Size: geom.Size{W: 2, H: 2},
			Span: geom.Interval{Start: i, End: i + 4}}
	}
	p := New(mods)
	dst := make([]int, 0, len(mods))
	iv := geom.Interval{Start: 3, End: 9}

	allocs := testing.AllocsPerRun(100, func() {
		dst = p.AppendActiveDuring(dst[:0], iv, 2, 7)
	})
	if allocs != 0 {
		t.Errorf("AppendActiveDuring allocated %.1f times per call, want 0", allocs)
	}
}

// TestStringGolden pins the exact String rendering; the
// strings.Builder rewrite must stay byte-identical to the historical
// string-concatenation output.
func TestStringGolden(t *testing.T) {
	mods := []Module{
		{ID: 0, Name: "M2", Size: geom.Size{W: 3, H: 2}, Span: geom.Interval{Start: 4, End: 9}},
		{ID: 1, Name: "M1", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 2, Name: "Mixer3", Size: geom.Size{W: 2, H: 4}, Span: geom.Interval{Start: 4, End: 12}},
	}
	p := New(mods)
	p.Pos[0] = geom.Point{X: 2, Y: 0}
	p.Pos[1] = geom.Point{X: 0, Y: 0}
	p.Pos[2] = geom.Point{X: 5, Y: 1}
	p.Rot[2] = true

	want := "placement: array 9x3 = 27 cells\n" +
		"  M1   [0,0 2x2] [0,5)\n" +
		"  M2   [2,0 3x2] [4,9)\n" +
		"  Mixer3 [5,1 4x2] [4,12)\n"
	if got := p.String(); got != want {
		t.Errorf("String() diverged:\ngot:\n%q\nwant:\n%q", got, want)
	}
}

func BenchmarkActiveDuring(b *testing.B) {
	mods := make([]Module, 16)
	for i := range mods {
		mods[i] = Module{ID: i, Size: geom.Size{W: 2, H: 2},
			Span: geom.Interval{Start: i, End: i + 5}}
	}
	p := New(mods)
	iv := geom.Interval{Start: 4, End: 11}

	b.Run("Alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = p.ActiveDuring(iv, 3, 9)
		}
	})
	b.Run("Append", func(b *testing.B) {
		b.ReportAllocs()
		dst := make([]int, 0, len(mods))
		for i := 0; i < b.N; i++ {
			dst = p.AppendActiveDuring(dst[:0], iv, 3, 9)
		}
	})
}
