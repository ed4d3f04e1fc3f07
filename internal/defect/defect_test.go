package defect

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dmfb/internal/geom"
)

// TestUniformMatchesHistoricalDraws pins the uniform generator to the
// historical yield-trial stream: one Float64 per cell in y-major scan
// order. YieldTrial delegates to this generator, so any drift here
// breaks every recorded uniform yield campaign.
func TestUniformMatchesHistoricalDraws(t *testing.T) {
	array := geom.Rect{X: 0, Y: 0, W: 9, H: 7}
	for _, prob := range []float64{0.01, 0.05, 0.3} {
		got := Uniform{Prob: prob}.Generate(array, rand.New(rand.NewSource(42)))

		rng := rand.New(rand.NewSource(42))
		var want []geom.Point
		for y := 0; y < array.H; y++ {
			for x := 0; x < array.W; x++ {
				if rng.Float64() < prob {
					want = append(want, geom.Point{X: array.X + x, Y: array.Y + y})
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("prob %g: %d defects, historical loop drew %d", prob, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("prob %g: defect %d is %v, historical loop drew %v", prob, i, got[i], want[i])
			}
		}
	}
}

func checkCanonical(t *testing.T, array geom.Rect, cells []geom.Point) {
	t.Helper()
	for i, c := range cells {
		if !array.Contains(c) {
			t.Fatalf("defect %v outside array %v", c, array)
		}
		if i == 0 {
			continue
		}
		prev := cells[i-1]
		if c.Y < prev.Y || (c.Y == prev.Y && c.X <= prev.X) {
			t.Fatalf("cells not in strict scan order: %v after %v", c, prev)
		}
	}
}

func TestClusteredDeterministicAndCanonical(t *testing.T) {
	array := geom.Rect{X: 0, Y: 0, W: 12, H: 10}
	gen := Clustered{Prob: 0.05, ClusterSize: 4, Radius: 2}
	a := gen.Generate(array, rand.New(rand.NewSource(9)))
	b := gen.Generate(array, rand.New(rand.NewSource(9)))
	if len(a) != len(b) {
		t.Fatalf("same seed drew %d and %d defects", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed drew different maps at %d: %v vs %v", i, a[i], b[i])
		}
	}
	checkCanonical(t, array, a)
}

// TestClusteredMeanDensity checks the cluster rate compensation: the
// mean defect density over many dies must track Prob, not
// Prob*ClusterSize.
func TestClusteredMeanDensity(t *testing.T) {
	array := geom.Rect{X: 0, Y: 0, W: 20, H: 20}
	const prob = 0.03
	gen := Clustered{Prob: prob, ClusterSize: 4, Radius: 2}
	rng := rand.New(rand.NewSource(5))
	total := 0
	const dies = 2000
	for i := 0; i < dies; i++ {
		total += len(gen.Generate(array, rng))
	}
	mean := float64(total) / float64(dies) / float64(array.Cells())
	// Dedup and edge clipping push the density slightly below Prob;
	// an empirical mean in [prob/2, 1.2*prob] means the rate is
	// compensated (uncompensated would sit near ClusterSize*prob).
	if mean < prob/2 || mean > 1.2*prob {
		t.Errorf("mean density %.4f not tracking prob %.4f", mean, prob)
	}
}

func TestClusteredZeroProb(t *testing.T) {
	array := geom.Rect{X: 0, Y: 0, W: 8, H: 8}
	if got := (Clustered{Prob: 0, ClusterSize: 4, Radius: 2}).Generate(array, rand.New(rand.NewSource(1))); len(got) != 0 {
		t.Errorf("zero prob drew %d defects", len(got))
	}
}

func TestParseMapRoundTrip(t *testing.T) {
	text := "# die 24\n..........\n..X....X..\n.....x....\n..........\n"
	f, err := ParseMap(text)
	if err != nil {
		t.Fatal(err)
	}
	if f.W != 10 || f.H != 4 {
		t.Fatalf("parsed %dx%d, want 10x4", f.W, f.H)
	}
	want := []geom.Point{{X: 2, Y: 1}, {X: 7, Y: 1}, {X: 5, Y: 2}}
	if len(f.Cells) != len(want) {
		t.Fatalf("parsed %d defects, want %d", len(f.Cells), len(want))
	}
	for i := range want {
		if f.Cells[i] != want[i] {
			t.Fatalf("defect %d is %v, want %v", i, f.Cells[i], want[i])
		}
	}
	back, err := ParseMap(FormatMap(f))
	if err != nil {
		t.Fatal(err)
	}
	if back.W != f.W || back.H != f.H || len(back.Cells) != len(f.Cells) {
		t.Fatalf("roundtrip changed the map: %+v vs %+v", back, f)
	}
	for i := range f.Cells {
		if back.Cells[i] != f.Cells[i] {
			t.Fatalf("roundtrip changed defect %d: %v vs %v", i, back.Cells[i], f.Cells[i])
		}
	}
}

func TestParseMapErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"empty", "", "no rows"},
		{"comments only", "# nothing\n\n", "no rows"},
		{"ragged", "....\n...\n", "want 4"},
		{"invalid cell", "..?.\n", "invalid cell"},
		{"too wide", strings.Repeat(".", MaxMapDim+1) + "\n", "exceeds"},
	}
	for _, c := range cases {
		if _, err := ParseMap(c.text); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestFixedGenerateAnchorsAndClips(t *testing.T) {
	f := Fixed{W: 4, H: 4, Cells: []geom.Point{{X: 1, Y: 1}, {X: 3, Y: 3}}}
	array := geom.Rect{X: 2, Y: 5, W: 3, H: 3} // smaller than the map: (3,3) clips
	got := f.Generate(array, nil)
	want := []geom.Point{{X: 3, Y: 6}}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("Generate = %v, want %v", got, want)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		pr   Params
		ok   bool
	}{
		{"zero value normalized (default uniform)", Params{}.Normalized(), true},
		{"uniform with a map", Params{Model: ModelUniform, Prob: 0.05, Map: "X.\n"}, false},
		{"uniform", Params{Model: ModelUniform, Prob: 0.05}, true},
		{"uniform prob too high", Params{Model: ModelUniform, Prob: 1}, false},
		{"uniform prob negative", Params{Model: ModelUniform, Prob: -0.1}, false},
		{"clustered", Params{Model: ModelClustered, Prob: 0.02, ClusterSize: 4, ClusterRadius: 2}, true},
		{"clustered bad size", Params{Model: ModelClustered, Prob: 0.02, ClusterSize: 100}, false},
		{"clustered bad radius", Params{Model: ModelClustered, Prob: 0.02, ClusterRadius: 100}, false},
		{"file", Params{Model: ModelFile, Map: "..X.\n....\n"}, true},
		{"file without map", Params{Model: ModelFile}, false},
		{"file with bad map", Params{Model: ModelFile, Map: "..?\n"}, false},
		{"unknown model", Params{Model: "salt-and-pepper"}, false},
	}
	for _, c := range cases {
		err := c.pr.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
		if gen, gerr := c.pr.Generator(); (gerr == nil) != c.ok {
			t.Errorf("%s: Generator() = %v, want ok=%v", c.name, gerr, c.ok)
		} else if c.ok && gen == nil {
			t.Errorf("%s: Generator() returned nil without error", c.name)
		}
	}
	// Validate checks the values as given; Generator normalizes first,
	// so the zero value is the default uniform model there only.
	if err := (Params{}).Validate(); err == nil {
		t.Error("raw zero value validated; an unset model must be rejected")
	}
	if _, err := (Params{}).Generator(); err != nil {
		t.Errorf("zero value Generator() = %v, want the default uniform model", err)
	}
	// Likewise a zero cluster radius: raw it is rejected (the wire
	// format cannot ask for it), normalized it is the default radius.
	zeroRadius := Params{Model: ModelClustered, Prob: 0.02, ClusterSize: 4}
	if err := zeroRadius.Validate(); err == nil {
		t.Error("raw cluster radius 0 validated; it would run the default radius")
	}
	if _, err := zeroRadius.Generator(); err != nil {
		t.Errorf("zero-radius Generator() = %v, want the default radius", err)
	}
}

func TestFingerprintPartsDistinguishModels(t *testing.T) {
	key := func(pr Params) string { return fmt.Sprintf("%v", pr.FingerprintParts()) }
	a := key(Params{Model: ModelUniform, Prob: 0.02})
	b := key(Params{Model: ModelClustered, Prob: 0.02})
	c := key(Params{Model: ModelClustered, Prob: 0.02, ClusterSize: 8})
	d := key(Params{Model: ModelFile, Map: "X.\n..\n"})
	if a == b || b == c || c == d || a == d {
		t.Errorf("fingerprint parts collide: %q %q %q %q", a, b, c, d)
	}
}
