package pcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"dmfb/internal/assay"
	"dmfb/internal/core"
	"dmfb/internal/geom"
	"dmfb/internal/invitro"
	"dmfb/internal/modlib"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
	"dmfb/internal/telemetry"
)

// Golden fingerprints for the paper's two reference assays. These pin
// the canonical encoding: if either changes, every cache entry in the
// wild silently misses, so a change here must be deliberate (and must
// bump the "pcache/v3" version string).
const (
	goldenPCRKey     = Key("60b0ef1a1418e30272808908cb5539bc29a6e8d956694e96934c5e9c7cc464ba")
	goldenInvitroKey = Key("ed2926aff6df9672d5f98c6fb57541e2040e748cdf1da8e2b23ff5600e395bfa")
)

func pcrInput(t testing.TB) Input {
	t.Helper()
	s, err := pcr.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	return Input{
		Schedule: s,
		Library:  modlib.Table1(),
		Problem:  core.FromSchedule(s),
		Placer:   "sa",
		Options:  core.Options{Seed: 1},
	}
}

func invitroInput(t testing.TB) Input {
	t.Helper()
	s := invitro.MustSynthesize(2, 2, 0)
	return Input{
		Schedule: s,
		Library:  modlib.Table1(),
		Problem:  core.FromSchedule(s),
		Placer:   "twostage",
		Options:  core.Options{Seed: 1},
		FT:       core.FTOptions{Beta: 30},
	}
}

func TestFingerprintGolden(t *testing.T) {
	if got := Fingerprint(pcrInput(t)); got != goldenPCRKey {
		t.Errorf("PCR fingerprint = %s, want %s", got, goldenPCRKey)
	}
	if got := Fingerprint(invitroInput(t)); got != goldenInvitroKey {
		t.Errorf("in-vitro fingerprint = %s, want %s", got, goldenInvitroKey)
	}
}

// TestFingerprintCanonicalization: zero-valued options and their
// explicit paper defaults must hash identically, and telemetry sinks
// must not participate in the key.
func TestFingerprintCanonicalization(t *testing.T) {
	base := pcrInput(t)
	key := Fingerprint(base)

	explicit := base
	explicit.Options = core.Options{Seed: 1}.Canonicalized()
	if got := Fingerprint(explicit); got != key {
		t.Errorf("explicit-default options changed the key: %s vs %s", got, key)
	}

	observed := base
	observed.Options.Tracer = telemetry.New(io.Discard)
	if got := Fingerprint(observed); got != key {
		t.Errorf("attaching a Tracer changed the key")
	}

	// Workers only caps concurrency — the multi-start winner is
	// byte-identical at any worker count, so Workers must never split
	// a key; "no search options" and "one start" mean the same run.
	workers := base
	workers.Options.Search.Workers = 7
	if got := Fingerprint(workers); got != key {
		t.Errorf("Search.Workers changed the key")
	}
	oneStart := base
	oneStart.Options.Search.Starts = 1
	if got := Fingerprint(oneStart); got != key {
		t.Errorf("Search.Starts=1 changed the key of a single-start run")
	}

	// FT options are irrelevant to single-stage placers...
	ft := base
	ft.FT = core.FTOptions{Beta: 99}
	if got := Fingerprint(ft); got != key {
		t.Errorf("FT options changed a non-twostage key")
	}
	// ...but do participate for twostage.
	ts1, ts2 := invitroInput(t), invitroInput(t)
	ts2.FT.Beta = 60
	if Fingerprint(ts1) == Fingerprint(ts2) {
		t.Errorf("twostage beta mutation did not change the key")
	}
}

// TestFingerprintMutations: every placement-relevant mutation of the
// input must produce a distinct key. Mutations are to non-default
// values, since canonicalization deliberately folds zero → default.
func TestFingerprintMutations(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Input)
	}{
		{"placer", func(in *Input) { in.Placer = "greedy" }},
		{"seed", func(in *Input) { in.Options.Seed = 2 }},
		{"alpha", func(in *Input) { in.Options.Alpha = 0.95 }},
		{"iters", func(in *Input) { in.Options.ItersPerModule = 100 }},
		{"psingle", func(in *Input) { in.Options.PSingle = 0.5 }},
		{"window_t0", func(in *Input) { in.Options.WindowT0 = 77 }},
		{"patience", func(in *Input) { in.Options.WindowPatience = 3 }},
		{"starts", func(in *Input) { in.Options.Search.Starts = 8 }},
		{"search_seed", func(in *Input) { in.Options.Search.Seed = 5 }},
		{"twostage", func(in *Input) { in.Placer = "twostage" }},
		{"twostage_beta", func(in *Input) { in.Placer, in.FT.Beta = "twostage", 60 }},
		{"array_w", func(in *Input) { in.Problem.MaxW++ }},
		{"array_h", func(in *Input) { in.Problem.MaxH++ }},
		{"obstacle", func(in *Input) {
			in.Problem.Obstacles = append(in.Problem.Obstacles, geom.Point{X: 1, Y: 1})
		}},
		{"module_size", func(in *Input) { in.Problem.Modules[0].Size.W++ }},
		{"module_span", func(in *Input) { in.Problem.Modules[0].Span.End++ }},
		{"schedule_span", func(in *Input) { in.Schedule.Items[2].Span.End++ }},
		{"schedule_device", func(in *Input) {
			for i := range in.Schedule.Items {
				if in.Schedule.Items[i].Bound {
					in.Schedule.Items[i].Device.Name = "other"
					return
				}
			}
			t.Fatal("no bound item to mutate")
		}},
		{"library_device", func(in *Input) {
			lib, err := modlib.NewLibrary(modlib.Device{
				Name: "mixer-tiny", Kind: assay.Mix,
				Size: geom.Size{W: 2, H: 2}, Duration: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			in.Library = lib
		}},
		{"no_schedule", func(in *Input) { in.Schedule = nil }},
		{"no_library", func(in *Input) { in.Library = nil }},
	}

	seen := map[Key]string{Fingerprint(pcrInput(t)): "base"}
	for _, m := range mutations {
		in := pcrInput(t) // fresh input: mutations must not accumulate
		m.mut(&in)
		key := Fingerprint(in)
		if prev, dup := seen[key]; dup {
			t.Errorf("mutation %q collides with %q: %s", m.name, prev, key)
		}
		seen[key] = m.name
	}
}

// BenchmarkFingerprint times one key of each reference assay, as the
// server computes on every compile before it can look the cache up.
func BenchmarkFingerprint(b *testing.B) {
	ins := []Input{pcrInput(b), invitroInput(b)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = Fingerprint(ins[i%2])
	}
}

var keySink Key

// fmtFingerprint is the reference encoder Fingerprint must match byte
// for byte: the canonical lines written with fmt verbs straight into
// the hash.
func fmtFingerprint(in Input) Key {
	h := sha256.New()
	fmt.Fprintln(h, "dmfb pcache/v3")
	fmt.Fprintf(h, "placer %s\n", in.Placer)

	if s := in.Schedule; s != nil {
		fmt.Fprintf(h, "graph %q makespan=%d\n", s.Graph.Name, s.Makespan)
		for _, op := range s.Graph.Ops() {
			fmt.Fprintf(h, "op %d %q %s %q\n", op.ID, op.Name, op.Kind, op.Fluid)
			for _, succ := range s.Graph.Succ(op.ID) {
				fmt.Fprintf(h, "edge %d %d\n", op.ID, succ)
			}
		}
		for i, it := range s.Items {
			dev := ""
			if it.Bound {
				dev = it.Device.Name
			}
			fmt.Fprintf(h, "item %d [%d,%d) bound=%t dev=%q\n",
				i, it.Span.Start, it.Span.End, it.Bound, dev)
		}
	}
	if in.Library != nil {
		devs := in.Library.Devices()
		sort.Slice(devs, func(a, b int) bool { return devs[a].Name < devs[b].Name })
		for _, d := range devs {
			fmt.Fprintf(h, "lib %q %s %dx%d %ds\n", d.Name, d.Kind, d.Size.W, d.Size.H, d.Duration)
		}
	}

	fmt.Fprintf(h, "core %dx%d\n", in.Problem.MaxW, in.Problem.MaxH)
	for _, m := range in.Problem.Modules {
		fmt.Fprintf(h, "module %d %q %dx%d [%d,%d)\n",
			m.ID, m.Name, m.Size.W, m.Size.H, m.Span.Start, m.Span.End)
	}
	for _, o := range in.Problem.Obstacles {
		fmt.Fprintf(h, "obstacle %d,%d\n", o.X, o.Y)
	}

	fmtWriteOptions(h, in.Options.Canonicalized())
	if in.Placer == "twostage" {
		fmt.Fprintf(h, "ft beta=%g\n", in.FT.Beta)
	}
	return Key(hex.EncodeToString(h.Sum(nil)))
}

func fmtWriteOptions(w io.Writer, o core.Options) {
	fmt.Fprintf(w, "opts seed=%d alpha=%g iters=%d psingle=%g wt0=%g patience=%d\n",
		o.Seed, o.Alpha, o.ItersPerModule, o.PSingle, o.WindowT0, o.WindowPatience)
	fmt.Fprintf(w, "search starts=%d seed=%d\n", o.Search.Starts, o.Search.Seed)
}

// TestFingerprintMatchesFmt: the strconv encoder hashes exactly the
// lines the fmt reference writes, on the reference assays and on
// inputs that exercise every line kind.
func TestFingerprintMatchesFmt(t *testing.T) {
	invitro3 := func(t testing.TB) Input {
		s := invitro.MustSynthesize(3, 3, 0)
		return Input{Schedule: s, Library: modlib.Table1(), Problem: core.FromSchedule(s),
			Placer: "sa", Options: core.Options{Seed: 3}}
	}
	cases := []struct {
		name string
		in   func(testing.TB) Input
	}{
		{"pcr", pcrInput},
		{"invitro_2x2_twostage", invitroInput},
		{"invitro_3x3", invitro3},
		{"pcr_twostage", func(t testing.TB) Input {
			in := pcrInput(t)
			in.Placer = "twostage"
			in.FT = core.FTOptions{Beta: 40}
			return in
		}},
		{"obstacles", func(t testing.TB) Input {
			in := pcrInput(t)
			in.Problem.Obstacles = []geom.Point{{X: 1, Y: 2}, {X: 0, Y: 7}, {X: -3, Y: 11}}
			return in
		}},
		{"library", func(t testing.TB) Input {
			in := invitro3(t)
			lib, err := modlib.NewLibrary(
				modlib.Device{Name: "zeta \"quoted\"", Kind: assay.Detect, Size: geom.Size{W: 1, H: 1}, Duration: 30},
				modlib.Device{Name: "alpha\tmixer", Kind: assay.Mix, Size: geom.Size{W: 2, H: 4}, Duration: 6},
			)
			if err != nil {
				t.Fatal(err)
			}
			in.Library = lib
			return in
		}},
		{"options", func(t testing.TB) Input {
			in := invitroInput(t)
			in.Options = core.Options{Seed: -1, Alpha: 0.95, ItersPerModule: 123,
				PSingle: 0.3, WindowT0: 1e21, WindowPatience: 3,
				Search: place.SearchOptions{Starts: 4, Seed: -7, Workers: 3}}
			in.FT = core.FTOptions{Beta: 1.0 / 3}
			return in
		}},
		{"bare_problem", func(t testing.TB) Input {
			in := pcrInput(t)
			in.Schedule, in.Library = nil, nil
			return in
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.in(t)
			if got, want := Fingerprint(in), fmtFingerprint(in); got != want {
				t.Errorf("Fingerprint = %s, fmt reference = %s", got, want)
			}
		})
	}
}

// FuzzFingerprint feeds names with quotes and invalid UTF-8, extreme
// integers and non-finite or negative-zero options through both
// encoders and requires equal keys.
func FuzzFingerprint(f *testing.F) {
	f.Add("M1", "sample", 2, int64(1), 3, 10000.0, 30.0, true)
	f.Add(`he said "hi"\`, "\xff\xfe\x00", -1, int64(math.MinInt64), math.MaxInt, math.Inf(1), math.NaN(), false)
	f.Add("\u2603\n", "", 99, int64(math.MaxInt64), math.MinInt, math.Inf(-1), math.Copysign(0, -1), true)
	f.Add("", "\x80", 0, int64(-5), 0, 5e-324, 1.7976931348623157e308, false)
	f.Fuzz(func(t *testing.T, name, fluid string, kind int, n int64, x int, f1, f2 float64, twostage bool) {
		g := &assay.Graph{Name: name}
		a := g.AddOp(name, assay.OpKind(kind), fluid)
		b := g.AddOp(fluid, assay.Mix, name)
		if err := g.AddEdge(a, b); err != nil {
			t.Fatal(err)
		}
		span := geom.Interval{Start: x, End: int(n)}
		size := geom.Size{W: x, H: int(n)}
		s := &schedule.Schedule{Graph: g, Makespan: x, Items: []schedule.Item{
			{Op: g.Op(a), Device: modlib.Device{Name: name, Kind: assay.OpKind(kind), Size: size}, Span: span, Bound: true},
			{Op: g.Op(b), Device: modlib.Device{Name: fluid}, Span: span},
		}}
		in := Input{
			Schedule: s,
			Problem: core.Problem{MaxW: x, MaxH: int(n),
				Modules:   []place.Module{{ID: x, Name: fluid, Size: size, Span: span}},
				Obstacles: []geom.Point{{X: x, Y: int(n)}}},
			Placer: name,
			Options: core.Options{Seed: n, Alpha: f2, ItersPerModule: x, PSingle: -f1,
				WindowT0: -f2, WindowPatience: -x,
				Search: place.SearchOptions{Starts: x, Seed: -n}},
			FT: core.FTOptions{Beta: f1},
		}
		if twostage {
			in.Placer = "twostage"
		}
		if lib, err := modlib.NewLibrary(
			modlib.Device{Name: name, Kind: assay.OpKind(kind), Size: geom.Size{W: 2, H: 3}, Duration: x},
			modlib.Device{Name: fluid + "\x00", Kind: assay.Store, Size: geom.Size{W: 1, H: 1}, Duration: 1},
		); err == nil {
			in.Library = lib
		}
		if got, want := Fingerprint(in), fmtFingerprint(in); got != want {
			t.Fatalf("Fingerprint = %s, fmt reference = %s", got, want)
		}
	})
}
