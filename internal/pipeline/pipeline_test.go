package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/format"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/pcache"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/router"
	"dmfb/internal/sim"
	"dmfb/internal/telemetry"
)

// TestRunParity: the pipeline must produce bit-identical results to
// the direct library calls it replaced in the CLIs.
func TestRunParity(t *testing.T) {
	res, err := Run(context.Background(), Request{
		Synth: &SynthSpec{Assay: "pcr"},
		Place: &PlaceSpec{Placer: "sa", Options: core.Options{Seed: 1}},
		FTI:   &FTISpec{},
	})
	if err != nil {
		t.Fatal(err)
	}

	s, err := pcr.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := core.AnnealArea(core.FromSchedule(s), core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.String() != direct.String() {
		t.Errorf("pipeline placement differs from direct AnnealArea:\n%s\nvs\n%s",
			res.Placement, direct)
	}
	if got, want := res.FTI.FTI(), fti.Compute(direct).FTI(); got != want {
		t.Errorf("pipeline FTI %v != direct %v", got, want)
	}
	if res.Schedule.Makespan != s.Makespan {
		t.Errorf("makespan %d != %d", res.Schedule.Makespan, s.Makespan)
	}
}

// TestRunTelemetryInert: attaching telemetry sinks must not change the
// placement (anneal telemetry never touches the RNG).
func TestRunTelemetryInert(t *testing.T) {
	req := Request{
		Synth: &SynthSpec{Assay: "pcr"},
		Place: &PlaceSpec{Placer: "twostage", Options: core.Options{Seed: 1},
			FT: core.FTOptions{Beta: 30}},
	}
	bare, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	req.Tracer = telemetry.New(&buf)
	req.Metrics = telemetry.NewRegistry()
	observed, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Placement.String() != observed.Placement.String() {
		t.Error("telemetry sinks changed the placement")
	}
	if buf.Len() == 0 {
		t.Error("tracer attached but no spans emitted")
	}
}

// TestRunAnnealStageTags: the two stages of a twostage placement tag
// their anneal.level spans and anneal.best events "area" and "ft", one
// span per temperature level of each stage, each timed by its level's
// wall clock, and the span total equals the anneal.levels counter.
func TestRunAnnealStageTags(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	res, err := Run(context.Background(), Request{
		Synth: &SynthSpec{Assay: "pcr"},
		Place: &PlaceSpec{Placer: "twostage", Options: core.Options{Seed: 1},
			FT: core.FTOptions{Beta: 30}},
		Tracer:  telemetry.New(&buf),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	spans, bests := map[string]int{}, map[string]int{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec struct {
			Kind, Name string
			DurUS      int64 `json:"dur_us"`
			Fields     struct{ Stage string }
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		switch {
		case rec.Kind == "span" && rec.Name == "anneal.level":
			spans[rec.Fields.Stage]++
			if rec.DurUS <= 0 {
				t.Errorf("%s level span lasted %d µs", rec.Fields.Stage, rec.DurUS)
			}
		case rec.Kind == "event" && rec.Name == "anneal.best":
			bests[rec.Fields.Stage]++
		}
	}
	ts := res.TwoStage
	want := map[string]int{"area": ts.Stage1Stats.Levels, "ft": ts.Stage2Stats.Levels}
	if len(spans) != 2 || spans["area"] != want["area"] || spans["ft"] != want["ft"] {
		t.Errorf("anneal.level spans by stage = %v, want %v", spans, want)
	}
	if len(bests) != 2 || bests["area"] == 0 || bests["ft"] == 0 {
		t.Errorf("anneal.best events by stage = %v, want both stages", bests)
	}
	if got := reg.Counter("anneal.levels").Value(); got != int64(spans["area"]+spans["ft"]) {
		t.Errorf("anneal.levels = %d, spans %v", got, spans)
	}
}

// TestRunCache is the tentpole acceptance test for layer 2: a second
// identical request must be served from cache — byte-identical
// placement, no annealer invocation (pipeline.placer_runs counter).
func TestRunCache(t *testing.T) {
	reg := telemetry.NewRegistry()
	cache := pcache.New(0, reg)
	req := Request{
		Synth:   &SynthSpec{Assay: "pcr"},
		Place:   &PlaceSpec{Placer: "sa", Options: core.Options{Seed: 1}},
		Cache:   cache,
		Metrics: reg,
	}

	first, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if n := reg.Counter("pipeline.placer_runs").Value(); n != 1 {
		t.Fatalf("placer_runs after first run = %d, want 1", n)
	}

	second, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("second identical run missed the cache")
	}
	if n := reg.Counter("pipeline.placer_runs").Value(); n != 1 {
		t.Fatalf("placer_runs after cached run = %d, want still 1 (annealer re-ran)", n)
	}
	if second.CacheKey != first.CacheKey {
		t.Errorf("cache keys differ: %s vs %s", first.CacheKey, second.CacheKey)
	}

	fresh, err := format.MarshalPlacement(first.Placement)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := format.MarshalPlacement(second.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, cached) {
		t.Error("cached placement is not byte-identical to the fresh one")
	}

	// A different seed must miss.
	req.Place = &PlaceSpec{Placer: "sa", Options: core.Options{Seed: 2}}
	third, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Error("different seed hit the cache")
	}
}

// TestRunCacheTwoStage: twostage entries round-trip the stage-1
// placement through the cache too.
func TestRunCacheTwoStage(t *testing.T) {
	cache := pcache.New(0, nil)
	req := Request{
		Synth: &SynthSpec{Assay: "pcr"},
		Place: &PlaceSpec{Placer: "twostage", Options: core.Options{Seed: 1},
			FT: core.FTOptions{Beta: 30}},
		Cache: cache,
	}
	first, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit || second.TwoStage == nil {
		t.Fatalf("cached twostage run: hit=%v twoStage=%v", second.CacheHit, second.TwoStage)
	}
	if first.TwoStage.Stage1.String() != second.TwoStage.Stage1.String() {
		t.Error("stage-1 placement did not survive the cache round-trip")
	}
}

// TestRunCacheHitIsolated: a hit hands out its own copy of the cached
// placements. A caller that mutates a miss's or a hit's placement, and
// a Spares hit between two spare-free hits, leave every later hit
// byte-identical to the miss.
func TestRunCacheHitIsolated(t *testing.T) {
	req := Request{
		Synth: &SynthSpec{Assay: "pcr"},
		Place: &PlaceSpec{Placer: "twostage", Options: core.Options{Seed: 1},
			FT: core.FTOptions{Beta: 30}},
		Cache: pcache.New(0, nil),
	}
	run := func(spares int) Result {
		t.Helper()
		r := req
		spec := *req.Place
		spec.Spares = spares
		r.Place = &spec
		res, err := Run(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	marshal := func(p *place.Placement) []byte {
		t.Helper()
		raw, err := format.MarshalPlacement(p)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	scramble := func(res Result) {
		for _, p := range []*place.Placement{res.Placement, res.TwoStage.Stage1} {
			for i := range p.Pos {
				p.Pos[i].X += 3
				p.Rot[i] = !p.Rot[i]
			}
		}
	}

	miss := run(0)
	want, want1 := marshal(miss.Placement), marshal(miss.TwoStage.Stage1)
	scramble(miss)
	for i, spares := range []int{0, 2, 0} {
		hit := run(spares)
		if !hit.CacheHit {
			t.Fatalf("run %d (spares %d) missed the cache", i, spares)
		}
		if !bytes.Equal(marshal(hit.TwoStage.Stage1), want1) {
			t.Errorf("run %d (spares %d): stage-1 placement differs from the miss", i, spares)
		}
		if spares == 0 && !bytes.Equal(marshal(hit.Placement), want) {
			t.Errorf("run %d: hit placement differs from the miss", i)
		}
		scramble(hit)
	}
}

func TestStageErrors(t *testing.T) {
	cases := []struct {
		name  string
		req   Request
		stage string
	}{
		{"synth", Request{Synth: &SynthSpec{Assay: "warp"}}, StageSynth},
		{"place", Request{Synth: &SynthSpec{Assay: "pcr"},
			Place: &PlaceSpec{Placer: "magic"}}, StagePlace},
		{"place_no_schedule", Request{Place: &PlaceSpec{Placer: "sa"}}, StagePlace},
		{"fti_no_placement", Request{FTI: &FTISpec{}}, StageFTI},
		{"route", Request{Route: &RouteSpec{W: 4, H: 4,
			Endpoints: []router.Endpoint{{From: geom.Point{X: 0, Y: 0}, To: geom.Point{X: 99, Y: 99}}}}},
			StageRoute},
		{"test_fault_off_chip", Request{Test: &TestSpec{W: 4, H: 4,
			Faults: []geom.Point{{X: 77, Y: 0}}}}, StageTest},
		{"sim_no_inputs", Request{Sim: &SimSpec{}}, StageSim},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(context.Background(), tc.req)
			if err == nil {
				t.Fatal("want error")
			}
			var se *StageError
			if !errors.As(err, &se) {
				t.Fatalf("error %v is not a *StageError", err)
			}
			if se.Stage != tc.stage {
				t.Errorf("stage = %q, want %q", se.Stage, tc.stage)
			}
			if se.Unwrap() == nil {
				t.Error("StageError wraps nothing")
			}
			if code := ExitCode(res, err); code != 1 {
				t.Errorf("ExitCode on error = %d, want 1", code)
			}
		})
	}
}

func TestExitCode(t *testing.T) {
	if c := ExitCode(Result{}, nil); c != 0 {
		t.Errorf("empty success = %d, want 0", c)
	}
	for outcome, want := range map[sim.Outcome]int{
		sim.OutcomeCompleted: 0,
		sim.OutcomeDegraded:  2,
		sim.OutcomeFailed:    1,
	} {
		res := Result{Sim: &sim.Result{Outcome: outcome}}
		if c := ExitCode(res, nil); c != want {
			t.Errorf("ExitCode(%v) = %d, want %d", outcome, c, want)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Request{Synth: &SynthSpec{Assay: "pcr"}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

// TestStageNestsSpans checks the pipeline's trace tree under a CLI
// tool's root span: each stage span has the root as parent, library
// spans emitted inside a stage carry the stage span (the annealer's
// anneal.level under stage.place, sim.run under stage.sim, the sim's
// events under sim.run), and stages run after stage.fti ends
// (exhaustive, montecarlo) sit beside it under the root. Sinks set in
// the place and sim specs' options are replaced by the request's and
// receive nothing.
func TestStageNestsSpans(t *testing.T) {
	var buf, strayBuf bytes.Buffer
	tr := telemetry.New(&buf)
	stray, strayReg := telemetry.New(&strayBuf), telemetry.NewRegistry()
	root := tr.Start("tool.run")
	if _, err := Run(context.Background(), Request{
		Tool:  "tool",
		Synth: &SynthSpec{Assay: "pcr"},
		Place: &PlaceSpec{Placer: "sa",
			Options: core.Options{Seed: 1, ItersPerModule: 20, Tracer: stray, Metrics: strayReg}},
		FTI:    &FTISpec{Verify: true, MonteCarlo: 20, Seed: 1},
		Sim:    &SimSpec{Options: sim.Options{Telemetry: stray, Metrics: strayReg}},
		Tracer: tr.Under(root.ID()),
	}); err != nil {
		t.Fatal(err)
	}
	root.End(nil)
	if snap := strayReg.Snapshot(); strayBuf.Len() > 0 || len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) > 0 {
		t.Errorf("spec sinks received records: trace %q, metrics %+v", strayBuf.String(), snap)
	}

	ids := map[string]uint64{}
	pars := map[string]map[uint64]bool{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var rec struct {
			Kind, Name string
			ID         uint64 `json:"id"`
			Par        uint64 `json:"par"`
		}
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		name := rec.Name
		if rec.Kind == "event" && strings.HasPrefix(name, "sim.") {
			name = "sim.<event>"
		}
		if pars[name] == nil {
			pars[name] = map[uint64]bool{}
		}
		pars[name][rec.Par] = true
		if rec.Kind == "span" {
			ids[rec.Name] = rec.ID
		}
	}
	for child, parent := range map[string]string{
		"stage.synth":      "tool.run",
		"stage.place":      "tool.run",
		"stage.fti":        "tool.run",
		"stage.exhaustive": "tool.run",
		"stage.montecarlo": "tool.run",
		"stage.sim":        "tool.run",
		"anneal.level":     "stage.place",
		"sim.run":          "stage.sim",
		"sim.<event>":      "sim.run",
	} {
		if ids[parent] == 0 || len(pars[child]) != 1 || !pars[child][ids[parent]] {
			t.Errorf("%s parents %v, want only %s id %d", child, pars[child], parent, ids[parent])
		}
	}
	if !pars["tool.run"][0] || len(pars["tool.run"]) != 1 {
		t.Errorf("tool.run parents %v, want a root", pars["tool.run"])
	}
}
