package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"dmfb/internal/fluidics"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/router"
	"dmfb/internal/telemetry"
)

// traceRecord mirrors the telemetry wire format for decoding.
type traceRecord struct {
	Seq    int            `json:"seq"`
	TUS    int64          `json:"t_us"`
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	ID     uint64         `json:"id"`
	Par    uint64         `json:"par"`
	Fields map[string]any `json:"fields"`
}

// The tracer mirror of the Event log must match it one-for-one: same
// order, same kinds, same timestamps, same detail strings — so trace
// consumers see exactly what the legacy API reports.
func TestTraceEventsMatchEventLog(t *testing.T) {
	s, p := ftSetup(t)
	cov := fti.ComputeOn(p, p.BoundingBox())

	// Pick a covered cell so the run includes a reconfiguration.
	var fault geom.Point
	found := false
	bb := p.BoundingBox()
	for y := 0; y < bb.H && !found; y++ {
		for x := 0; x < bb.W && !found; x++ {
			cell := geom.Point{X: bb.X + x, Y: bb.Y + y}
			if cov.CoveredAt(x, y) && len(p.ModulesAt(cell)) > 0 {
				fault = ArrayCell(Options{}, cell)
				found = true
			}
		}
	}
	if !found {
		t.Skip("placement has no covered module cell")
	}

	var buf strings.Builder
	tr := telemetry.New(&buf)
	reg := telemetry.NewRegistry()
	res := Run(s, p, Options{Telemetry: tr, Metrics: reg},
		FaultInjection{TimeSec: 1, Cell: fault})
	if !res.Completed {
		t.Fatalf("assay failed: %s", res.FailReason)
	}
	if len(res.Relocations) == 0 {
		t.Fatal("expected a relocation for a covered fault")
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	// Collect the sim.* events from the trace, in emission order; they
	// and the recovery ladder's spans nest under the root sim.run span.
	var traced []traceRecord
	var ladderPars []uint64
	var run traceRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec traceRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid trace line %q: %v", line, err)
		}
		switch {
		case rec.Kind == "event" && strings.HasPrefix(rec.Name, "sim."):
			traced = append(traced, rec)
		case rec.Name == "recovery.ladder":
			ladderPars = append(ladderPars, rec.Par)
		case rec.Name == "sim.run":
			run = rec
		}
	}
	if run.ID == 0 || run.Par != 0 {
		t.Fatalf("sim.run span id %d par %d, want a root", run.ID, run.Par)
	}
	if len(ladderPars) == 0 {
		t.Error("no recovery.ladder span despite a relocation")
	}
	for _, par := range ladderPars {
		if par != run.ID {
			t.Errorf("recovery.ladder under %d, want sim.run %d", par, run.ID)
		}
	}
	for _, rec := range traced {
		if rec.Par != run.ID {
			t.Errorf("%s event under %d, want sim.run %d", rec.Name, rec.Par, run.ID)
		}
	}

	if len(traced) != len(res.Events) {
		t.Fatalf("trace has %d sim events, Event log has %d", len(traced), len(res.Events))
	}
	for i, ev := range res.Events {
		got := traced[i]
		if got.Name != "sim."+ev.Kind {
			t.Errorf("event %d: trace name %q, log kind %q", i, got.Name, ev.Kind)
		}
		if sec, ok := got.Fields["t_sec"].(float64); !ok || int(sec) != ev.TimeSec {
			t.Errorf("event %d: trace t_sec %v, log %d", i, got.Fields["t_sec"], ev.TimeSec)
		}
		if detail, ok := got.Fields["detail"].(string); !ok || detail != ev.Detail {
			t.Errorf("event %d: trace detail %q, log %q", i, got.Fields["detail"], ev.Detail)
		}
	}

	// The sim.events counter mirrors the log length, and the run span
	// must have been emitted.
	if n := reg.Counter("sim.events").Value(); n != int64(len(res.Events)) {
		t.Errorf("sim.events counter = %d, want %d", n, len(res.Events))
	}
	if !strings.Contains(buf.String(), `"name":"sim.run"`) {
		t.Error("no sim.run span in trace")
	}
	snap := reg.Snapshot()
	if snap.Histograms["sim.reconfig_latency_ms"].Count == 0 {
		t.Error("no sim.reconfig_latency_ms observations despite a relocation")
	}
	if snap.Histograms["sim.route_steps"].Count == 0 {
		t.Error("no sim.route_steps observations")
	}
}

// Telemetry must not perturb the simulation: results with and without
// sinks attached must be identical.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	s, p := pcrSetup(t)
	plain := Run(s, p, Options{})
	var buf strings.Builder
	traced := Run(s, p, Options{Telemetry: telemetry.New(&buf), Metrics: telemetry.NewRegistry()})

	if plain.Completed != traced.Completed ||
		plain.MakespanSec != traced.MakespanSec ||
		plain.TransportSteps != traced.TransportSteps ||
		len(plain.Events) != len(traced.Events) {
		t.Fatalf("telemetry changed the result:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
	for i := range plain.Events {
		if plain.Events[i] != traced.Events[i] {
			t.Errorf("event %d differs: %v vs %v", i, plain.Events[i], traced.Events[i])
		}
	}
}

// TestPathToCountsRouterMetrics: each routing query of a run is one
// router.routes (with its router.path_len) or one
// router.route_failures in the run's registry.
func TestPathToCountsRouterMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	chip := fluidics.NewChip(5, 5)
	if err := chip.InjectFault(geom.Point{X: 4, Y: 4}); err != nil {
		t.Fatal(err)
	}
	sim := &simulator{opts: Options{Metrics: reg}}
	sim.tree.Reset(chip, router.Request{From: geom.Point{X: 0, Y: 0}})
	for _, to := range []geom.Point{{X: 4, Y: 0}, {X: 4, Y: 4}, {X: 0, Y: 0}, {X: 9, Y: 9}, {X: 2, Y: 3}} {
		if _, err := sim.pathTo(to); (err != nil) != (to == geom.Point{X: 4, Y: 4} || to == geom.Point{X: 9, Y: 9}) {
			t.Fatalf("pathTo(%v) error %v", to, err)
		}
	}
	if got := reg.Counter("router.routes").Value(); got != 3 {
		t.Errorf("router.routes = %d, want 3", got)
	}
	if got := reg.Counter("router.route_failures").Value(); got != 2 {
		t.Errorf("router.route_failures = %d, want 2", got)
	}
	if got := reg.Histogram("router.path_len", telemetry.PathLenBuckets...).Sum(); got != 4+0+5 {
		t.Errorf("router.path_len sum = %v, want 9", got)
	}
}

// TestTransportTotalsAddUpOverRuns: runs sharing one registry, as a
// campaign's trials do, add their transport totals to the
// sim.transport_* counters instead of overwriting one another.
func TestTransportTotalsAddUpOverRuns(t *testing.T) {
	s, p := pcrSetup(t)
	reg := telemetry.NewRegistry()
	plain := Run(s, p, Options{Metrics: reg})
	faulted := Run(s, p, Options{Metrics: reg},
		FaultInjection{TimeSec: 1, Cell: ArrayCell(Options{}, geom.Point{X: p.Rect(0).X, Y: p.Rect(0).Y})})
	if plain.TransportSteps == 0 || faulted.TransportSteps == 0 {
		t.Fatalf("transport steps %d, %d: want both runs to move droplets", plain.TransportSteps, faulted.TransportSteps)
	}
	if got, want := reg.Counter("sim.transport_steps").Value(), int64(plain.TransportSteps+faulted.TransportSteps); got != want {
		t.Errorf("sim.transport_steps = %d, want %d", got, want)
	}
	if got, want := reg.Counter("sim.transport_ms").Value(), int64(plain.TransportMS+faulted.TransportMS); got != want {
		t.Errorf("sim.transport_ms = %d, want %d", got, want)
	}
}
