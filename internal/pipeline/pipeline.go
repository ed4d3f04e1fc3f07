// Package pipeline is the shared synthesis flow of the dmfb tools:
// bind → schedule → place → analyse → route/test/simulate, as one
// reusable Run call. Every CLI under cmd/ and the dmfb-server service
// build a Request describing which stages to run and render the typed
// Result; the stage wiring, telemetry spans, placement caching and
// error tagging live here exactly once.
//
// Stages execute in a fixed order — synth, place, fti, route, test,
// sim — and each is skipped unless its spec is present (or its input
// is given pre-computed, e.g. Request.Placement skips the placer).
// Each stage runs under a "stage.<name>" telemetry span nested in the
// caller's current default parent and observes a "stage.<name>_ms"
// histogram, matching the span hierarchy the CLIs established before
// this package existed. The context is checked between stages, so a
// cancelled request stops at the next stage boundary.
//
// Failures are returned as *StageError wrapping the cause, so callers
// can switch on the stage tag (errors.As) or the underlying error
// (errors.Is) instead of string-matching; ExitCode derives the
// conventional process exit status from a Result/error pair.
package pipeline

import (
	"context"
	"fmt"

	"dmfb/internal/actuation"
	"dmfb/internal/assay"
	"dmfb/internal/core"
	"dmfb/internal/faultsim"
	"dmfb/internal/fluidics"
	"dmfb/internal/format"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/invitro"
	"dmfb/internal/modlib"
	"dmfb/internal/pcache"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/router"
	"dmfb/internal/schedule"
	"dmfb/internal/sim"
	"dmfb/internal/telemetry"
	"dmfb/internal/testdrop"
)

// Stage tags carried by StageError.
const (
	StageSynth = "synth"
	StagePlace = "place"
	StageFTI   = "fti"
	StageRoute = "route"
	StageTest  = "test"
	StageSim   = "sim"
)

// StageError tags a pipeline failure with the stage that caused it.
type StageError struct {
	Stage string // one of the Stage* constants
	Err   error
}

func (e *StageError) Error() string { return e.Stage + ": " + e.Err.Error() }

func (e *StageError) Unwrap() error { return e.Err }

// SynthSpec configures architectural-level synthesis.
type SynthSpec struct {
	// Assay selects a built-in workload: "pcr" or "invitro". Ignored
	// when Graph is set.
	Assay string
	// Graph is an explicit sequencing graph to bind and schedule.
	Graph *assay.Graph
	// Bind is the binding policy for Graph (schedule.BindFastest when
	// zero-valued it defaults to the fastest-device policy).
	Bind schedule.BindPolicy
	// Samples and Assays size the in-vitro workload.
	Samples, Assays int
	// Budget is the concurrent module area budget in cells (0 =
	// unlimited for Graph/invitro; the PCR case study fixes its own).
	Budget int
	// Library is the module catalogue (Table 1 when nil).
	Library *modlib.Library
}

// PlaceSpec configures module placement.
type PlaceSpec struct {
	// Placer selects the algorithm: "greedy", "greedy-oblivious",
	// "sa" or "twostage".
	Placer string
	// Options configures the annealing placers. When Observer is nil
	// and the request has telemetry sinks, Run attaches the standard
	// "place"-stage anneal observer; Metrics likewise defaults to the
	// request registry. Neither affects the annealer's RNG, so
	// placements are bit-identical with or without telemetry.
	Options core.Options
	// FT configures stage 2 of the "twostage" placer.
	FT core.FTOptions
	// Spares threads that many interstitial spare lines through the
	// finished placement (place.InsertSpares, columns first — see
	// place.SpareSplit), the space-redundancy transform for yield
	// enhancement. Applied downstream of the placement cache: it is a
	// deterministic arithmetic transform, so requests differing only
	// in Spares share one cache entry and one anneal.
	Spares int
}

// FTISpec requests fault-tolerance analysis of the placement.
type FTISpec struct {
	// Verify additionally runs exhaustive single-fault injection
	// (Result.Exhaustive); its survival rate equals the FTI exactly.
	Verify bool
	// MonteCarlo, when positive, runs that many random single-fault
	// trials (Result.MonteCarlo).
	MonteCarlo int
	// Seed drives the Monte-Carlo trials.
	Seed int64
}

// SimSpec requests a chip-simulator run of the schedule on the
// placement.
type SimSpec struct {
	// Options configures the simulator. Telemetry and Metrics default
	// to the request's sinks when nil.
	Options sim.Options
	// Faults are injected at their scheduled times.
	Faults []sim.FaultInjection
}

// RouteSpec requests standalone droplet routing on a fresh chip.
type RouteSpec struct {
	W, H      int
	Faults    []geom.Point // injected before planning
	Endpoints []router.Endpoint
	Options   router.ConcurrentOptions
	// Frames compiles the plan into an electrode actuation program
	// (Result.Route.Program). Always done by the route CLI; spec'd so
	// service callers can skip it.
	Frames bool
}

// TestSpec requests a droplet structural test of a chip.
type TestSpec struct {
	W, H   int
	Faults []geom.Point
	// Online additionally sweeps with the placement's module regions
	// masked (testing concurrent with assay execution); requires a
	// placement from an earlier stage or Request.Placement.
	Online bool
}

// Request describes one pipeline run. Specs select stages; nil specs
// are skipped. Pre-computed inputs (Schedule, Placement) short-circuit
// the corresponding stage.
type Request struct {
	// Tool names the invoking binary for telemetry span fields.
	Tool string

	Synth *SynthSpec
	// Schedule, when set, is used instead of running synthesis.
	Schedule *schedule.Schedule

	Place *PlaceSpec
	// Placement, when set, is used instead of running the placer.
	Placement *place.Placement

	FTI   *FTISpec
	Route *RouteSpec
	Test  *TestSpec
	Sim   *SimSpec

	// Cache, when set, serves placements by content-addressed
	// fingerprint: a hit skips the placer entirely and unmarshals the
	// cached bytes, which are guaranteed byte-identical to a fresh
	// run's marshalled placement.
	Cache *pcache.Cache

	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
}

// RouteResult is the routing stage's output.
type RouteResult struct {
	Plan    *router.ConcurrentPlan
	Program *actuation.Program
}

// TestResult is the structural-test stage's output.
type TestResult struct {
	Online  *testdrop.Report // nil unless TestSpec.Online
	Offline testdrop.Report
	// Located lists every faulty cell when the offline sweep detects a
	// fault (repeated localising sweeps).
	Located []geom.Point
}

// Result is the typed output of a pipeline run. Fields are populated
// by the stages the request selected.
type Result struct {
	Schedule  *schedule.Schedule
	Placement *place.Placement
	// TwoStage holds both stages of the "twostage" placer.
	TwoStage    *core.TwoStageResult
	PlacerStats core.Stats
	// CacheKey is the placement fingerprint when a cache was attached;
	// CacheHit reports whether the placer was skipped.
	CacheKey pcache.Key
	CacheHit bool

	FTI        *fti.Result
	Exhaustive *faultsim.Summary
	MonteCarlo *faultsim.Summary

	Route *RouteResult
	Test  *TestResult
	Sim   *sim.Result
}

// ExitCode maps a pipeline outcome to the conventional process exit
// status of the dmfb tools: 1 on any error or a failed assay, 2 when
// the assay completed degraded (some operations abandoned), 0
// otherwise.
func ExitCode(res Result, err error) int {
	if err != nil {
		return 1
	}
	if res.Sim != nil {
		switch res.Sim.Outcome {
		case sim.OutcomeFailed:
			return 1
		case sim.OutcomeDegraded:
			return 2
		}
	}
	return 0
}

// Run executes the requested stages in order. On error the returned
// Result holds everything completed before the failing stage and the
// error is a *StageError (or the context's error between stages).
func Run(ctx context.Context, req Request) (Result, error) {
	var res Result

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if req.Schedule != nil {
		res.Schedule = req.Schedule
	} else if req.Synth != nil {
		done := req.stage(StageSynth)
		s, err := synthesize(*req.Synth)
		done()
		if err != nil {
			return res, &StageError{StageSynth, err}
		}
		res.Schedule = s
		req.Metrics.Gauge("synth.makespan_sec").Set(float64(s.Makespan))
		req.Metrics.Gauge("synth.peak_area_cells").Set(float64(s.PeakArea()))
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if req.Placement != nil {
		res.Placement = req.Placement
	} else if req.Place != nil {
		if err := req.runPlace(&res); err != nil {
			return res, err
		}
	}
	if res.Placement != nil {
		req.Metrics.Gauge("place.array_cells").Set(float64(res.Placement.ArrayCells()))
		req.Metrics.Gauge("place.utilization").Set(res.Placement.Utilization())
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if req.FTI != nil {
		if err := req.runFTI(&res); err != nil {
			return res, err
		}
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if req.Route != nil {
		if err := req.runRoute(&res); err != nil {
			return res, err
		}
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if req.Test != nil {
		if err := req.runTest(&res); err != nil {
			return res, err
		}
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	if req.Sim != nil {
		if res.Schedule == nil || res.Placement == nil {
			return res, &StageError{StageSim, fmt.Errorf("simulation needs a schedule and a placement")}
		}
		opts := req.Sim.Options
		if opts.Telemetry == nil {
			opts.Telemetry = req.Tracer
		}
		if opts.Metrics == nil {
			opts.Metrics = req.Metrics
		}
		done := req.stage(StageSim)
		r := sim.Run(res.Schedule, res.Placement, opts, req.Sim.Faults...)
		done()
		res.Sim = &r
	}
	return res, nil
}

// LoadSchedule reads a schedule JSON file produced by dmfb-synth,
// decoding against the Table 1 library when lib is nil; an empty path
// synthesises the built-in PCR case study. Shared by every CLI that
// accepts a -schedule flag.
func LoadSchedule(path string, lib *modlib.Library, read func(string) ([]byte, error)) (*schedule.Schedule, error) {
	if path == "" {
		return pcr.Schedule()
	}
	data, err := read(path)
	if err != nil {
		return nil, err
	}
	if lib == nil {
		lib = modlib.Table1()
	}
	return format.UnmarshalSchedule(data, lib)
}

// LoadPlacement reads a placement JSON file produced by dmfb-place.
func LoadPlacement(path string, read func(string) ([]byte, error)) (*place.Placement, error) {
	data, err := read(path)
	if err != nil {
		return nil, err
	}
	return format.UnmarshalPlacement(data)
}

func synthesize(spec SynthSpec) (*schedule.Schedule, error) {
	if spec.Graph != nil {
		lib := spec.Library
		if lib == nil {
			lib = modlib.Table1()
		}
		b, err := schedule.Bind(spec.Graph, lib, spec.Bind)
		if err != nil {
			return nil, err
		}
		return schedule.List(spec.Graph, b, schedule.Options{AreaBudget: spec.Budget})
	}
	switch spec.Assay {
	case "pcr":
		return pcr.Schedule()
	case "invitro":
		return invitro.Synthesize(spec.Samples, spec.Assays, spec.Budget)
	default:
		return nil, fmt.Errorf("unknown assay %q (want pcr or invitro)", spec.Assay)
	}
}

// runPlace executes the placement stage, consulting the cache first.
func (req *Request) runPlace(res *Result) error {
	if res.Schedule == nil {
		return &StageError{StagePlace, fmt.Errorf("placement needs a schedule")}
	}
	spec := *req.Place
	prob := core.FromSchedule(res.Schedule)

	if req.Cache != nil {
		res.CacheKey = pcache.Fingerprint(pcache.Input{
			Schedule: res.Schedule,
			Problem:  prob,
			Placer:   spec.Placer,
			Options:  spec.Options,
			FT:       spec.FT,
		})
		if e, ok := req.Cache.Get(res.CacheKey); ok {
			if err := req.adoptCached(res, e); err != nil {
				return err
			}
			spec.applySpares(res)
			return nil
		}
	}

	opts := spec.Options
	if opts.Observer == nil {
		opts.Observer = telemetry.AnnealObserver(req.Tracer, req.Metrics, "place")
	}
	if opts.Metrics == nil {
		opts.Metrics = req.Metrics
	}

	done := req.stage(StagePlace)
	defer done()
	req.Metrics.Counter("pipeline.placer_runs").Add(1)
	var err error
	switch spec.Placer {
	case "greedy":
		res.Placement, err = core.Greedy(prob, true)
	case "greedy-oblivious":
		res.Placement, err = core.Greedy(prob, false)
	case "sa":
		res.Placement, res.PlacerStats, err = core.AnnealArea(prob, opts)
	case "twostage":
		var ts core.TwoStageResult
		ts, err = core.TwoStage(prob, opts, spec.FT)
		if err == nil {
			res.TwoStage = &ts
			res.Placement = ts.Final
			res.PlacerStats = ts.Stage2Stats
		}
	default:
		err = fmt.Errorf("unknown placer %q", spec.Placer)
	}
	if err != nil {
		return &StageError{StagePlace, err}
	}

	if req.Cache != nil {
		if err := req.fillCache(res); err != nil {
			return &StageError{StagePlace, err}
		}
	}
	spec.applySpares(res)
	return nil
}

// applySpares applies the space-redundancy transform after the cache
// (both the hit and the fill path cache the spare-free placement).
func (spec *PlaceSpec) applySpares(res *Result) {
	if spec.Spares <= 0 || res.Placement == nil {
		return
	}
	cols, rows := place.SpareSplit(spec.Spares)
	res.Placement = place.InsertSpares(res.Placement, cols, rows)
}

// adoptCached reconstructs the placement stage's result from a cache
// entry: the stored bytes are unmarshalled, so downstream stages see
// exactly the placement a fresh run would have produced.
func (req *Request) adoptCached(res *Result, e pcache.Entry) error {
	p, err := format.UnmarshalPlacement(e.Placement)
	if err != nil {
		return &StageError{StagePlace, fmt.Errorf("corrupt cache entry: %w", err)}
	}
	res.Placement = p
	res.PlacerStats = e.Stats
	res.CacheHit = true
	if len(e.Stage1) > 0 {
		s1, err := format.UnmarshalPlacement(e.Stage1)
		if err != nil {
			return &StageError{StagePlace, fmt.Errorf("corrupt cache entry: %w", err)}
		}
		res.TwoStage = &core.TwoStageResult{Stage1: s1, Final: p, Stage2Stats: res.PlacerStats}
	}
	return nil
}

// fillCache stores the freshly computed placement under its
// fingerprint.
func (req *Request) fillCache(res *Result) error {
	raw, err := format.MarshalPlacement(res.Placement)
	if err != nil {
		return err
	}
	e := pcache.Entry{Placement: raw, Stats: res.PlacerStats}
	if res.TwoStage != nil {
		if e.Stage1, err = format.MarshalPlacement(res.TwoStage.Stage1); err != nil {
			return err
		}
		e.Stage1FTI = fti.Compute(res.TwoStage.Stage1).FTI()
		e.ArrayMM2 = modlib.AreaMM2(res.TwoStage.Stage1.ArrayCells())
	}
	e.FTI = fti.Compute(res.Placement).FTI()
	req.Cache.Put(res.CacheKey, e)
	return nil
}

func (req *Request) runFTI(res *Result) error {
	if res.Placement == nil {
		return &StageError{StageFTI, fmt.Errorf("FTI analysis needs a placement")}
	}
	done := req.stage(StageFTI)
	r := fti.Compute(res.Placement)
	done()
	res.FTI = &r
	req.Metrics.Gauge("fti.value").Set(r.FTI())

	if req.FTI.Verify {
		done := req.stage("exhaustive")
		ex := faultsim.ExhaustiveSingleFault(res.Placement)
		done()
		res.Exhaustive = &ex
	}
	if n := req.FTI.MonteCarlo; n > 0 {
		done := req.stage("montecarlo")
		mc, err := faultsim.Run(res.Placement, n, req.FTI.Seed, faultsim.SingleFaultTrial(res.Placement))
		done()
		if err != nil {
			return &StageError{StageFTI, err}
		}
		res.MonteCarlo = &mc
	}
	return nil
}

func (req *Request) runRoute(res *Result) error {
	spec := *req.Route
	chip := fluidics.NewChip(spec.W, spec.H)
	for _, f := range spec.Faults {
		if err := chip.InjectFault(f); err != nil {
			return &StageError{StageRoute, err}
		}
	}
	opts := spec.Options
	if opts.Metrics == nil {
		opts.Metrics = req.Metrics
	}
	done := req.stage(StageRoute)
	plan, err := router.PlanConcurrent(chip, spec.Endpoints, opts)
	done()
	if err != nil {
		return &StageError{StageRoute, err}
	}
	if err := router.ValidateConcurrent(chip, spec.Endpoints, plan, nil); err != nil {
		return &StageError{StageRoute, fmt.Errorf("plan failed validation: %w", err)}
	}
	res.Route = &RouteResult{Plan: plan}

	frames, err := actuation.CompileTransport(plan)
	if err != nil {
		return &StageError{StageRoute, err}
	}
	prog := &actuation.Program{W: spec.W, H: spec.H, Frames: frames}
	if err := prog.Validate(); err != nil {
		return &StageError{StageRoute, err}
	}
	res.Route.Program = prog
	return nil
}

func (req *Request) runTest(res *Result) error {
	spec := *req.Test
	chip := fluidics.NewChip(spec.W, spec.H)
	for _, f := range spec.Faults {
		if err := chip.InjectFault(f); err != nil {
			return &StageError{StageTest, err}
		}
	}
	res.Test = &TestResult{}
	if spec.Online {
		if res.Placement == nil {
			return &StageError{StageTest, fmt.Errorf("online test needs a placement")}
		}
		var keepOut []geom.Rect
		for i := range res.Placement.Modules {
			keepOut = append(keepOut, res.Placement.Rect(i))
		}
		done := req.stage("sweep_online")
		rep := testdrop.Online(chip, keepOut)
		done()
		res.Test.Online = &rep
	}
	done := req.stage("sweep_offline")
	res.Test.Offline = testdrop.Offline(chip)
	done()
	if res.Test.Offline.Faulty {
		res.Test.Located = testdrop.LocalizeAll(chip)
	}
	return nil
}

// stage wraps one pipeline stage in the standard telemetry: a
// "stage.<name>" span (nested under the tracer's current default
// parent, which it becomes for the stage's duration) and a
// "stage.<name>_ms" latency histogram. Mirrors cliflags.Session.Stage
// so pipeline spans slot into the same tool.run→stage.* hierarchy.
func (req *Request) stage(name string) func() {
	if req.Tracer == nil && req.Metrics == nil {
		return func() {}
	}
	clock := telemetry.StartStage(name)
	span := req.Tracer.Start("stage." + name)
	prev := req.Tracer.SwapDefaultParent(span.ID())
	return func() {
		st := clock.Stop()
		req.Tracer.SwapDefaultParent(prev)
		span.End(telemetry.Fields{
			"tool":   req.Tool,
			"cpu_us": st.CPU.Microseconds(),
		})
		req.Metrics.Histogram("stage."+name+"_ms", telemetry.LatencyBuckets...).
			Observe(float64(st.Wall.Microseconds()) / 1000)
	}
}
