package dispatch

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/defect"
	"dmfb/internal/faultsim"
	"dmfb/internal/fti"
	"dmfb/internal/pipeline"
	"dmfb/internal/recovery"
	"dmfb/internal/sim"
	"dmfb/internal/telemetry"
)

// Spec is the portable definition of a fault-injection campaign — the
// document a client submits to the dispatcher and a simd worker turns
// back into a runnable trial function. SpecFlags is its one
// command-line surface, shared by dmfb-campaign and dmfb-dispatch
// submit, and every consumer (the single-process CLI, the
// dispatcher, every worker) derives the campaign's name, fingerprint
// and trial function from the same Spec methods, which is what keeps
// a distributed run byte-identical to a local one.
type Spec struct {
	// Mode selects the campaign kind: "single", "multi", "yield",
	// "assay" (dispatcher-distributable) or "exhaustive" (local only —
	// its trial count is a function of the placement).
	Mode string `json:"mode"`
	// Trials and Seed are the campaign dimensions; trial t always runs
	// with the RNG stream campaign.TrialRNG(Seed, t).
	Trials int   `json:"trials"`
	Seed   int64 `json:"seed"`
	// K is the faults per trial (multi and assay modes).
	K int `json:"k,omitempty"`
	// Q is the mean per-cell defect probability (yield mode).
	Q float64 `json:"q,omitempty"`
	// DefectModel selects the yield-mode defect map generator:
	// uniform | clustered | file (uniform when empty).
	DefectModel string `json:"defect_model,omitempty"`
	// ClusterSize and ClusterRadius parameterise the clustered model
	// (mean defects per cluster; Chebyshev scatter radius in cells).
	ClusterSize   float64 `json:"cluster_size,omitempty"`
	ClusterRadius int     `json:"cluster_radius,omitempty"`
	// DefectMap is the serialized defect map for the file model, in
	// defect.ParseMap format. The content travels in the spec — not a
	// filename — so remote workers need no shared filesystem.
	DefectMap string `json:"defect_map,omitempty"`
	// Spares threads that many interstitial spare lines through the
	// placement before trials (space redundancy; place.SpareSplit
	// divides the budget between columns and rows).
	Spares int `json:"spares,omitempty"`
	// Ladder switches yield mode from the partial-reconfiguration
	// recovery loop to the design-time local-reconfiguration pass
	// (defect.Reconfigure): a die survives when the full recovery
	// ladder absorbs its whole defect map before the assay starts.
	Ladder bool `json:"ladder,omitempty"`
	// Full enables the full re-placement fallback (multi and yield):
	// the recovery ladder's L3 after partial reconfiguration fails.
	Full bool `json:"full,omitempty"`
	// Recovery is the assay-mode fault response: l1 | ladder | off.
	Recovery string `json:"recovery,omitempty"`
	// Transient is the assay-mode probability a fault is transient.
	Transient float64 `json:"transient,omitempty"`
	// PlaceSeed seeds the annealed PCR placement under test.
	PlaceSeed int64 `json:"place_seed,omitempty"`
}

// MaxTrials bounds a campaign's trial count. The dispatcher holds a
// result slot per trial (about 41 B each), so one campaign's table
// stays near 0.4 GB at the cap.
const MaxTrials = 10_000_000

// Normalized returns the spec with the campaign defaults filled in, so
// a sparse wire document and a fully spelled-out one name (and
// fingerprint) the same campaign. The defect-model defaults are
// defect.Params.Normalized's.
func (sp Spec) Normalized() Spec {
	if sp.Mode == "" {
		sp.Mode = "multi"
	}
	if sp.K == 0 {
		sp.K = 2
	}
	dp := sp.DefectParams().Normalized()
	sp.DefectModel, sp.Q, sp.ClusterSize, sp.ClusterRadius = dp.Model, dp.Prob, dp.ClusterSize, dp.ClusterRadius
	if sp.Recovery == "" {
		sp.Recovery = "l1"
	}
	if sp.PlaceSeed == 0 {
		sp.PlaceSeed = 2
	}
	return sp
}

// Validate checks the spec describes a runnable campaign, as given: it
// does not normalize first, so a zero where the default is nonzero
// (k, q, the defect model, the place seed, the cluster radius) is an
// error. Wire specs, where zero means "default", are normalized
// before they are validated; flag values are validated raw
// (SpecFlags), which is what rejects an explicit "-defect-prob 0",
// "-place-seed 0" or "-cluster-radius 0". With remote set it
// additionally rejects modes the dispatcher cannot shard (exhaustive
// needs the placement to know its own trial count).
func (sp Spec) Validate(remote bool) error {
	switch sp.Mode {
	case "single", "multi", "yield", "assay":
	case "exhaustive":
		if remote {
			return fmt.Errorf("dispatch: -mode exhaustive derives its trial count from the placement; run it with dmfb-campaign")
		}
	default:
		return fmt.Errorf("dispatch: unknown mode %q (want single, multi, yield, assay or exhaustive)", sp.Mode)
	}
	if sp.Mode != "exhaustive" && (sp.Trials < 1 || sp.Trials > MaxTrials) {
		return fmt.Errorf("dispatch: trial count %d outside [1,%d]", sp.Trials, MaxTrials)
	}
	if sp.K < 1 {
		return fmt.Errorf("dispatch: need at least one fault per trial, got k=%d", sp.K)
	}
	if !(sp.Q > 0 && sp.Q < 1) {
		return fmt.Errorf("dispatch: defect probability q=%g outside (0,1)", sp.Q)
	}
	if sp.Mode == "yield" {
		if err := sp.DefectParams().Validate(); err != nil {
			return fmt.Errorf("dispatch: %w", err)
		}
	}
	if sp.Spares < 0 || sp.Spares > 8 {
		return fmt.Errorf("dispatch: spare budget %d outside [0,8]", sp.Spares)
	}
	if _, err := sim.ParseRecoveryMode(sp.Recovery); err != nil {
		return err
	}
	if !(sp.Transient >= 0 && sp.Transient <= 1) {
		return fmt.Errorf("dispatch: transient probability %g outside [0,1]", sp.Transient)
	}
	// Zero is the wire format's "default place seed" (2), so a place
	// seed of 0 cannot be asked for.
	if sp.PlaceSeed == 0 {
		return fmt.Errorf("dispatch: place seed 0 is reserved for the default; pick a nonzero seed")
	}
	return nil
}

// DefectParams returns the yield-mode defect model description held
// in the spec's flat fields, as given.
func (sp Spec) DefectParams() defect.Params {
	return defect.Params{
		Model:         sp.DefectModel,
		Prob:          sp.Q,
		ClusterSize:   sp.ClusterSize,
		ClusterRadius: sp.ClusterRadius,
		Map:           sp.DefectMap,
	}
}

// specUsage is the hint printed under a rejected set of spec flags.
var specUsage = fmt.Sprintf(`usage: -mode single|multi|yield|assay (exhaustive: dmfb-campaign only) with -trials in [1,%d], -k >= 1, -spares in [0,8], -transient in [0,1];
       -mode yield takes -defect-model uniform|clustered|file with -defect-prob in (0,1); clustered adds -cluster-size/-cluster-radius (radius >= 1), file adds -defect-file (rows of '.' good, 'X' defective)`, MaxTrials)

// SpecFlags installs the campaign spec's command-line flags on fs: one
// per Spec field, with -q the alias of -defect-prob, plus -defect-file,
// whose content becomes DefectMap. Defaults are Spec{}.Normalized()'s;
// the -trials default is the caller's. Once fs is parsed, the returned
// function reads the defect file, validates the raw flag values with
// Validate(remote) and returns the normalized spec; its error carries
// the usage hint.
func SpecFlags(fs *flag.FlagSet, trials int, remote bool) func() (Spec, error) {
	d := Spec{}.Normalized()
	sp := &Spec{}
	fs.StringVar(&sp.Mode, "mode", d.Mode, "campaign `kind`: single | multi | yield | assay | exhaustive (dmfb-campaign only)")
	fs.IntVar(&sp.Trials, "trials", trials, fmt.Sprintf("number of trials, at most %d (ignored for -mode exhaustive)", MaxTrials))
	fs.Int64Var(&sp.Seed, "seed", 1, "campaign seed; same seed => same summary at any worker count")
	fs.IntVar(&sp.K, "k", d.K, "faults per trial in -mode multi and assay")
	fs.Float64Var(&sp.Q, "q", d.Q, "alias of -defect-prob")
	fs.Float64Var(&sp.Q, "defect-prob", d.Q, "mean per-cell defect probability in -mode yield")
	fs.StringVar(&sp.DefectModel, "defect-model", d.DefectModel, "defect map model in -mode yield: uniform | clustered | file")
	fs.Float64Var(&sp.ClusterSize, "cluster-size", d.ClusterSize, "mean defects per cluster for -defect-model clustered")
	fs.IntVar(&sp.ClusterRadius, "cluster-radius", d.ClusterRadius, "cluster scatter radius in cells for -defect-model clustered")
	file := fs.String("defect-file", "", "defect map `file` for -defect-model file ('.' good, 'X' defective)")
	fs.IntVar(&sp.Spares, "spares", d.Spares, "interstitial spare lines to thread through the placement (space redundancy)")
	fs.BoolVar(&sp.Ladder, "ladder", d.Ladder, "yield trials use the design-time local-reconfiguration ladder instead of the runtime recovery loop")
	fs.BoolVar(&sp.Full, "full", d.Full, "fall back to full re-placement when partial reconfiguration fails (multi, yield)")
	fs.StringVar(&sp.Recovery, "recovery", d.Recovery, "fault response in -mode assay: l1 | ladder | off")
	fs.Float64Var(&sp.Transient, "transient", d.Transient, "probability a fault is transient in -mode assay")
	fs.Int64Var(&sp.PlaceSeed, "place-seed", d.PlaceSeed, "annealing seed of the PCR placement under test")
	return func() (Spec, error) {
		if *file != "" {
			raw, err := os.ReadFile(*file)
			if err != nil {
				return Spec{}, fmt.Errorf("reading -defect-file: %w\n%s", err, specUsage)
			}
			sp.DefectMap = string(raw)
		}
		if err := sp.Validate(remote); err != nil {
			return Spec{}, fmt.Errorf("%w\n%s", err, specUsage)
		}
		return sp.Normalized(), nil
	}
}

// Name returns the campaign's summary name, identical to what
// dmfb-campaign derives from the same parameters.
func (sp Spec) Name() string {
	sp = sp.Normalized()
	switch sp.Mode {
	case "multi":
		return fmt.Sprintf("multi-k%d", sp.K)
	case "yield":
		var name string
		switch sp.DefectModel {
		case defect.ModelClustered:
			name = fmt.Sprintf("yield-clustered-q%g", sp.Q)
		case defect.ModelFile:
			name = "yield-file"
		default:
			name = fmt.Sprintf("yield-q%g", sp.Q)
		}
		if sp.Spares > 0 {
			name += fmt.Sprintf("-s%d", sp.Spares)
		}
		if sp.Ladder {
			name += "-ladder"
		}
		return name
	case "assay":
		rm, err := sim.ParseRecoveryMode(sp.Recovery)
		if err != nil {
			return "assay-invalid"
		}
		return fmt.Sprintf("assay-k%d-%s", sp.K, rm)
	default:
		return sp.Mode
	}
}

// Fingerprint hashes the trial-defining parameters — everything that
// changes what a trial computes except the campaign seed and trial
// count, which the checkpoint header pins separately. Two specs with
// equal fingerprints share a placement and trial function, so the
// builder cache and the checkpoint resume guard both key on it.
func (sp Spec) Fingerprint() string {
	sp = sp.Normalized()
	parts := []any{"dmfb-campaign",
		sp.Mode, sp.K, sp.Q, sp.Full, sp.Recovery, sp.Transient, sp.PlaceSeed}
	// The defect model and space-redundancy extensions only fold in
	// when set, so pre-existing uniform campaigns keep their recorded
	// fingerprints (and their resumable checkpoints).
	if sp.DefectModel != defect.ModelUniform || sp.Spares != 0 || sp.Ladder {
		parts = append(parts, sp.DefectParams().FingerprintParts()...)
		parts = append(parts, sp.Spares, sp.Ladder)
	}
	// Full re-placement runs as the recovery ladder's L3 inside the
	// fabricated array, with one anneal seed per trial; checkpoints
	// of the earlier bounding-box fallback must refuse to resume.
	if sp.Full {
		parts = append(parts, "ladder-l3")
	}
	return campaign.ConfigFingerprint(parts...)
}

// Built is a spec turned runnable: the trial function over the
// annealed placement, plus the facts clients report about it.
type Built struct {
	Fn campaign.TrialFunc
	// Trials is the canonical trial count: the spec's, except in
	// exhaustive mode where it is the placed array's cell count.
	Trials int
	// PredictedFTI is the placement's fault-tolerance index.
	PredictedFTI float64
	// ArrayW, ArrayH and Modules describe the placement under test.
	ArrayW, ArrayH, Modules int
}

// BuildOptions parameterises Build; all fields are optional.
type BuildOptions struct {
	// Tool names the pipeline invocation in traces ("dmfb-simd", ...).
	Tool    string
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
}

// Build synthesises and places the PCR case study with
// experiment-grade annealing and returns the spec's trial function.
// Identical specs build identical placements (the anneal is seeded by
// PlaceSeed), so every worker in a fleet tests the same chip.
func (sp Spec) Build(ctx context.Context, opts BuildOptions) (*Built, error) {
	sp = sp.Normalized()
	if err := sp.Validate(false); err != nil {
		return nil, err
	}
	tool := opts.Tool
	if tool == "" {
		tool = "dispatch"
	}
	res, err := pipeline.Run(ctx, pipeline.Request{
		Tool:  tool,
		Synth: &pipeline.SynthSpec{Assay: "pcr"},
		Place: &pipeline.PlaceSpec{
			Placer:  "sa",
			Options: core.Options{Seed: sp.PlaceSeed, ItersPerModule: 120, WindowPatience: 4},
			Spares:  sp.Spares,
		},
		Tracer:  opts.Tracer,
		Metrics: opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	p := res.Placement
	array := p.BoundingBox()
	b := &Built{
		Trials:       sp.Trials,
		PredictedFTI: fti.Compute(p).FTI(),
		ArrayW:       array.W,
		ArrayH:       array.H,
		Modules:      len(p.Modules),
	}
	// Multi and yield trials walk the recovery ladder: partial
	// reconfiguration only, up to full re-placement (L3) with Full,
	// and with the schedule's downgrades too (L2) with Ladder. The L3
	// anneal options are dmfb-campaign's.
	maxLevel := recovery.LevelRelocate
	if sp.Full || sp.Ladder {
		maxLevel = recovery.LevelDefragment
	}
	heavy := core.Options{ItersPerModule: 40, WindowPatience: 2}
	switch sp.Mode {
	case "single":
		b.Fn = faultsim.SingleFaultTrial(p)
	case "multi":
		b.Fn = faultsim.MultiFaultTrial(p, sp.K, maxLevel, heavy)
	case "yield":
		gen, err := sp.DefectParams().Generator()
		if err != nil {
			return nil, err
		}
		sched := res.Schedule
		if !sp.Ladder {
			sched = nil
		}
		b.Fn = faultsim.DefectYieldTrial(sched, p, gen, maxLevel, heavy)
	case "exhaustive":
		b.Fn = faultsim.ExhaustiveTrial(p)
		b.Trials = array.Cells()
	case "assay":
		rm, err := sim.ParseRecoveryMode(sp.Recovery)
		if err != nil {
			return nil, err
		}
		b.Fn = faultsim.AssayTrial(res.Schedule, p, sp.K, rm, sp.Transient)
	}
	return b, nil
}

// BuildFunc is the Builder's construction seam; tests inject synthetic
// trial functions through it.
type BuildFunc func(ctx context.Context, sp Spec) (*Built, error)

// Builder builds trial functions from specs, caching by spec
// fingerprint: a worker that leases many chunks of the same campaign
// (or of several campaigns over the same placement) anneals the
// placement once. Safe for concurrent use; concurrent builds of the
// same fingerprint are serialised so the anneal runs once.
type Builder struct {
	// Tool/Tracer/Metrics flow into Spec.Build for uncached builds.
	Tool    string
	Tracer  *telemetry.Tracer
	Metrics *telemetry.Registry
	// Build overrides Spec.Build when non-nil (tests).
	Build BuildFunc

	mu    sync.Mutex
	cache map[string]*builderEntry
}

type builderEntry struct {
	once  sync.Once
	built *Built
	err   error
}

// Get returns the built trial function for sp, building at most once
// per fingerprint.
func (b *Builder) Get(ctx context.Context, sp Spec) (*Built, error) {
	key := sp.Fingerprint()
	b.mu.Lock()
	if b.cache == nil {
		b.cache = make(map[string]*builderEntry)
	}
	e := b.cache[key]
	if e == nil {
		e = &builderEntry{}
		b.cache[key] = e
	}
	b.mu.Unlock()
	e.once.Do(func() {
		build := b.Build
		if build == nil {
			build = func(ctx context.Context, sp Spec) (*Built, error) {
				return sp.Build(ctx, BuildOptions{Tool: b.Tool, Tracer: b.Tracer, Metrics: b.Metrics})
			}
		}
		e.built, e.err = build(ctx, sp)
	})
	if e.err != nil {
		// Failed builds are not cached — a later lease retries.
		b.mu.Lock()
		if b.cache[key] == e {
			delete(b.cache, key)
		}
		b.mu.Unlock()
		return nil, e.err
	}
	// The fingerprint (hence the cache key) excludes Trials and Seed,
	// so the shared entry carries the trial count of whichever spec
	// built it — return a copy dimensioned for this caller.
	out := *e.built
	if sp.Normalized().Mode != "exhaustive" {
		out.Trials = sp.Trials
	}
	return &out, nil
}
