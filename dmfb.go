// Package dmfb is a computer-aided design toolkit for fault-tolerant,
// dynamically-reconfigurable digital microfluidic biochips (DMFBs),
// reproducing Su & Chakrabarty, "Design of Fault-Tolerant and
// Dynamically-Reconfigurable Microfluidic Biochips", DATE 2005.
//
// The flow mirrors the paper's synthesis methodology:
//
//  1. Describe a bioassay as a sequencing graph (NewAssay, or the
//     built-in PCR case study).
//  2. Architectural-level synthesis: bind operations to module-library
//     devices and schedule them (Bind, ScheduleAssay).
//  3. Module placement: the simulated-annealing area minimiser
//     (PlaceAnneal), or the two-stage fault-tolerant placer
//     (PlaceFaultTolerant) which maximises the fault tolerance index
//     (FTI) while keeping area small.
//  4. Analysis and operation: compute the FTI (ComputeFTI), plan and
//     apply partial reconfiguration around faulty cells (Recover),
//     run assays on the cycle-accurate chip simulator with fault
//     injection (Simulate), test arrays with droplets (TestArray),
//     and measure survivability by Monte-Carlo fault injection
//     (MonteCarloSingleFault).
//
// All stochastic components are seeded; every function is
// deterministic given its arguments.
package dmfb

import (
	"context"
	"math"

	"dmfb/internal/actuation"
	"dmfb/internal/assay"
	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/defect"
	"dmfb/internal/faultsim"
	"dmfb/internal/fluidics"
	"dmfb/internal/format"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/modlib"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
	"dmfb/internal/recovery"
	"dmfb/internal/render"
	"dmfb/internal/router"
	"dmfb/internal/schedule"
	"dmfb/internal/sim"
	"dmfb/internal/telemetry"
	"dmfb/internal/testdrop"
)

// Geometry. Cells are addressed zero-based; a Rect occupies the
// half-open range [X,X+W)×[Y,Y+H).
type (
	// Point is a cell coordinate on the microfluidic array.
	Point = geom.Point
	// Rect is an axis-aligned rectangle of cells.
	Rect = geom.Rect
)

// Assay is a sequencing graph of fluidic operations.
type Assay = assay.Graph

// Operation kinds.
const (
	Dispense = assay.Dispense
	Mix      = assay.Mix
	Detect   = assay.Detect
)

// Library is a module-library catalogue of devices.
type Library = modlib.Library

// Synthesis.
type (
	// Binding maps operation IDs to devices.
	Binding = schedule.Binding
	// Schedule is the output of architectural-level synthesis.
	Schedule = schedule.Schedule
	// ScheduleOptions configures the list scheduler.
	ScheduleOptions = schedule.Options
)

// Binding policies for automatic resource binding.
const (
	BindFastest  = schedule.BindFastest
	BindSmallest = schedule.BindSmallest
)

// Placement.
type (
	// Placement assigns positions and orientations to modules.
	Placement = place.Placement
	// PlacementProblem is a module set plus the core area bounds.
	PlacementProblem = core.Problem
	// PlacerOptions configures the annealing placers; the zero value
	// gives the paper's parameters (α = 0.9, N = 400 × #modules,
	// p = 0.8; T0 = 10000 is fixed). Its Tracer receives one
	// "anneal.level" span per temperature level and one "anneal.best"
	// event per best-cost improvement, tagged "area" (stage 1) or "ft"
	// (stage 2); its Metrics receives the anneal.* and place.<stage>.*
	// metrics. Neither sink changes a placement.
	PlacerOptions = core.Options
	// SearchOptions configures deterministic multi-start annealing
	// (PlacerOptions.Search): Starts independent runs with splitmix64-
	// derived seeds, fanned across at most Workers goroutines, winner
	// byte-identical for a given seed at any worker count.
	SearchOptions = place.SearchOptions
	// FTOptions configures stage 2 of the fault-tolerant placer: the
	// FTI weight β, its one free input. Multi-start stage-2 search
	// rides in PlacerOptions.Search.
	FTOptions = core.FTOptions
	// PlacerStats reports annealing effort.
	PlacerStats = core.Stats
	// TwoStageResult bundles both stages of the enhanced placer.
	TwoStageResult = core.TwoStageResult
	// SweepPoint is one row of a β sweep (paper Table 2).
	SweepPoint = core.SweepPoint
)

// Fault tolerance and operation.
type (
	// FTIResult reports the fault tolerance index and coverage map.
	FTIResult = fti.Result
	// Relocation is one partial-reconfiguration step.
	Relocation = reconfig.Relocation
	// Chip is the physical electrowetting array with cell health.
	Chip = fluidics.Chip
	// SimOptions configures the chip simulator.
	SimOptions = sim.Options
	// FaultInjection schedules a cell failure during simulation.
	FaultInjection = sim.FaultInjection
	// SimResult reports a simulated assay run.
	SimResult = sim.Result
	// TestReport is the outcome of a droplet test pass.
	TestReport = testdrop.Report
	// FaultCampaign summarises Monte-Carlo fault injection.
	FaultCampaign = faultsim.Summary
	// CampaignConfig configures a parallel fault-injection campaign.
	CampaignConfig = campaign.Config
	// CampaignTrial is one trial's identity: index, derived seed, and
	// private RNG stream.
	CampaignTrial = campaign.Trial
	// CampaignOutcome is one trial's result.
	CampaignOutcome = campaign.Outcome
	// CampaignReport is a finished campaign: deterministic summary plus
	// wall-clock execution facts.
	CampaignReport = campaign.Report
	// TrialFunc executes one campaign trial.
	TrialFunc = campaign.TrialFunc
)

// CellPitchMM is the electrode pitch of the Table 1 target chip.
const CellPitchMM = modlib.CellPitchMM

// NewAssay returns an empty sequencing graph.
func NewAssay(name string) *Assay { return assay.New(name) }

// Table1Library returns the paper's Table 1 module catalogue: the four
// Paik et al. droplet mixers plus storage and detector devices, at
// 1.5 mm pitch.
func Table1Library() *Library { return modlib.Table1() }

// AreaMM2 converts an array cell count to square millimetres at the
// Table 1 pitch (2.25 mm² per cell).
func AreaMM2(cells int) float64 { return modlib.AreaMM2(cells) }

// Bind assigns a library device to every reconfigurable operation.
func Bind(g *Assay, lib *Library, policy schedule.BindPolicy) (Binding, error) {
	return schedule.Bind(g, lib, policy)
}

// ScheduleAssay runs resource-constrained list scheduling: operations
// start when their inputs are ready and the concurrent module
// footprint fits the area budget.
func ScheduleAssay(g *Assay, b Binding, opts ScheduleOptions) (*Schedule, error) {
	return schedule.List(g, b, opts)
}

// PCRAssay returns the paper's case study: the sequencing graph of the
// PCR mixing stage (Figure 5) and the IDs of mixes M1..M7.
func PCRAssay() (*Assay, [7]int) { return pcr.Graph() }

// PCRSchedule synthesises the PCR case study with the Table 1 binding
// and the 63-cell area budget (regenerating Figure 6).
func PCRSchedule() (*Schedule, error) { return pcr.Schedule() }

// PlacementProblemOf extracts the placement problem from a schedule,
// with an automatically sized core area.
func PlacementProblemOf(s *Schedule) PlacementProblem { return core.FromSchedule(s) }

// PlaceAnneal runs the fault-oblivious simulated-annealing placer of
// Section 4, minimising array area.
func PlaceAnneal(prob PlacementProblem, opts PlacerOptions) (*Placement, PlacerStats, error) {
	return core.AnnealArea(prob, opts)
}

// PlaceFaultTolerant runs the two-stage enhanced placer of Section
// 6.2: area-minimising annealing followed by low-temperature annealing
// with the FTI (weighted by ft.Beta) in the cost function.
func PlaceFaultTolerant(prob PlacementProblem, opts PlacerOptions, ft FTOptions) (TwoStageResult, error) {
	return core.TwoStage(prob, opts, ft)
}

// BetaSweep reruns the two-stage placer across β values, reproducing
// the area/fault-tolerance trade-off of Table 2. opts.Search fans out
// the shared stage 1 and every β's stage 2 alike.
func BetaSweep(prob PlacementProblem, opts PlacerOptions, ft FTOptions, betas []float64) ([]SweepPoint, error) {
	return core.BetaSweep(prob, opts, ft, betas)
}

// ComputeFTI evaluates the fault tolerance index of a placement on its
// bounding array (Section 5.2, fast algorithm of Section 5.3).
func ComputeFTI(p *Placement) FTIResult { return fti.Compute(p) }

// Recover plans and applies partial reconfiguration for a faulty cell,
// relocating every module that uses it while avoiding the given
// obstacle cells (earlier faults).
func Recover(p *Placement, array Rect, fault Point, obstacles ...Point) ([]Relocation, error) {
	return reconfig.Recover(nil, p, array, fault, obstacles...)
}

// Simulator fault recovery.
type (
	// RecoveryMode selects the simulator's fault response (L1-only,
	// full ladder, or off).
	RecoveryMode = sim.RecoveryMode
	// SimRecoveryReport aggregates a run's recovery activity.
	SimRecoveryReport = sim.RecoveryReport
)

// OutcomeFailed classifies a simulated assay that could not complete.
const OutcomeFailed = sim.OutcomeFailed

// ParseRecoveryMode parses the CLI spellings "l1", "ladder" and "off".
func ParseRecoveryMode(s string) (RecoveryMode, error) { return sim.ParseRecoveryMode(s) }

// Simulate executes the schedule on the placed array with the
// cycle-accurate chip simulator, injecting the given faults at their
// scheduled times and recovering via partial reconfiguration.
func Simulate(s *Schedule, p *Placement, opts SimOptions, faults ...FaultInjection) SimResult {
	return sim.Run(s, p, opts, faults...)
}

// ArrayCell converts placed-array coordinates to simulator chip
// coordinates (the chip adds a transport ring around the array).
func ArrayCell(opts SimOptions, p Point) Point { return sim.ArrayCell(opts, p) }

// NewChip returns a fault-free w×h electrowetting array.
func NewChip(w, h int) *Chip { return fluidics.NewChip(w, h) }

// Concurrent droplet routing.
type (
	// RouteEndpoint is one droplet's transport demand.
	RouteEndpoint = router.Endpoint
	// RouteOptions configures the concurrent planner.
	RouteOptions = router.ConcurrentOptions
	// RoutePlan is a synchronised multi-droplet trajectory set.
	RoutePlan = router.ConcurrentPlan
)

// PlanDropletRoutes routes several droplets simultaneously, one cell
// per control step, under the electrowetting static and dynamic
// separation constraints (prioritised time-extended A*).
func PlanDropletRoutes(c *Chip, eps []RouteEndpoint, opts RouteOptions) (*RoutePlan, error) {
	return router.PlanConcurrent(c, eps, opts)
}

// ValidateDropletRoutes checks a plan against every routing constraint.
func ValidateDropletRoutes(c *Chip, eps []RouteEndpoint, plan *RoutePlan, keepOut []Rect) error {
	return router.ValidateConcurrent(c, eps, plan, keepOut)
}

// Electrode actuation.
type (
	// ActuationFrame is one control step's energised electrodes.
	ActuationFrame = actuation.Frame
	// ActuationProgram is a validated electrode control sequence.
	ActuationProgram = actuation.Program
)

// CompileActuation compiles a routing plan into the electrode control
// program a DMFB microcontroller would execute, and validates it.
func CompileActuation(plan *RoutePlan, w, h int) (*ActuationProgram, error) {
	frames, err := actuation.CompileTransport(plan)
	if err != nil {
		return nil, err
	}
	prog := &ActuationProgram{W: w, H: h, Frames: frames}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// MixerActuation generates the cyclic electrode pattern that mixes a
// droplet inside a module's functional region for the given laps.
func MixerActuation(functional Rect, laps int) ([]ActuationFrame, error) {
	return actuation.MixerPattern(functional, laps)
}

// TestArray sweeps the whole chip with a test droplet (offline
// structural test) and reports the first fault found.
func TestArray(c *Chip) TestReport { return testdrop.Offline(c) }

// TestArrayOnline sweeps only the cells outside the given keep-out
// regions, for testing concurrent with assay execution.
func TestArrayOnline(c *Chip, keepOut []Rect) TestReport { return testdrop.Online(c, keepOut) }

// LocateAllFaults repeatedly sweeps the chip, masking found faults,
// until every faulty cell is localised.
func LocateAllFaults(c *Chip) []Point { return testdrop.LocalizeAll(c) }

// MonteCarloSingleFault measures survival under uniform random
// single-cell faults; the rate converges to the placement's FTI. The
// error rejects a campaign of fewer than one trial.
func MonteCarloSingleFault(p *Placement, trials int, seed int64) (FaultCampaign, error) {
	return faultsim.Run(ComputeFTI(p).FTI(), trials, seed, faultsim.SingleFaultTrial(p), nil)
}

// MonteCarloMultiFault measures survival under k sequential faults
// with partial reconfiguration between failures.
func MonteCarloMultiFault(p *Placement, k, trials int, seed int64) (FaultCampaign, error) {
	return faultsim.Run(ComputeFTI(p).FTI(), trials, seed, MultiFaultTrial(p, k, false, core.Options{}), nil)
}

// EstimateYield measures the fraction of chips usable when every array
// cell fails independently with probability defectProb, absorbing
// defects by sequential partial reconfiguration; withFull adds full
// re-placement (configured by opts) as a fallback.
func EstimateYield(p *Placement, defectProb float64, trials int, seed int64,
	withFull bool, opts PlacerOptions) (FaultCampaign, error) {
	return faultsim.Run(ComputeFTI(p).FTI(), trials, seed,
		faultsim.DefectYieldTrial(nil, p, defect.Uniform{Prob: defectProb}, recoveryCap(withFull), opts), nil)
}

// RunCampaign executes a fault-injection campaign across a worker
// pool: trials are dispatched concurrently, each drawing randomness
// only from its own deterministic stream, so the summary is identical
// at any worker count and across checkpoint resumes. The context
// cancels the campaign between trials.
func RunCampaign(ctx context.Context, cfg CampaignConfig, fn TrialFunc) (CampaignReport, error) {
	return campaign.Run(ctx, cfg, fn)
}

// SingleFaultTrial is the uniform single-fault campaign workload on p.
func SingleFaultTrial(p *Placement) TrialFunc { return faultsim.SingleFaultTrial(p) }

// MultiFaultTrial is the sequential k-fault campaign workload on p,
// with full re-placement fallback when withFull is set.
func MultiFaultTrial(p *Placement, k int, withFull bool, opts PlacerOptions) TrialFunc {
	return faultsim.MultiFaultTrial(p, k, recoveryCap(withFull), opts)
}

// recoveryCap maps the withFull switch of the campaign workloads onto
// the recovery ladder: partial reconfiguration (L1) alone, or up to
// full re-placement of the module set (L3).
func recoveryCap(withFull bool) recovery.Level {
	if withFull {
		return recovery.LevelDefragment
	}
	return recovery.LevelRelocate
}

// RenderPlacement draws a placement as ASCII art.
func RenderPlacement(p *Placement) string { return render.PlacementASCII(p) }

// RenderPlacementSVG draws a placement as a standalone SVG document.
func RenderPlacementSVG(p *Placement, cellPx int) string { return render.PlacementSVG(p, cellPx) }

// RenderSchedule draws a schedule as an ASCII Gantt chart.
func RenderSchedule(s *Schedule) string { return render.ScheduleASCII(s) }

// RenderCoverage draws an FTI coverage map as ASCII art.
func RenderCoverage(r FTIResult) string { return render.CoverageASCII(r) }

// MarshalPlacement serialises a placement as JSON.
func MarshalPlacement(p *Placement) ([]byte, error) { return format.MarshalPlacement(p) }

// UnmarshalAssay decodes and validates a sequencing graph.
func UnmarshalAssay(data []byte) (*Assay, error) { return format.UnmarshalGraph(data) }

// MarshalSchedule serialises a synthesis result as JSON.
func MarshalSchedule(s *Schedule) ([]byte, error) { return format.MarshalSchedule(s) }

// Round4 rounds to four decimals, the paper's FTI reporting precision.
func Round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

// Observability. The telemetry layer is optional everywhere: nil
// tracers and registries are valid disabled sinks, so callers only
// pay a nil check when these are off.
type (
	// Tracer emits structured JSONL trace records (spans and events).
	Tracer = telemetry.Tracer
	// MetricsRegistry holds named counters, gauges and histograms,
	// safe for concurrent use.
	MetricsRegistry = telemetry.Registry
)
