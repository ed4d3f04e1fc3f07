// Package core implements the paper's primary contribution: module
// placement for dynamically reconfigurable microfluidic biochips.
//
// Three placers are provided:
//
//   - Greedy — the baseline of Section 6.1: modules sorted by
//     decreasing area, each placed at the first available bottom-left
//     position.
//   - AnnealArea — the simulated-annealing placer of Section 4:
//     direct perturbation of module positions and orientations, a
//     forbidden-overlap penalty in the cost function, the four move
//     types (single displacement, displacement+rotation, pair
//     interchange, interchange+rotation), and a controlling window
//     that shrinks with temperature and defines the stopping
//     criterion.
//   - TwoStage — the enhanced placement of Section 6.2: stage 1 is
//     fault-oblivious area minimisation; stage 2 refines the result
//     with low-temperature simulated annealing (LTSA) restricted to
//     single-module displacement, with the fault tolerance index
//     weighted by β in the cost (α·area − β·fault tolerance, α = 1).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"dmfb/internal/campaign"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
	"dmfb/internal/telemetry"
)

// Problem is a placement problem: the module set (footprints with
// fixed time spans from architectural-level synthesis) and the core
// area within which modules may be placed (Figure 4a).
type Problem struct {
	Modules []place.Module
	MaxW    int // core area width in cells
	MaxH    int // core area height in cells
	// Obstacles are dead cells (e.g. previously detected faults) no
	// module may cover. Used by full reconfiguration, which re-places
	// the module set around the accumulated faults.
	Obstacles []geom.Point
}

// obstacleHits counts (module, obstacle) incidences — the full-
// reconfiguration analogue of the forbidden-overlap penalty. It sums
// the same per-module count the move kernel keeps in step.
func (p Problem) obstacleHits(pl *place.Placement) int {
	n := 0
	for i := range pl.Modules {
		n += coversObstacleCount(p.Obstacles, pl.Rect(i))
	}
	return n
}

// NewProblem builds a problem with an automatically sized core area:
// wide enough for any module in either orientation and for roughly
// twice the total module area, so the annealer has room to explore.
func NewProblem(mods []place.Module) Problem {
	maxDim, sum := 0, 0
	for _, m := range mods {
		if m.Size.W > maxDim {
			maxDim = m.Size.W
		}
		if m.Size.H > maxDim {
			maxDim = m.Size.H
		}
		sum += m.Size.Cells()
	}
	side := int(math.Ceil(math.Sqrt(2 * float64(sum))))
	if side < maxDim {
		side = maxDim
	}
	if side < 1 {
		side = 1
	}
	return Problem{Modules: mods, MaxW: side, MaxH: side}
}

// FromSchedule builds the placement problem for a synthesis result.
func FromSchedule(s *schedule.Schedule) Problem {
	return NewProblem(place.FromSchedule(s))
}

// Validate reports problems that make placement impossible.
func (p Problem) Validate() error {
	if len(p.Modules) == 0 {
		return fmt.Errorf("core: no modules to place")
	}
	for _, m := range p.Modules {
		if !m.Size.Valid() {
			return fmt.Errorf("core: module %s has invalid footprint %v", m.Name, m.Size)
		}
		if m.Span.Empty() {
			return fmt.Errorf("core: module %s has empty time span %v", m.Name, m.Span)
		}
		if !m.Size.FitsEither(geom.Size{W: p.MaxW, H: p.MaxH}) {
			return fmt.Errorf("core: module %s (%v) exceeds the %dx%d core area",
				m.Name, m.Size, p.MaxW, p.MaxH)
		}
	}
	return nil
}

// The annealer's fixed parameters. The paper sets each to one value
// and no experiment varies them.
const (
	// areaT0 is stage 1's starting temperature (Section 4d).
	areaT0 = 10000
	// overlapPenalty is the cost per forbidden-overlap cell (and per
	// obstacle cell covered) that drives infeasibility to zero
	// (Section 4, cost metrics).
	overlapPenalty = 20
	// ltsaT0 is stage 2's starting temperature: low-temperature
	// simulated annealing accepts small uphill moves only.
	ltsaT0 = 5
	// ltsaMargin widens the core area available to stage 2 beyond the
	// stage-1 bounding box, so the placement can trade area for spare
	// cells.
	ltsaMargin = 6
)

// Options configures the annealing placers. Zero fields take the
// paper's defaults via withDefaults.
type Options struct {
	Seed int64 // RNG seed; runs are deterministic per seed

	// Annealing schedule (Section 4d): α = 0.9 and N = 400 × #modules
	// iterations per temperature; T0 is fixed at 10000 (areaT0).
	Alpha          float64
	ItersPerModule int

	// PSingle is the probability p of the single-module displacement
	// family; 1−p selects pair interchange (Section 4b).
	PSingle float64

	// WindowT0 is the temperature at which the controlling window
	// (Section 4c) starts shrinking below the full core span; the
	// window reaches its minimum (1 cell) as T approaches zero.
	WindowT0 float64

	// WindowPatience is the number of consecutive temperature levels
	// the window must sit at its minimum span before annealing stops —
	// the paper's stopping criterion.
	WindowPatience int

	// Search configures deterministic multi-start annealing: AnnealArea,
	// AnnealFaultTolerance and TwoStage fan out Search.Starts
	// independent runs (splitmix64-derived per-start seeds, start 0 =
	// the base seed) across at most Search.Workers goroutines and keep
	// the lowest-cost result, with ties broken by lowest start index.
	// The winner is byte-identical for a given seed at any worker
	// count.
	Search place.SearchOptions

	// Tracer, if non-nil, receives one "anneal.level" span per
	// temperature level and one "anneal.best" event per best-cost
	// improvement of every annealing run these options configure,
	// tagged with the run's stage ("area" or "ft").
	Tracer *telemetry.Tracer

	// Metrics, if non-nil, receives the anneal.* metrics per level and
	// improvement, and the incremental kernel's counters at the end of
	// every annealing run: moves proposed / committed / reverted, delta
	// vs from-scratch cost evaluations, and the FTI cache hit rate.
	// Both sinks are safe for concurrent use, so multi-start search
	// shares them across goroutines.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 0.9
	}
	if o.ItersPerModule == 0 {
		o.ItersPerModule = 400
	}
	if o.PSingle == 0 {
		o.PSingle = 0.8
	}
	if o.WindowT0 == 0 {
		o.WindowT0 = 100
	}
	if o.WindowPatience == 0 {
		o.WindowPatience = 25
	}
	return o
}

// Canonicalized returns the options in the canonical form the
// placement cache fingerprints: the paper's defaults are filled in, so
// a zero field and its explicit default hash to the same key, and the
// telemetry sinks (Tracer, Metrics) — which never influence the
// placement — are cleared.
func (o Options) Canonicalized() Options {
	c := o.withDefaults()
	c.Tracer = nil
	c.Metrics = nil
	c.Search = c.Search.Normalized()
	return c
}

// Stats summarises an annealing run.
type Stats struct {
	Levels      int
	Evaluations int
	FinalCost   float64
}

// Greedy is the baseline placer of Section 6.1: modules are sorted in
// descending footprint order and each is placed at the first
// bottom-left position (scanning y, then x, within the core width)
// where it fits. When timeAware is true, "fits" means no overlap with
// any time-conflicting placed module — reconfiguration-aware but
// greedy; when false, placed modules are never overlapped regardless
// of their time spans, modelling a placer that ignores dynamic
// reconfigurability entirely. Orientations are kept as bound.
func Greedy(prob Problem, timeAware bool) (*place.Placement, error) {
	if err := prob.Validate(); err != nil {
		return nil, err
	}
	p := place.New(prob.Modules)

	order := make([]int, len(prob.Modules))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca := prob.Modules[order[a]].Size.Cells()
		cb := prob.Modules[order[b]].Size.Cells()
		if ca != cb {
			return ca > cb
		}
		return order[a] < order[b]
	})

	placed := make([]bool, len(prob.Modules))
	for _, i := range order {
		sz := prob.Modules[i].Size
		found := false
	scan:
		for y := 0; !found; y++ {
			if y > 10000 {
				break // cannot happen with a sane core width; guard anyway
			}
			for x := 0; x+sz.W <= prob.MaxW; x++ {
				cand := geom.RectAt(geom.Point{X: x, Y: y}, sz)
				if coversObstacle(prob.Obstacles, cand) {
					continue
				}
				if greedyConflicts(p, placed, i, cand, timeAware) {
					continue
				}
				p.Pos[i] = geom.Point{X: x, Y: y}
				found = true
				break scan
			}
		}
		if !found {
			return nil, fmt.Errorf("core: greedy could not place module %s", prob.Modules[i].Name)
		}
		placed[i] = true
	}
	// Normalising would shift modules relative to obstacle coordinates.
	if len(prob.Obstacles) == 0 {
		p.Normalize()
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("core: greedy produced invalid placement: %w", err)
	}
	return p, nil
}

func coversObstacle(obstacles []geom.Point, r geom.Rect) bool {
	for _, o := range obstacles {
		if r.Contains(o) {
			return true
		}
	}
	return false
}

func greedyConflicts(p *place.Placement, placed []bool, i int, cand geom.Rect, timeAware bool) bool {
	for j := range p.Modules {
		if !placed[j] {
			continue
		}
		if timeAware && !p.Modules[i].Span.Overlaps(p.Modules[j].Span) {
			continue
		}
		if cand.Overlaps(p.Rect(j)) {
			return true
		}
	}
	return false
}

// initialPlacement is the simple constructive start of Figure 4a:
// modules packed left-to-right on shelves, ignoring time spans, so the
// start is always feasible.
func initialPlacement(prob Problem) *place.Placement {
	p := place.New(prob.Modules)
	x, y, shelf := 0, 0, 0
	for i, m := range prob.Modules {
		if x+m.Size.W > prob.MaxW {
			x = 0
			y += shelf
			shelf = 0
		}
		p.Pos[i] = geom.Point{X: x, Y: y}
		x += m.Size.W
		if m.Size.H > shelf {
			shelf = m.Size.H
		}
	}
	return p
}

// window returns the controlling-window span at temperature T: the
// full core span at high temperature, shrinking proportionally below
// WindowT0 to a minimum of one cell.
func window(T, windowT0 float64, span int) int {
	if T >= windowT0 {
		return span
	}
	w := int(float64(span) * T / windowT0)
	if w < 1 {
		w = 1
	}
	return w
}

// rotatable reports whether a rotation move may be proposed for m:
// the transposed footprint must itself fit the core area, or clampPos
// would push the module to a negative origin. Auto-sized problems
// (NewProblem) always allow both orientations; fabricated-array
// problems (the recovery ladder's defragmentation) can be tighter
// than a module's transposed footprint.
func rotatable(m place.Module, prob Problem) bool {
	if m.Size.IsSquare() {
		return false
	}
	t := m.Size.Transpose()
	return t.W <= prob.MaxW && t.H <= prob.MaxH
}

// clampPos keeps a module of size sz inside the core area (the paper
// prevents modules from leaving the core boundary during annealing).
func clampPos(p geom.Point, sz geom.Size, prob Problem) geom.Point {
	if p.X < 0 {
		p.X = 0
	}
	if p.Y < 0 {
		p.Y = 0
	}
	if p.X+sz.W > prob.MaxW {
		p.X = prob.MaxW - sz.W
	}
	if p.Y+sz.H > prob.MaxH {
		p.Y = prob.MaxH - sz.H
	}
	return p
}

// AnnealArea runs the fault-oblivious placer of Section 4, minimising
// array area with a forbidden-overlap penalty. Moves are priced
// incrementally by a moveKernel; results are bit-identical to the
// historical clone-and-recompute placer for any given seed.
//
// With opts.Search.Starts > 1 it runs the same deterministic
// multi-start search as TwoStage and returns the winning start's
// placement and stats; with Starts ≤ 1 Search is ignored.
func AnnealArea(prob Problem, opts Options) (*place.Placement, Stats, error) {
	if opts.Search.Starts > 1 {
		type run struct {
			p  *place.Placement
			st Stats
		}
		r, err := multiStart(opts.Search, func(i int) (run, float64, error) {
			p, st, err := AnnealArea(prob, startOptions(opts, i))
			return run{p, st}, st.FinalCost, err
		})
		return r.p, r.st, err
	}
	if err := prob.Validate(); err != nil {
		return nil, Stats{}, err
	}
	o := opts.withDefaults()
	iters, err := o.innerIters(len(prob.Modules))
	if err != nil {
		return nil, Stats{}, fmt.Errorf("core: %w", err)
	}
	k := newMoveKernel(initialPlacement(prob), prob, o, 0, false, false)
	best, st := k.RunMoves(areaT0, iters, rand.New(rand.NewSource(o.Seed)))
	k.flushMetrics(o.Metrics)

	// Do not normalise when obstacles pin absolute coordinates.
	if len(prob.Obstacles) == 0 {
		best.Normalize()
	}
	if err := best.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("core: annealing ended with forbidden overlap: %w", err)
	}
	if hits := prob.obstacleHits(best); hits > 0 {
		return nil, Stats{}, fmt.Errorf("core: annealing could not clear %d obstacle cell(s)", hits)
	}
	return best, st, nil
}

// FTOptions configures stage 2 of the enhanced placement algorithm.
// The LTSA's starting temperature (ltsaT0) and core margin
// (ltsaMargin) are fixed, so β is its one free input.
type FTOptions struct {
	// Beta is the weight β of the fault tolerance term; area carries
	// weight α = 1 (Section 6.2). Larger β buys fault tolerance with
	// area.
	Beta float64
}

// AnnealFaultTolerance runs stage 2 (LTSA) from a stage-1 placement:
// single-module displacement only, fault tolerance index in the cost.
// The run anneals with seed opts.Seed+1.
//
// With opts.Search.Starts > 1 it runs the same deterministic
// multi-start search as AnnealArea, every start refining the given
// stage-1 placement, and returns the winning start's placement and
// stats; with Starts ≤ 1 Search is ignored.
func AnnealFaultTolerance(start *place.Placement, prob Problem, opts Options, ft FTOptions) (*place.Placement, Stats, error) {
	if opts.Search.Starts > 1 {
		type run struct {
			p  *place.Placement
			st Stats
		}
		r, err := multiStart(opts.Search, func(i int) (run, float64, error) {
			p, st, err := AnnealFaultTolerance(start, prob, startOptions(opts, i), ft)
			return run{p, st}, st.FinalCost, err
		})
		return r.p, r.st, err
	}
	return annealFaultTolerance(start, prob, opts, ft)
}

// annealFaultTolerance is one seeded stage-2 run.
func annealFaultTolerance(start *place.Placement, prob Problem, opts Options, ft FTOptions) (*place.Placement, Stats, error) {
	o := opts.withDefaults()
	if start == nil {
		return nil, Stats{}, fmt.Errorf("core: stage 2 requires a stage-1 placement")
	}
	if err := start.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("core: stage-1 placement invalid: %w", err)
	}
	// Stage 2 explores a core that allows growth around the compact
	// stage-1 result.
	bb := start.BoundingBox()
	prob2 := prob
	prob2.MaxW = min(prob.MaxW+ltsaMargin, bb.W+2*ltsaMargin)
	prob2.MaxH = min(prob.MaxH+ltsaMargin, bb.H+2*ltsaMargin)
	if prob2.MaxW < prob.MaxW {
		prob2.MaxW = prob.MaxW
	}
	if prob2.MaxH < prob.MaxH {
		prob2.MaxH = prob.MaxH
	}
	iters, err := o.innerIters(len(prob.Modules))
	if err != nil {
		return nil, Stats{}, fmt.Errorf("core: stage 2: %w", err)
	}
	// Single displacement only; the FTI term is priced by the
	// incremental per-module cache.
	k := newMoveKernel(start.Clone(), prob2, o, ft.Beta, true, true)
	best, st := k.RunMoves(ltsaT0, iters, rand.New(rand.NewSource(o.Seed+1)))
	k.flushMetrics(o.Metrics)

	best.Normalize()
	if err := best.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("core: LTSA ended with forbidden overlap: %w", err)
	}
	return best, st, nil
}

// TwoStageResult bundles the outcome of the enhanced placement
// algorithm with its intermediate stage-1 placement.
type TwoStageResult struct {
	Stage1      *place.Placement
	Final       *place.Placement
	Stage1Stats Stats
	Stage2Stats Stats
	// Start and Seed identify the winning start of a multi-start run:
	// the start index (0 for a single start) and the derived seed it
	// annealed with.
	Start int
	Seed  int64
}

// startOptions resolves the options of start i of a multi-start run:
// the base seed is Options.Seed unless Search.Seed overrides it, start
// 0 runs the base seed unchanged (so a single start is bit-identical
// to a plain run), and start i ≥ 1 runs the splitmix64-derived stream
// seed shared with the campaign runner's per-trial derivation. Search
// is cleared so the per-start run cannot fan out again.
func startOptions(opts Options, i int) Options {
	o := opts
	base := opts.Seed
	if opts.Search.Seed != 0 {
		base = opts.Search.Seed
	}
	if i > 0 {
		base = campaign.DeriveSeed(base, uint64(i))
	}
	o.Seed = base
	o.Search = place.SearchOptions{}
	return o
}

// twoStageOne runs one two-stage placement with the options as given.
func twoStageOne(prob Problem, opts Options, ft FTOptions) (TwoStageResult, error) {
	s1, st1, err := AnnealArea(prob, opts)
	if err != nil {
		return TwoStageResult{}, err
	}
	s2, st2, err := AnnealFaultTolerance(s1, prob, opts, ft)
	if err != nil {
		return TwoStageResult{}, err
	}
	return TwoStageResult{
		Stage1: s1, Final: s2,
		Stage1Stats: st1, Stage2Stats: st2,
		Seed: opts.Seed,
	}, nil
}

// TwoStage runs the enhanced module placement algorithm of
// Section 6.2: fault-oblivious area minimisation followed by LTSA
// refinement of fault tolerance.
//
// With opts.Search.Starts > 1 it becomes a deterministic parallel
// multi-start search (see multiStart): that many independent
// two-stage runs, each with the per-start seed described by
// place.SearchOptions, and the run with the lowest stage-2 final cost
// wins — placements, stats, everything.
func TwoStage(prob Problem, opts Options, ft FTOptions) (TwoStageResult, error) {
	if opts.Search.Starts <= 1 {
		return twoStageOne(prob, startOptions(opts, 0), ft)
	}
	return multiStart(opts.Search, func(i int) (TwoStageResult, float64, error) {
		r, err := twoStageOne(prob, startOptions(opts, i), ft)
		r.Start = i
		return r, r.Stage2Stats.FinalCost, err
	})
}

// multiStart runs search.Starts independent starts of run across at
// most search.Workers goroutines (one per CPU when 0) and returns the
// result of the start with the lowest cost, ties broken by lowest
// start index. Starts are compared in index order over the fully
// collected results, so the winner is byte-identical at any worker
// count. Simulated annealing restarts share nothing mutable: the
// problem is immutable and every kernel, RNG and FTI cache is
// goroutine-private.
func multiStart[R any](search place.SearchOptions, run func(i int) (R, float64, error)) (R, error) {
	starts := search.Starts
	workers := search.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, starts)
	type outcome struct {
		res  R
		cost float64
		err  error
	}
	results := make([]outcome, starts)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < starts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			r, cost, err := run(i)
			results[i] = outcome{r, cost, err}
		}(i)
	}
	wg.Wait()

	best := -1
	for i, o := range results {
		if o.err != nil {
			var zero R
			return zero, fmt.Errorf("core: multi-start %d: %w", i, o.err)
		}
		if best < 0 || o.cost < results[best].cost {
			best = i
		}
	}
	return results[best].res, nil
}

// SweepPoint is one row of the paper's Table 2.
type SweepPoint struct {
	Beta  float64
	Cells int
	FTI   float64
}

// BetaSweep reruns the two-stage algorithm for each β, reproducing the
// area/fault-tolerance trade-off of Table 2. The stage-1 placement is
// computed once and shared; ft.Beta is overridden per point. With
// opts.Search.Starts > 1 stage 1 and every point's stage 2 are
// multi-start searches.
func BetaSweep(prob Problem, opts Options, ft FTOptions, betas []float64) ([]SweepPoint, error) {
	s1, _, err := AnnealArea(prob, opts)
	if err != nil {
		return nil, err
	}
	var out []SweepPoint
	for _, b := range betas {
		ftb := ft
		ftb.Beta = b
		s2, _, err := AnnealFaultTolerance(s1, prob, opts, ftb)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepPoint{
			Beta:  b,
			Cells: s2.ArrayCells(),
			FTI:   fti.Compute(s2).FTI(),
		})
	}
	return out, nil
}
