package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/emptyrect"
	"dmfb/internal/faultsim"
	"dmfb/internal/fti"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// oracleSample is how many of a run's placements are checked against
// the brute-force FTI oracle.
const oracleSample = 2

// designQuality checks a workload's placements and returns their mean
// FTI, mean array area, and mean single-fault survival from exhaustive
// fault injection with partial reconfiguration. That survival equals
// the FTI by the paper's definition, which the gate checks per design.
// A seeded sample is also checked against the brute-force FTI oracle.
func designQuality(b *bench, designs []*place.Placement) quality {
	var q quality
	for i, p := range designs {
		b.gate.check(p.Validate() == nil, "design %d: %v", i, p.Validate())
		r := fti.Compute(p)
		s := faultsim.ExhaustiveSingleFault(p)
		b.gate.check(s.Trials == r.Total && s.Survived == r.Covered,
			"design %d: exhaustive single-fault survival %d/%d, FTI %d/%d", i, s.Survived, s.Trials, r.Covered, r.Total)
		q.FTIMean += r.FTI()
		q.AreaMean += float64(p.ArrayCells())
		q.SurvivalRate += s.SurvivalRate()
	}
	n := float64(len(designs))
	q.FTIMean /= n
	q.AreaMean /= n
	q.SurvivalRate /= n

	rng := rand.New(rand.NewSource(b.seed))
	for _, i := range rng.Perm(len(designs))[:min(oracleSample, len(designs))] {
		p := designs[i]
		got, want := fti.Compute(p), fti.ComputeBrute(p, p.BoundingBox())
		b.gate.check(sameCoverage(got, want), "design %d: fti.Compute %d/%d, ComputeBrute %d/%d",
			i, got.Covered, got.Total, want.Covered, want.Total)
	}
	return q
}

func sameCoverage(a, b fti.Result) bool {
	if a.Covered != b.Covered || a.Total != b.Total || len(a.CoveredMap) != len(b.CoveredMap) {
		return false
	}
	for i := range a.CoveredMap {
		if a.CoveredMap[i] != b.CoveredMap[i] {
			return false
		}
	}
	return true
}

// designPool holds the first result of each input of a workload's
// pool, so every repeat of an input can be checked against it.
type designPool struct {
	mu   sync.Mutex
	done []*place.Placement
	left int
}

func newDesignPool(n int) *designPool {
	return &designPool{done: make([]*place.Placement, n), left: n}
}

// check validates the result p of input i and requires a repeat to
// match the first result exactly.
func (d *designPool) check(i int, p *place.Placement) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("input %d: %w", i, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.done[i] == nil:
		d.done[i] = p
		d.left--
	case !samePlacement(d.done[i], p):
		return fmt.Errorf("input %d: result differs from its first run", i)
	}
	return nil
}

// complete reports whether every input has produced a result.
func (d *designPool) complete() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.left == 0
}

// samePlacement reports whether two placements put every module at the
// same origin and orientation.
func samePlacement(a, b *place.Placement) bool {
	if len(a.Pos) != len(b.Pos) {
		return false
	}
	for i := range a.Pos {
		if a.Pos[i] != b.Pos[i] || a.Rot[i] != b.Rot[i] {
			return false
		}
	}
	return true
}

// replayReps repeats each replayed call so sub-microsecond calls still
// time above the clock's resolution.
const replayReps = 20

// replayFTILayers times the public calls the FTI evaluation is built
// from on each design: fti.Compute, and per module the occupancy grid
// during its time span (place.OccupancyDuring) and the maximal empty
// rectangles of that grid (emptyrect.Maximal).
func replayFTILayers(designs []*place.Placement, m metrics) error {
	if len(designs) == 0 {
		return fmt.Errorf("no designs to replay")
	}
	var ftiD, occD, merD time.Duration
	var ftiN, modN int
	for _, p := range designs {
		bb := p.BoundingBox()
		t0 := time.Now()
		for r := 0; r < replayReps; r++ {
			fti.Compute(p)
		}
		ftiD += time.Since(t0)
		ftiN += replayReps
		for i, mod := range p.Modules {
			t0 = time.Now()
			var g = p.OccupancyDuring(bb, mod.Span, i)
			for r := 1; r < replayReps; r++ {
				g = p.OccupancyDuring(bb, mod.Span, i)
			}
			occD += time.Since(t0)
			t0 = time.Now()
			for r := 0; r < replayReps; r++ {
				emptyrect.Maximal(g)
			}
			merD += time.Since(t0)
			modN += replayReps
		}
	}
	us := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(n) }
	m.set("fti.compute_us", us(ftiD, ftiN), "us")
	m.set("grid.occupancy_us", us(occD, modN), "us")
	m.set("emptyrect.maximal_us", us(merD, modN), "us")
	return nil
}

// annealLayers sets a stage's per-layer metrics from the kernel
// counters the annealer flushed into reg ("area" for stage 1, "ft" for
// stage 2), the stage's total wall time and its number of runs.
func annealLayers(m metrics, reg counterDelta, stage, prefix string, wall time.Duration, runs int) {
	if runs == 0 {
		return
	}
	proposed := float64(reg.counter("place." + stage + ".moves_proposed"))
	committed := float64(reg.counter("place." + stage + ".moves_committed"))
	m.set(prefix+"_ms", wall.Seconds()*1e3/float64(runs), "ms")
	m.set(prefix+"_moves", proposed/float64(runs), "count")
	if proposed > 0 {
		m.set(prefix+"_ns_per_move", float64(wall.Nanoseconds())/proposed, "ns")
		m.set(prefix+"_accept_rate", committed/proposed, "fraction")
	}
}

// ftiCacheLayers sets the incremental FTI evaluator's ratios from the
// place.fti.* counters of stage-2 runs.
func ftiCacheLayers(m metrics, reg counterDelta) {
	evals := float64(reg.counter("place.fti.module_evals"))
	hits := float64(reg.counter("place.fti.cache_hits"))
	if moves := float64(reg.counter("place.ft.moves_proposed")); moves > 0 {
		m.set("fti.module_evals_per_move", evals/moves, "count")
	}
	if evals+hits > 0 {
		m.set("fti.cache_hit_rate", hits/(evals+hits), "fraction")
	}
}

// counterDelta reads counters as the change between two snapshots of
// one registry.
type counterDelta struct{ from, to telemetry.Snapshot }

func (d counterDelta) counter(name string) int64 { return d.to.Counters[name] - d.from.Counters[name] }

// meanOf returns the mean of xs, or 0 for none.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runOps calls op on b.workers goroutines. Each goroutine takes the
// next pair number k of the sequence next and calls op(k, false), then
// op(k, true): the second op repeats the first's input on the same
// goroutine right after it. So the miss (first run) and hit (repeat)
// classes each hold half the ops, spread through the whole run, and a
// result cache added later would show on the hit class. Before each
// op the goroutine takes a host-speed probe (see probe.go).
//
// The phase ends on a whole pass of the pool, after at least minPasses
// passes: once its deadline has passed, no pair is started beyond the
// next multiple of pool. Every run then times the same mix of inputs,
// whatever the seed's order, so a run cut mid-pass cannot tilt
// throughput and the medians toward the inputs that happened to run
// last. After a failure the phase ends at the deadline.
func runOps(b *bench, ph *phase, next *atomic.Int64, pool, minPasses int, op func(k int, repeat bool)) {
	var mu sync.Mutex
	end := int64(-1) // the first pair number not to run, once known
	first := next.Load()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		k := next.Load()
		if end < 0 && ph.expired() {
			end = k
			if ph.failures() == 0 {
				end = max((k+int64(pool)-1)/int64(pool)*int64(pool), first+int64(minPasses*pool))
			}
		}
		if end >= 0 && k >= end {
			return 0, false
		}
		next.Store(k + 1)
		return int(k), true
	}
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, ok := take(); ok; k, ok = take() {
				ph.probe.sample()
				op(k, false)
				ph.probe.sample()
				op(k, true)
			}
		}()
	}
	wg.Wait()
}
