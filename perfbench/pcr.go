package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// table2Betas is the β sweep of the paper's Table 2.
var table2Betas = []float64{10, 20, 30, 40, 50, 60}

// table2Seeds is how many stage-1 placements, each annealed with its
// own seed derived from the workload seed, the sweep runs from. The
// mid-range βs' FTI depends on the stage-1 placement; averaging over
// six keeps fti_mean within a few percent from seed to seed.
const table2Seeds = 6

// table2Passes is the least number of whole passes of the sweep (72
// ops, ~18 s on two CPUs) a timed phase runs. With 20 s runs a phase
// ends after one pass or two as the host's speed puts the first pass
// under or over the deadline, and the tail percentile's rank moves with
// the op count; two passes at least keep every run at two.
const table2Passes = 2

// pcrTable2 replays the paper's Table 2 experiment on the PCR assay:
// one op is one stage-2 LTSA run at one β from a shared stage-1
// placement, followed by fti.Compute on its result (core.BetaSweep's
// inner step), with one op in flight per CPU. Set-up synthesises PCR
// and anneals the stage-1 placements.
type pcrTable2 struct {
	prob   core.Problem
	seeds  []int64
	stage1 []*place.Placement
	s1Dur  []time.Duration     // stage-1 run times of the last set-up
	s1Reg  *telemetry.Registry // stage-1 kernel counters of the last set-up
	pool   []table2Point       // the sweep, in seeded order
	done   *designPool
	next   atomic.Int64 // op pair number, across phases
}

type table2Point struct {
	stage1 int
	beta   float64
}

// table2Pool lists every (stage-1 seed, β) point in the seed's order.
func table2Pool(seed int64) []table2Point {
	var pool []table2Point
	for j := 0; j < table2Seeds; j++ {
		for _, b := range table2Betas {
			pool = append(pool, table2Point{j, b})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	return pool
}

// table2Stage1Seeds derives the stage-1 annealing seeds.
func table2Stage1Seeds(seed int64) []int64 {
	s := make([]int64, table2Seeds)
	for j := range s {
		s[j] = campaign.DeriveSeed(seed, uint64(j))
	}
	return s
}

func (w *pcrTable2) setup(b *bench) error {
	s, err := pcr.Schedule()
	if err != nil {
		return err
	}
	w.prob = core.FromSchedule(s)
	w.seeds = table2Stage1Seeds(b.seed)
	w.s1Reg = telemetry.NewRegistry()
	w.stage1 = make([]*place.Placement, len(w.seeds))
	w.s1Dur = make([]time.Duration, len(w.seeds))
	if err := parallel(b.workers, len(w.seeds), func(j int) (err error) {
		t0 := time.Now()
		w.stage1[j], _, err = core.AnnealArea(w.prob, core.Options{Seed: w.seeds[j], Metrics: w.s1Reg})
		w.s1Dur[j] = time.Since(t0)
		return err
	}); err != nil {
		return err
	}
	w.pool = table2Pool(b.seed)
	w.done = newDesignPool(len(w.pool))
	w.next.Store(0)
	return nil
}

func (w *pcrTable2) run(b *bench, ph *phase) error {
	runOps(b, ph, &w.next, len(w.pool), table2Passes, func(k int, hit bool) {
		i := k % len(w.pool)
		pt := w.pool[i]
		op := ph.tr.Start("bench.op")
		t0 := time.Now()
		sp := op.StartChild("core.AnnealFaultTolerance")
		p, st, err := core.AnnealFaultTolerance(w.stage1[pt.stage1], w.prob,
			core.Options{Seed: w.seeds[pt.stage1], Metrics: ph.reg}, core.FTOptions{Beta: pt.beta})
		sp.End(nil)
		if err == nil {
			sp = op.StartChild("fti.Compute")
			fti.Compute(p)
			sp.End(nil)
			err = w.done.check(i, p)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		op.End(telemetry.Fields{"beta": pt.beta})
		ph.record(ms, hit, err)
		ph.observe("levels", float64(st.Levels))
	})
	return nil
}

func (w *pcrTable2) finish(b *bench) (quality, error) {
	if !w.done.complete() {
		return quality{}, fmt.Errorf("the sweep did not complete")
	}
	for _, p := range w.stage1 {
		b.gate.check(p.Validate() == nil, "stage-1 placement: %v", p.Validate())
	}
	return designQuality(b, w.done.done), nil
}

func (w *pcrTable2) layers(b *bench, ph *phase, spans map[string]spanStat, m metrics) error {
	s2 := spans["core.AnnealFaultTolerance"]
	reg := counterDelta{to: ph.reg.Snapshot()}
	annealLayers(m, reg, "ft", "core.stage2", msDuration(s2.TotalMS), s2.Count)
	var s1 time.Duration
	for _, d := range w.s1Dur {
		s1 += d
	}
	annealLayers(m, counterDelta{to: w.s1Reg.Snapshot()}, "area", "core.stage1", s1, len(w.seeds))
	ftiCacheLayers(m, reg)
	m.set("anneal.levels", meanOf(ph.series["levels"]), "count")
	return replayFTILayers(w.done.done, m)
}

func (w *pcrTable2) close() {}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// parallel runs fn(0..n-1) on at most workers goroutines and returns
// the first error.
func parallel(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
