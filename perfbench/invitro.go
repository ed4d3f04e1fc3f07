package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/invitro"
	"dmfb/internal/telemetry"
)

// invitroDesign is one area-only placement problem of the pool: an
// n×n in-vitro diagnostic annealed with a fixed seed.
type invitroDesign struct {
	n    int
	seed int64
}

// invitroPool is the design pool. Its annealing seeds are fixed rather
// than drawn from the workload seed: area-only placements of these
// assays have FTIs near zero (0 to 0.37 per design), so a pool drawn
// per seed moves fti_mean by about 30% between seeds. The workload
// seed sets the order the pool runs in. The mix (4×4 ~1.3 s, 3×3
// ~0.5 s, 2×2 ~0.13 s an op) puts the median inside the 3×3 class and
// the tail percentile inside the 4×4 class, each several ranks from a
// class boundary, so neither flips between size classes.
var invitroPool = []invitroDesign{
	{4, 1}, {4, 2},
	{3, 1}, {3, 2}, {3, 3},
	{2, 1}, {2, 2},
}

// invitroSizes are the n×n diagnostics the pool draws from.
var invitroSizes = []int{2, 3, 4}

// invitroArea is the stage-1 workload on in-vitro arrays 1.5–7× the
// size of PCR's: one op is one area-only anneal (core.AnnealArea) plus
// fti.Compute on the result, with one op in flight per CPU. Set-up
// synthesises every size and runs a fixed 3×3 warm-up anneal per CPU
// (~0.4 s), so set-up time is not a sub-millisecond figure, or a
// 0.1 s one, at the mercy of the clock.
type invitroArea struct {
	probs map[int]core.Problem
	order []int // pool indices in the seed's order
	done  *designPool
	next  atomic.Int64
}

// invitroOrder is the seed's permutation of the pool.
func invitroOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(len(invitroPool))
}

func (w *invitroArea) setup(b *bench) error {
	w.probs = make(map[int]core.Problem)
	for _, n := range invitroSizes {
		s, err := invitro.Synthesize(n, n, 0)
		if err != nil {
			return err
		}
		w.probs[n] = core.FromSchedule(s)
	}
	if err := parallel(b.workers, b.workers, func(int) error {
		p, _, err := core.AnnealArea(w.probs[3], core.Options{Seed: 1})
		if err == nil {
			fti.Compute(p)
		}
		return err
	}); err != nil {
		return err
	}
	w.order = invitroOrder(b.seed)
	w.done = newDesignPool(len(invitroPool))
	w.next.Store(0)
	return nil
}

func (w *invitroArea) run(b *bench, ph *phase) error {
	runOps(b, ph, &w.next, len(w.order), 1, func(k int, hit bool) {
		i := w.order[k%len(w.order)]
		d := invitroPool[i]
		op := ph.tr.Start("bench.op")
		t0 := time.Now()
		sp := op.StartChild("core.AnnealArea")
		p, st, err := core.AnnealArea(w.probs[d.n], core.Options{Seed: d.seed, Metrics: ph.reg})
		sp.End(nil)
		if err == nil {
			sp = op.StartChild("fti.Compute")
			fti.Compute(p)
			sp.End(nil)
			err = w.done.check(i, p)
		}
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		op.End(telemetry.Fields{"size": d.n})
		ph.record(ms, hit, err)
		ph.observe("levels", float64(st.Levels))
	})
	return nil
}

func (w *invitroArea) finish(b *bench) (quality, error) {
	if !w.done.complete() {
		return quality{}, fmt.Errorf("the design pool did not complete")
	}
	return designQuality(b, w.done.done), nil
}

func (w *invitroArea) layers(b *bench, ph *phase, spans map[string]spanStat, m metrics) error {
	s1 := spans["core.AnnealArea"]
	annealLayers(m, counterDelta{to: ph.reg.Snapshot()}, "area", "core.stage1", msDuration(s1.TotalMS), s1.Count)
	m.set("anneal.levels", meanOf(ph.series["levels"]), "count")
	return replayFTILayers(w.done.done, m)
}

func (w *invitroArea) close() {}
