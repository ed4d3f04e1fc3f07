package core

import (
	"math"
	"math/rand"

	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// kernelMove is one Section 4(b) perturbation in move form: up to two
// module relocations (one for the displacement families, two for the
// interchange families). A rejected move is undone in place from the
// journal Bound opens (place.State's, plus the obstacle-hit counts
// saved here) instead of discarding a cloned placement. The kernel
// proposes every move into one buffer it owns (RunMoves finishes a
// move before proposing the next), so the moves travel by pointer and
// are never copied.
type kernelMove struct {
	n       int // 1 or 2 relocations
	idx     [2]int
	newPos  [2]geom.Point
	newRot  [2]bool
	oldHits [2]int // each moved module's obstacle hits before Bound
}

// kernelCounters tallies the incremental kernel's work for the
// telemetry registry.
type kernelCounters struct {
	proposed  int64 // moves proposed
	committed int64 // moves committed (accepted)
	reverted  int64 // moves reverted (rejected)
	deltaEval int64 // incremental (delta) cost evaluations
	boundRej  int64 // moves rejected on their bound, without a delta
	scratch   int64 // from-scratch cost constructions
}

// moveKernel prices the annealing placers' moves incrementally. It
// owns a place.State (overlap + bounding box in O(degree) per move),
// an optional fti.Incremental (stage 2 only), and running obstacle-
// hit counts, and derives the cost from those integer quantities with
// exactly the floating-point expression the clone-based placer used —
// so a move-based run replays a clone-based run bit for bit.
type moveKernel struct {
	prob       Problem
	o          Options
	beta       float64
	useFTI     bool
	singleOnly bool
	span       int    // core span the controlling window shrinks from
	rotatable  []bool // per module: may a move rotate it
	windowT    float64
	windowW    int // window(windowT), 0 before the first Propose

	st      *place.State
	inc     *fti.Incremental
	hits    int   // (module, obstacle) incidences, maintained per move
	modHits []int // hits per module; nil without obstacles
	atHits  int   // hits before the staged move

	cost    float64 // committed cost
	pending float64 // staged cost, adopted by Commit
	priced  bool    // Delta ran on the staged move

	move     kernelMove // buffer Propose fills
	dirty    []int      // scratch: modules invalidated by the staged move
	dirtyIn  []bool     // scratch: dedup marks, index-aligned with modules
	thresh   expMemo    // Metropolis thresholds of RunMoves' current level
	counters kernelCounters
}

// newMoveKernel builds the kernel around p (which it will mutate) and
// derives the initial cost from scratch.
func newMoveKernel(p *place.Placement, prob Problem, o Options, beta float64, useFTI, singleOnly bool) *moveKernel {
	k := &moveKernel{
		prob:       prob,
		o:          o,
		beta:       beta,
		useFTI:     useFTI,
		singleOnly: singleOnly,
		span:       max(prob.MaxW, prob.MaxH),
		rotatable:  make([]bool, len(p.Modules)),
		st:         place.NewState(p),
		dirtyIn:    make([]bool, len(p.Modules)),
	}
	for i, m := range p.Modules {
		k.rotatable[i] = rotatable(m, prob)
	}
	if useFTI {
		k.inc = fti.NewIncremental(p)
	}
	if len(prob.Obstacles) > 0 {
		k.modHits = make([]int, len(p.Modules))
		for i := range p.Modules {
			k.modHits[i] = coversObstacleCount(prob.Obstacles, k.st.Rect(i))
			k.hits += k.modHits[i]
		}
	}
	k.cost = k.costNow()
	k.counters.scratch++
	return k
}

// stage tags the kernel's telemetry: "area" for stage 1, "ft" for
// stage 2's LTSA.
func (k *moveKernel) stage() string {
	if k.useFTI {
		return "ft"
	}
	return "area"
}

// costNow evaluates the cost of the current (possibly staged) state
// from the kernel's integer books, with the same expression and
// operation order as the clone-and-recompute reference cost
// (reference_test.go), so the floats are bit-identical.
func (k *moveKernel) costNow() float64 {
	c := k.areaCost()
	if k.useFTI && k.st.Overlap() == 0 {
		c -= k.beta * (float64(k.inc.Covered()) / float64(k.inc.Total()))
	}
	return c
}

// areaCost is costNow up to, and without, its FTI term.
func (k *moveKernel) areaCost() float64 {
	c := float64(k.st.ArrayCells()) + overlapPenalty*float64(k.st.Overlap())
	if len(k.prob.Obstacles) > 0 {
		c += overlapPenalty * float64(k.hits)
	}
	return c
}

// Propose generates a Section 4(b) move. It consumes the RNG in
// exactly the order the clone-and-recompute reference placer
// (reference_test.go) does, so seeded runs match it.
func (k *moveKernel) Propose(T float64, rng *rand.Rand) *kernelMove {
	p := k.st.P
	n := len(p.Modules)
	if T != k.windowT || k.windowW == 0 {
		k.windowT, k.windowW = T, window(T, k.o.WindowT0, k.span)
	}
	w := k.windowW

	m := &k.move
	*m = kernelMove{}
	if k.singleOnly || n < 2 || rng.Float64() < k.o.PSingle {
		// Move types (i)/(ii): displace one module within the window,
		// possibly changing its orientation.
		i := rng.Intn(n)
		m.n = 1
		m.idx[0] = i
		rot := p.Rot[i]
		if rng.Intn(2) == 0 && k.rotatable[i] {
			rot = !rot
		}
		dx := rng.Intn(2*w+1) - w
		dy := rng.Intn(2*w+1) - w
		m.newRot[0] = rot
		m.newPos[0] = clampPos(p.Pos[i].Add(geom.Point{X: dx, Y: dy}),
			p.Modules[i].Oriented(rot), k.prob)
	} else {
		// Move types (iii)/(iv): interchange a pair, possibly rotating
		// one of the two.
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		m.n = 2
		m.idx[0], m.idx[1] = i, j
		m.newRot[0], m.newRot[1] = p.Rot[i], p.Rot[j]
		if rng.Intn(2) == 0 {
			t := 0
			if rng.Intn(2) == 0 {
				t = 1
			}
			if k.rotatable[m.idx[t]] {
				m.newRot[t] = !m.newRot[t]
			}
		}
		m.newPos[0] = clampPos(p.Pos[j], p.Modules[i].Oriented(m.newRot[0]), k.prob)
		m.newPos[1] = clampPos(p.Pos[i], p.Modules[j].Oriented(m.newRot[1]), k.prob)
	}
	k.counters.proposed++
	return m
}

// Bound stages m in the placement — overlap, bounding box, obstacle
// hits — under a fresh undo journal, and returns a lower bound on its
// cost change: the exact change with the FTI term at its best value,
// every cell covered. Since covered/total ≤ 1 and float rounding is
// monotone, β·(covered/total) ≤ β holds after rounding too, so the
// bound is sound in floating point. It is exact when the move creates
// overlap (the cost then ignores the FTI) and in stage 1, and −Inf
// under priceEveryMove.
func (k *moveKernel) Bound(m *kernelMove) float64 {
	k.st.Begin()
	k.atHits = k.hits
	for t := 0; t < m.n; t++ {
		k.relocate(m, t)
	}
	k.priced = false
	k.pending = k.areaCost()
	lb := k.pending
	if priceEveryMove {
		return math.Inf(-1)
	}
	if k.useFTI && k.st.Overlap() == 0 {
		lb -= max(k.beta, 0)
	}
	return lb - k.cost
}

// Delta completes the staging Bound began — applying the move to the
// FTI caches in stage 2 — and returns the exact cost change.
func (k *moveKernel) Delta(m *kernelMove) float64 {
	if k.useFTI {
		k.inc.Apply(k.st.BoundingBox(), k.dirtySet(m))
		k.pending = k.costNow()
	}
	k.priced = true
	k.counters.deltaEval++
	return k.pending - k.cost
}

// Commit finalises the staged move.
func (k *moveKernel) Commit(m *kernelMove) {
	if k.useFTI {
		k.inc.Commit()
	}
	k.st.Commit()
	k.cost = k.pending
	k.counters.committed++
}

// Revert undoes the staged move exactly, whether or not Delta ran,
// from the journal Bound opened.
func (k *moveKernel) Revert(m *kernelMove) {
	if !k.priced {
		k.counters.boundRej++
	} else if k.useFTI {
		k.inc.Revert()
	}
	k.st.Rollback()
	if k.modHits != nil {
		for t := 0; t < m.n; t++ {
			k.modHits[m.idx[t]] = m.oldHits[t]
		}
		k.hits = k.atHits
	}
	k.counters.reverted++
}

// relocate applies m's t-th relocation to the placement state and
// keeps the obstacle-hit counts in step, counting only the new
// rectangle's obstacle cells.
func (k *moveKernel) relocate(m *kernelMove, t int) {
	i := m.idx[t]
	k.st.MoveModule(i, m.newPos[t], m.newRot[t])
	if k.modHits != nil {
		h := coversObstacleCount(k.prob.Obstacles, k.st.Rect(i))
		m.oldHits[t] = k.modHits[i]
		k.hits += h - k.modHits[i]
		k.modHits[i] = h
	}
}

// dirtySet returns the deduplicated FTI-invalidation set of m: the
// moved modules plus their span-conflict neighbours.
func (k *moveKernel) dirtySet(m *kernelMove) []int {
	k.dirty = k.dirty[:0]
	add := func(i int) {
		if !k.dirtyIn[i] {
			k.dirtyIn[i] = true
			k.dirty = append(k.dirty, i)
		}
	}
	for t := 0; t < m.n; t++ {
		add(m.idx[t])
		for _, j := range k.st.Adjacent(m.idx[t]) {
			add(j)
		}
	}
	for _, i := range k.dirty {
		k.dirtyIn[i] = false
	}
	return k.dirty
}

// coversObstacleCount counts the obstacle cells r covers.
func coversObstacleCount(obstacles []geom.Point, r geom.Rect) int {
	n := 0
	for _, o := range obstacles {
		if r.Contains(o) {
			n++
		}
	}
	return n
}

// flushMetrics publishes the kernel's counters to the registry (no-op
// for a nil registry), tagged with the kernel's stage.
func (k *moveKernel) flushMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c, stage := k.counters, k.stage()
	reg.Counter("place." + stage + ".moves_proposed").Add(c.proposed)
	reg.Counter("place." + stage + ".moves_committed").Add(c.committed)
	reg.Counter("place." + stage + ".moves_reverted").Add(c.reverted)
	reg.Counter("place." + stage + ".delta_evals").Add(c.deltaEval)
	reg.Counter("place." + stage + ".bound_rejects").Add(c.boundRej)
	reg.Counter("place." + stage + ".scratch_evals").Add(c.scratch)
	if k.inc != nil {
		evals, hits := k.inc.Stats()
		reg.Counter("place.fti.module_evals").Add(evals)
		reg.Counter("place.fti.cache_hits").Add(hits)
		reg.Counter("place." + stage + ".rebuilds").Add(k.inc.Rebuilds())
		if evals+hits > 0 {
			reg.Gauge("place.fti.cache_hit_rate").Set(float64(hits) / float64(evals+hits))
		}
	}
}
