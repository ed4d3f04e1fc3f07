package core

import (
	"math/rand"

	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// The clone-and-recompute reference placer: neighbor clones the
// placement per proposal and ftCost re-derives the stage-2 cost from
// scratch. Production annealing prices moves incrementally through
// moveKernel; the kernel differential tests and the Stage*Clone
// benchmarks compare against this reference.

// neighbor generates a new placement per Section 4b. It never mutates
// cur.
func neighbor(cur *place.Placement, prob Problem, o Options, T float64, rng *rand.Rand, singleOnly bool) *place.Placement {
	next := cur.Clone()
	n := len(next.Modules)
	span := prob.MaxW
	if prob.MaxH > span {
		span = prob.MaxH
	}
	w := window(T, o.WindowT0, span)

	if singleOnly || n < 2 || rng.Float64() < o.PSingle {
		// Move types (i)/(ii): displace one module within the window,
		// possibly changing its orientation.
		i := rng.Intn(n)
		if rng.Intn(2) == 0 && rotatable(next.Modules[i], prob) {
			next.Rot[i] = !next.Rot[i]
		}
		dx := rng.Intn(2*w+1) - w
		dy := rng.Intn(2*w+1) - w
		next.Pos[i] = clampPos(next.Pos[i].Add(geom.Point{X: dx, Y: dy}), next.Size(i), prob)
	} else {
		// Move types (iii)/(iv): interchange a pair, possibly rotating
		// one of the two.
		i := rng.Intn(n)
		j := rng.Intn(n - 1)
		if j >= i {
			j++
		}
		next.Pos[i], next.Pos[j] = next.Pos[j], next.Pos[i]
		if rng.Intn(2) == 0 {
			k := i
			if rng.Intn(2) == 0 {
				k = j
			}
			if rotatable(next.Modules[k], prob) {
				next.Rot[k] = !next.Rot[k]
			}
		}
		next.Pos[i] = clampPos(next.Pos[i], next.Size(i), prob)
		next.Pos[j] = clampPos(next.Pos[j], next.Size(j), prob)
	}
	return next
}

// ftCost is the stage-2 cost metric: α·area − β·FTI (α = 1) plus the
// forbidden-overlap and obstacle penalties. Area is in cells; the
// fault-tolerance term is the index so that β expresses how many cells
// of area one unit of FTI is worth.
func ftCost(p *place.Placement, prob Problem, o Options, beta float64) float64 {
	c := float64(p.ArrayCells()) + overlapPenalty*float64(p.OverlapCells())
	if len(prob.Obstacles) > 0 {
		c += overlapPenalty * float64(prob.obstacleHits(p))
	}
	if p.Valid() {
		c -= beta * fti.Compute(p).FTI()
	}
	return c
}
