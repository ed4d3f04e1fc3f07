// Package mixcalc is a test-only oracle: it computes exact fluid
// compositions over a sequencing graph with rational arithmetic (which
// fraction of each dispensed fluid ends up in every intermediate and
// final droplet), and its tests use it to check that the assay
// generators produce the concentrations their protocols demand: every
// PCR reagent at 1/8 of the master mix, the 2^-k rungs of a dilution
// ladder. No production code imports it.
//
// Model: a dispense produces one unit of its fluid; a mix or dilute
// merges its input droplets (volumes add, compositions combine
// volume-weighted); a dilute splits its merged droplet evenly across
// its successors; store/detect/output pass droplets through. All
// arithmetic is big.Rat — no floating-point drift.
package mixcalc

import (
	"fmt"
	"math/big"

	"dmfb/internal/assay"
)

// Composition maps fluid name → volume (in dispense units) present in
// a droplet. The zero value is empty.
type Composition map[string]*big.Rat

// Volume returns the total droplet volume.
func (c Composition) Volume() *big.Rat {
	v := new(big.Rat)
	for _, q := range c {
		v.Add(v, q)
	}
	return v
}

// Fraction returns fluid's share of the droplet volume (0 if absent or
// the droplet is empty).
func (c Composition) Fraction(fluid string) *big.Rat {
	q, ok := c[fluid]
	if !ok {
		return new(big.Rat)
	}
	vol := c.Volume()
	if vol.Sign() == 0 {
		return new(big.Rat)
	}
	return new(big.Rat).Quo(q, vol)
}

// Equal reports whether two compositions are identical.
func (c Composition) Equal(o Composition) bool {
	if len(c) != len(o) {
		return false
	}
	for f, q := range c {
		oq, ok := o[f]
		if !ok || q.Cmp(oq) != 0 {
			return false
		}
	}
	return true
}

// String renders the composition deterministically is not needed for
// the API; fmt prints maps sorted since Go 1.12.
func (c Composition) String() string {
	return fmt.Sprintf("%v (vol %s)", map[string]*big.Rat(c), c.Volume().RatString())
}

func (c Composition) clone() Composition {
	out := make(Composition, len(c))
	for f, q := range c {
		out[f] = new(big.Rat).Set(q)
	}
	return out
}

// scale multiplies every constituent by k.
func (c Composition) scale(k *big.Rat) Composition {
	out := make(Composition, len(c))
	for f, q := range c {
		out[f] = new(big.Rat).Mul(q, k)
	}
	return out
}

// add merges o into c (volumes add).
func (c Composition) add(o Composition) {
	for f, q := range o {
		if cur, ok := c[f]; ok {
			cur.Add(cur, q)
		} else {
			c[f] = new(big.Rat).Set(q)
		}
	}
}

// Result holds the composition of every operation's output droplet(s).
type Result struct {
	// PerOp[id] is the composition of ONE output droplet of op id
	// (after any splitting).
	PerOp []Composition
	// Outputs lists the droplet compositions at the graph's sinks, in
	// sink ID order, one entry per droplet (a sink dilute contributes
	// its split outputs).
	Outputs []Composition
}

// Concentrations computes the exact composition of every droplet in
// the assay. It fails on graphs where a dilute has other than two
// successors... — precisely: a dilute's merged droplet is divided
// evenly among its successors (or reported whole if it is a sink).
func Concentrations(g *assay.Graph) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	res := &Result{PerOp: make([]Composition, g.NumOps())}
	for _, v := range order {
		op := g.Op(v)
		merged := Composition{}
		for _, p := range g.Pred(v) {
			merged.add(res.PerOp[p])
		}
		switch op.Kind {
		case assay.Dispense:
			merged = Composition{op.Fluid: big.NewRat(1, 1)}
		case assay.Dilute:
			if n := len(g.Succ(v)); n > 1 {
				merged = merged.scale(big.NewRat(1, int64(n)))
			}
		case assay.Mix, assay.Store, assay.Detect, assay.Output:
			// pass through
		default:
			return nil, fmt.Errorf("mixcalc: unknown op kind %v", op.Kind)
		}
		res.PerOp[v] = merged
	}
	for _, s := range g.Sinks() {
		op := g.Op(s)
		n := 1
		if op.Kind == assay.Dilute {
			// A sink dilute still physically splits into two droplets.
			n = 2
			res.PerOp[s] = res.PerOp[s].scale(big.NewRat(1, 2))
		}
		for i := 0; i < n; i++ {
			res.Outputs = append(res.Outputs, res.PerOp[s].clone())
		}
	}
	return res, nil
}
