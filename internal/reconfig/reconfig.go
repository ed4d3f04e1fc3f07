// Package reconfig implements the paper's partial reconfiguration
// (Section 5.1): when a cell is detected faulty during field
// operation, the module containing it is relocated to fault-free
// unused cells by reprogramming control voltages, while the rest of
// the configuration is left untouched. The target site comes from
// fti.Site, which scans the same free sites the fault tolerance index
// intersects, so a placement's FTI exactly predicts which faults this
// package can recover from.
package reconfig

import (
	"fmt"
	"sync/atomic"
	"time"

	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// instr is the package-level metrics hook. Reconfiguration planning
// is invoked deep inside the simulator and the fault-injection
// campaigns, with no options struct to thread a registry through, so
// the hook is process-wide; the disabled cost is one atomic load.
var instr atomic.Pointer[telemetry.Registry]

// Instrument directs reconfiguration metrics (reconfig.plan_ms,
// reconfig.relocations, reconfig.plan_failures, reconfig.applies) to
// reg; nil disables them.
func Instrument(reg *telemetry.Registry) { instr.Store(reg) }

// Relocation describes one successful partial reconfiguration.
type Relocation struct {
	Module int       // index of the relocated module
	From   geom.Rect // original site
	To     geom.Rect // new site (possibly rotated footprint)
	Fault  geom.Point
}

// String summarises the relocation.
func (r Relocation) String() string {
	return fmt.Sprintf("module %d: %v -> %v (fault at %v)", r.Module, r.From, r.To, r.Fault)
}

// Rotated reports whether the relocation changed the module's
// orientation.
func (r Relocation) Rotated() bool {
	return r.From.Size() != r.To.Size()
}

// Plan computes the partial reconfiguration for a fault at cell pt on
// the given array. It returns the relocations needed — one per module
// whose rectangle contains pt (several modules may time-share the
// faulty cell) — without modifying the placement. An error is
// returned when some affected module cannot be relocated; in that case
// the fault is not C-covered and the assay must be aborted or the chip
// taken offline.
//
// Obstacles are previously detected faulty cells that must also stay
// uncovered: when faults accumulate over a chip's lifetime, every
// earlier fault is as dead as the new one, so relocation sites must
// avoid them all, not just the newest cell.
//
// Each relocation goes to the free site avoiding the faulty cell and
// the obstacles that borders the fewest free cells (see fti.Site).
func Plan(p *place.Placement, array geom.Rect, fault geom.Point, obstacles ...geom.Point) ([]Relocation, error) {
	if !array.Contains(fault) {
		return nil, fmt.Errorf("reconfig: fault %v outside array %v", fault, array)
	}
	var out []Relocation
	for _, mi := range p.ModulesAt(fault) {
		r, err := PlanModule(p, array, mi, fault, obstacles...)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// PlanModule computes the relocation of a single module for a fault at
// cell fault, regardless of whether the fault lies inside the module
// (a site avoiding the faulty cell is required either way). Extra
// obstacle cells — typically previously detected faults — are treated
// as occupied when searching for a site. The placement is not
// modified.
func PlanModule(p *place.Placement, array geom.Rect, mi int, fault geom.Point, obstacles ...geom.Point) (Relocation, error) {
	if mi < 0 || mi >= len(p.Modules) {
		return Relocation{}, fmt.Errorf("reconfig: unknown module %d", mi)
	}
	return PlanModuleSized(p, array, mi, p.Modules[mi].Size, fault, obstacles...)
}

// PlanModuleSized is PlanModule with an explicit footprint for the
// relocated module, which may differ from the module's catalogue size.
// The recovery ladder uses it to plan a *downgrade*: re-hosting an
// operation on a smaller (typically slower) library device when no
// site accommodates the original footprint.
func PlanModuleSized(p *place.Placement, array geom.Rect, mi int, size geom.Size, fault geom.Point, obstacles ...geom.Point) (Relocation, error) {
	reg := instr.Load()
	var start time.Time
	if reg != nil {
		start = time.Now()
	}
	if mi < 0 || mi >= len(p.Modules) {
		return Relocation{}, fmt.Errorf("reconfig: unknown module %d", mi)
	}
	m := p.Modules[mi]
	// The obstacles and the faulty cell are as dead as any occupied
	// cell, so every free site of g avoids them.
	g := p.OccupancyDuring(array, m.Span, mi)
	for _, o := range obstacles {
		g.Set(geom.Point{X: o.X - array.X, Y: o.Y - array.Y}, true)
	}
	g.Set(geom.Point{X: fault.X - array.X, Y: fault.Y - array.Y}, true)
	to, ok := fti.Site(g, size)
	if reg != nil {
		reg.Histogram("reconfig.plan_ms", telemetry.LatencyBuckets...).
			Observe(float64(time.Since(start).Microseconds()) / 1000)
		if ok {
			reg.Counter("reconfig.relocations").Inc()
		} else {
			reg.Counter("reconfig.plan_failures").Inc()
		}
	}
	if !ok {
		return Relocation{}, fmt.Errorf(
			"reconfig: module %s (%v) cannot be relocated for fault at %v: no accommodating empty rectangle",
			m.Name, size, fault)
	}
	return Relocation{
		Module: mi,
		From:   p.Rect(mi),
		To:     to.Translate(array.X, array.Y),
		Fault:  fault,
	}, nil
}

// Apply executes the relocations on the placement, updating module
// positions and orientations. It validates the result and reports an
// error (leaving p modified only on success) if the relocations
// conflict with the placement.
func Apply(p *place.Placement, rels []Relocation) error {
	next := p.Clone()
	for _, r := range rels {
		if r.Module < 0 || r.Module >= len(next.Modules) {
			return fmt.Errorf("reconfig: relocation references unknown module %d", r.Module)
		}
		m := next.Modules[r.Module]
		sz := r.To.Size()
		switch {
		case sz == m.Size:
			next.Rot[r.Module] = false
		case sz == m.Size.Transpose():
			next.Rot[r.Module] = true
		default:
			return fmt.Errorf("reconfig: site %v does not match module %s footprint %v",
				r.To, m.Name, m.Size)
		}
		next.Pos[r.Module] = r.To.Origin()
	}
	if err := next.Validate(); err != nil {
		return fmt.Errorf("reconfig: relocations produce overlap: %w", err)
	}
	copy(p.Pos, next.Pos)
	copy(p.Rot, next.Rot)
	if reg := instr.Load(); reg != nil {
		reg.Counter("reconfig.applies").Add(int64(len(rels)))
	}
	return nil
}

// Recover plans and applies the reconfiguration for a fault in one
// step, returning the relocations performed. Obstacles are previously
// detected faults the new sites must also avoid (see Plan).
func Recover(p *place.Placement, array geom.Rect, fault geom.Point, obstacles ...geom.Point) ([]Relocation, error) {
	rels, err := Plan(p, array, fault, obstacles...)
	if err != nil {
		return nil, err
	}
	if err := Apply(p, rels); err != nil {
		return nil, err
	}
	return rels, nil
}
