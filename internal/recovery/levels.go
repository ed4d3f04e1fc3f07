package recovery

import (
	"errors"
	"fmt"
	"sort"

	"dmfb/internal/core"
	"dmfb/internal/geom"
	"dmfb/internal/modlib"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
	"dmfb/internal/schedule"
)

// tryRelocate is L1: plain partial reconfiguration. Every affected
// module is relocated in module-index order, each plan seeing the
// previous applications, exactly reproducing the paper's on-line
// recovery — a fault the FTI marks uncovered fails here. Every known
// fault, the new one included, is an obstacle for the new sites.
func (l *Ladder) tryRelocate(st State) (*Plan, error) {
	pl := st.Placement.Clone()
	ops := moduleOps(st.Sched)
	var rels []reconfig.Relocation
	for mi := range pl.Modules {
		if !affected(st, ops, mi) {
			continue
		}
		name := pl.Modules[mi].Name
		r, err := reconfig.PlanModule(l.opts.Metrics, pl, st.Array, mi, st.Fault, st.Faults...)
		if err != nil {
			return nil, errors.New("partial reconfiguration failed for " + name + ": " + err.Error())
		}
		if err := reconfig.Apply(l.opts.Metrics, pl, []reconfig.Relocation{r}); err != nil {
			return nil, fmt.Errorf("applying relocation of %s: %v", name, err)
		}
		rels = append(rels, r)
	}
	return &Plan{Level: LevelRelocate, Relocations: rels, Placement: pl, Sched: st.Sched}, nil
}

// tryDowngrade is L2: as L1, but a module that fits nowhere at its
// catalogue footprint is re-hosted on a smaller same-kind device. The
// operation restarts on the downgraded device at the fault time and
// every dependent operation is pushed later (a local schedule
// stretch), bounded by Options.StretchLimit.
func (l *Ladder) tryDowngrade(st State) (*Plan, error) {
	sched := st.Sched
	pl := st.Placement.Clone()
	if l.opts.Library == nil {
		l.opts.Library = modlib.Table1() // resolved once, on the first L2
	}
	var rels []reconfig.Relocation
	var downs []Downgrade
	totalStretch := 0
	ops := moduleOps(sched)
	for mi := range pl.Modules {
		if !affected(st, ops, mi) {
			continue
		}
		// The catalogue footprint first: downgrading is a last resort.
		if r, err := reconfig.PlanModule(l.opts.Metrics, pl, st.Array, mi, st.Fault, st.Faults...); err == nil {
			if err := reconfig.Apply(l.opts.Metrics, pl, []reconfig.Relocation{r}); err == nil {
				rels = append(rels, r)
				continue
			}
		}
		opID := ops[mi]
		name := sched.Graph.Op(opID).Name
		cur := sched.Items[opID].Device
		placed := false
		for _, cand := range downgradeCandidates(l.opts.Library, cur) {
			r, err := reconfig.PlanModuleSized(l.opts.Metrics, pl, st.Array, mi, cand.Size, st.Fault, st.Faults...)
			if err != nil {
				continue
			}
			next, stretch, err := stretchSchedule(sched, opID, cand, st.Now)
			if err != nil {
				continue
			}
			if l.opts.StretchLimit > 0 && totalStretch+stretch > l.opts.StretchLimit {
				continue
			}
			// Footprints and spans changed, so the placement must be
			// rebuilt against the new module set (conflict pairs are
			// cached per module set) before it can be validated.
			np := rebuiltPlacement(next, pl)
			if err := setSite(np, mi, cand.Size, r.To); err != nil {
				continue
			}
			if err := np.Validate(); err != nil {
				continue
			}
			d := Downgrade{
				Module:  mi,
				OpID:    opID,
				From:    cur,
				To:      cand,
				OldSpan: sched.Items[opID].Span,
				NewSpan: next.Items[opID].Span,
			}
			sched, pl = next, np
			totalStretch += stretch
			rels = append(rels, r)
			downs = append(downs, d)
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf(
				"recovery: module %s cannot be relocated at any catalogue footprint for fault at %v",
				name, st.Fault)
		}
	}
	plan := &Plan{
		Level:       LevelDowngrade,
		Relocations: rels,
		Downgrades:  downs,
		Placement:   pl,
		Sched:       sched,
		StretchSec:  totalStretch,
	}
	if err := ValidatePlan(st, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// tryDefragment is L3: full reconfiguration. The assay pauses while a
// short seeded anneal re-places the entire module set inside the
// fabricated array with every known fault as an obstacle,
// consolidating the spare cells scattered by earlier relocations. The
// returned placement shares the module set, so module indices keep
// their 1:1 correspondence with bound schedule items.
func (l *Ladder) tryDefragment(st State) (*Plan, error) {
	prob := core.Problem{
		Modules:   st.Placement.Modules,
		MaxW:      st.Array.MaxX(),
		MaxH:      st.Array.MaxY(),
		Obstacles: append([]geom.Point(nil), st.Faults...),
	}
	pl, _, err := core.AnnealArea(prob, l.opts.Anneal)
	if err != nil {
		return nil, fmt.Errorf("recovery: defragmentation anneal: %v", err)
	}
	return &Plan{Level: LevelDefragment, Placement: pl, Sched: st.Sched}, nil
}

// tryDegrade is L4: graceful degradation. Affected modules that still
// fit somewhere are relocated as in L1; each one that fits nowhere is
// abandoned together with its forward dependency closure (every
// operation that transitively needs its product). The rest of the
// assay continues. This level cannot fail: in the worst case every
// unfinished operation is abandoned.
func (l *Ladder) tryDegrade(st State) (*Plan, error) {
	pl := st.Placement.Clone()
	ops := moduleOps(st.Sched)
	abandoned := make(map[int]bool, len(st.Abandoned))
	for id, v := range st.Abandoned {
		if v {
			abandoned[id] = true
		}
	}
	var rels []reconfig.Relocation
	var newAbandon []int
	for mi := range pl.Modules {
		if !affected(st, ops, mi) || abandoned[ops[mi]] {
			continue
		}
		if r, err := reconfig.PlanModule(l.opts.Metrics, pl, st.Array, mi, st.Fault, st.Faults...); err == nil {
			if err := reconfig.Apply(l.opts.Metrics, pl, []reconfig.Relocation{r}); err == nil {
				rels = append(rels, r)
				continue
			}
		}
		// Unrecoverable: abandon the op and everything downstream.
		queue := []int{ops[mi]}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if abandoned[v] {
				continue
			}
			abandoned[v] = true
			newAbandon = append(newAbandon, v)
			queue = append(queue, st.Sched.Graph.Succ(v)...)
		}
	}
	sort.Ints(newAbandon)
	return &Plan{
		Level:       LevelDegrade,
		Relocations: rels,
		Placement:   pl,
		Sched:       st.Sched,
		Abandon:     newAbandon,
	}, nil
}

// downgradeCandidates returns the same-kind devices strictly smaller
// than cur, largest first (least downgrade), ties broken by shorter
// duration then name for determinism.
func downgradeCandidates(lib *modlib.Library, cur modlib.Device) []modlib.Device {
	var out []modlib.Device
	for _, d := range lib.ForKind(cur.Kind) {
		if d.Name == cur.Name || d.Cells() >= cur.Cells() {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cells() != out[j].Cells() {
			return out[i].Cells() > out[j].Cells()
		}
		if out[i].Duration != out[j].Duration {
			return out[i].Duration < out[j].Duration
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// stretchSchedule rebinds opID to dev and restarts it at now (or its
// original start if it has not begun), then pushes every dependent
// operation just late enough to respect precedence, in topological
// order. Operations that already started are immovable; needing to
// move one is an error. Returns the new schedule and the makespan
// delta.
func stretchSchedule(s *schedule.Schedule, opID int, dev modlib.Device, now int) (*schedule.Schedule, int, error) {
	c := s.Clone()
	it := &c.Items[opID]
	begin := it.Span.Start
	if now > begin {
		begin = now
	}
	it.Device = dev
	it.Span = geom.Interval{Start: it.Span.Start, End: begin + dev.Duration}
	order, err := c.Graph.TopoOrder()
	if err != nil {
		return nil, 0, err
	}
	for _, v := range order {
		if v == opID {
			continue
		}
		vi := &c.Items[v]
		es := vi.Span.Start
		for _, p := range c.Graph.Pred(v) {
			if e := c.Items[p].Span.End; e > es {
				es = e
			}
		}
		if es == vi.Span.Start {
			continue
		}
		if vi.Span.Start < now {
			return nil, 0, fmt.Errorf(
				"recovery: stretch would move op %s, already started at %d", vi.Op.Name, vi.Span.Start)
		}
		d := vi.Span.Len()
		vi.Span = geom.Interval{Start: es, End: es + d}
	}
	old := c.Makespan
	c.Makespan = 0
	for i := range c.Items {
		if end := c.Items[i].Span.End; end > c.Makespan {
			c.Makespan = end
		}
	}
	return c, c.Makespan - old, nil
}

// rebuiltPlacement builds a fresh placement for the (possibly
// downgraded and stretched) schedule, carrying over the positions and
// orientations of old. Module count and order are invariant: one
// module per bound item in op-ID order.
func rebuiltPlacement(s *schedule.Schedule, old *place.Placement) *place.Placement {
	pl := place.New(place.FromSchedule(s))
	copy(pl.Pos, old.Pos)
	copy(pl.Rot, old.Rot)
	return pl
}

// setSite anchors module mi at the given site, deriving the
// orientation from how the site dimensions relate to size.
func setSite(p *place.Placement, mi int, size geom.Size, site geom.Rect) error {
	switch sz := site.Size(); {
	case sz == size:
		p.Rot[mi] = false
	case sz == size.Transpose():
		p.Rot[mi] = true
	default:
		return fmt.Errorf("recovery: site %v does not match footprint %v", site, size)
	}
	p.Pos[mi] = site.Origin()
	return nil
}
