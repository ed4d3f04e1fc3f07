// Package recovery implements a graceful-degradation recovery ladder
// for faults detected during field operation of a microfluidic
// biochip. It generalises the paper's two reconfiguration techniques —
// partial reconfiguration (Section 5.1) and full reconfiguration
// (Section 5.2) — into an escalation ladder that a simulator or a
// runtime controller invokes on every detected fault:
//
//	L1 relocate   — in-place relocation of every affected module to a
//	                maximal empty rectangle avoiding all known faults
//	                (partial reconfiguration, possibly rotated).
//	L2 downgrade  — as L1, but modules that do not fit anywhere at
//	                their catalogue footprint are re-hosted on a
//	                smaller library device of the same operation kind.
//	                The operation restarts on the smaller (typically
//	                slower) device and every transitively dependent
//	                operation is pushed later: a local schedule
//	                stretch.
//	L3 defragment — pause the assay and re-place the entire module
//	                set around the accumulated faults with a short
//	                seeded anneal (full reconfiguration). Spare cells
//	                scattered by earlier relocations are consolidated.
//	L4 degrade    — abandon exactly the operations whose dependency
//	                cone is unrecoverable, relocate the rest, and let
//	                the assay run to partial completion.
//
// Each level is attempted in order until one produces a valid Plan;
// L4 always succeeds (in the worst case by abandoning every
// unfinished operation), which is what makes the ladder graceful: a
// fault can degrade the assay but never crash it.
//
// The package deliberately knows nothing about droplets or the
// simulator: its inputs are the synthesis artefacts (schedule,
// placement, array, fault set) and its output is a Plan — new
// placement, possibly stretched schedule, abandoned operation set —
// that the caller applies. This keeps the dependency direction
// one-way (sim imports recovery, never the reverse) and makes plans
// independently checkable: ValidatePlan proves a plan safe without
// executing it.
package recovery

import (
	"fmt"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/geom"
	"dmfb/internal/modlib"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
	"dmfb/internal/schedule"
	"dmfb/internal/telemetry"
)

// Level identifies a rung of the escalation ladder.
type Level int

const (
	// LevelNone means no recovery was attempted or needed.
	LevelNone Level = iota
	// LevelRelocate is L1: in-place partial reconfiguration.
	LevelRelocate
	// LevelDowngrade is L2: relocation with module downgrade and a
	// local schedule stretch.
	LevelDowngrade
	// LevelDefragment is L3: pause and re-place the full module set
	// with a short seeded anneal.
	LevelDefragment
	// LevelDegrade is L4: abandon unrecoverable dependency cones and
	// complete the rest of the assay.
	LevelDegrade
)

// String returns the ladder rung's mnemonic.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelRelocate:
		return "relocate"
	case LevelDowngrade:
		return "downgrade"
	case LevelDefragment:
		return "defragment"
	case LevelDegrade:
		return "degrade"
	}
	return fmt.Sprintf("level-%d", int(l))
}

// Options configures a Ladder.
type Options struct {
	// MaxLevel is the highest rung the ladder may climb. Zero means
	// LevelDegrade (the full ladder); LevelRelocate reproduces the
	// paper's plain partial reconfiguration.
	MaxLevel Level
	// Library is the device catalogue searched for L2 downgrades.
	// Nil means modlib.Table1, built when L2 first runs.
	Library *modlib.Library
	// Anneal configures the L3 defragmentation anneal. The zero value
	// takes the package defaults (a short, seeded run); set Seed to
	// derive per-trial streams in campaigns.
	Anneal core.Options
	// StretchLimit caps the makespan increase (in schedule seconds) an
	// L2 downgrade may introduce. Zero means unlimited.
	StretchLimit int
	// Telemetry, when non-nil, receives a "recovery.ladder" span per
	// invocation with the chosen level and attempt count, under the
	// tracer's parent (the simulator passes its tracer scoped under
	// "sim.run").
	Telemetry *telemetry.Tracer
	// Metrics, when non-nil, receives recovery.* counters (one
	// success/failure pair per level plus recovery.invocations and
	// recovery.abandoned_ops) and the reconfig.* metrics of every
	// relocation the rungs plan and apply.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxLevel == LevelNone {
		o.MaxLevel = LevelDegrade
	}
	if o.Anneal.ItersPerModule == 0 {
		o.Anneal.ItersPerModule = 60
	}
	if o.Anneal.WindowPatience == 0 {
		o.Anneal.WindowPatience = 2
	}
	return o
}

// State is the world as seen at fault-detection time, in placement
// coordinates. The ladder never mutates it.
type State struct {
	// Sched is the schedule being executed. It may be nil when only
	// the placement is known (fault campaigns without an assay); the
	// ladder then skips the rungs that rewrite the schedule, L2 and
	// L4, so it can fail at any cap.
	Sched *schedule.Schedule
	// Placement is the current placement, one module per bound
	// schedule item in op-ID order (module names are the op names).
	Placement *place.Placement
	// Array is the fabricated array the modules must stay inside.
	// Its origin must be (0,0) for L3 (the anneal core area).
	Array geom.Rect
	// Now is the schedule second at which the fault was detected.
	Now int
	// Fault is the newly detected faulty cell.
	Fault geom.Point
	// Faults is every known permanent fault including Fault; all of
	// them are obstacles for any new module site.
	Faults []geom.Point
	// Abandoned holds op IDs already abandoned by earlier L4 plans
	// (always empty without a schedule).
	Abandoned map[int]bool
}

// Downgrade records one L2 device swap.
type Downgrade struct {
	Module  int           // placement module index
	OpID    int           // schedule op ID
	From    modlib.Device // original binding
	To      modlib.Device // downgraded binding
	OldSpan geom.Interval
	NewSpan geom.Interval
}

// String summarises the downgrade.
func (d Downgrade) String() string {
	return fmt.Sprintf("module %d (op %d): %s %v -> %s %v, span %v -> %v",
		d.Module, d.OpID, d.From.Name, d.From.Size, d.To.Name, d.To.Size, d.OldSpan, d.NewSpan)
}

// Plan is the outcome of a successful ladder invocation: the new
// execution state the caller should adopt.
type Plan struct {
	// Level is the rung that produced the plan.
	Level Level
	// Relocations are the explicit module moves (L1, L2 and L4 plans;
	// L3 re-places wholesale and records none).
	Relocations []reconfig.Relocation
	// Downgrades are the L2 device swaps, empty elsewhere.
	Downgrades []Downgrade
	// Placement is the placement to adopt. Always non-nil.
	Placement *place.Placement
	// Sched is the schedule to adopt. It is the State's schedule
	// unless an L2 stretch rebuilt it.
	Sched *schedule.Schedule
	// StretchSec is the makespan change introduced by L2 (negative
	// when a downgrade to a faster device shortens the assay).
	StretchSec int
	// Abandon lists the op IDs newly abandoned by L4, sorted
	// ascending. Callers must stop executing them (and may salvage
	// any products their completed predecessors already produced).
	Abandon []int
}

// Attempt records one rung tried during a ladder invocation.
type Attempt struct {
	Level Level
	// Err is the failure reason; empty for the successful rung.
	Err string
}

// Report is the full audit trail of one ladder invocation.
type Report struct {
	Attempts []Attempt
}

// Final returns the level that succeeded, or LevelNone when every
// attempted rung failed.
func (r Report) Final() Level {
	for _, a := range r.Attempts {
		if a.Err == "" {
			return a.Level
		}
	}
	return LevelNone
}

// Ladder escalates through recovery levels. It keeps no state between
// invocations beyond the device library it resolves on first use, and
// is safe for sequential reuse.
type Ladder struct {
	opts Options
}

// New builds a ladder with the given options.
func New(opts Options) *Ladder {
	return &Ladder{opts: opts.withDefaults()}
}

// MaxLevel returns the highest rung this ladder will attempt.
func (l *Ladder) MaxLevel() Level { return l.opts.MaxLevel }

// Recover runs the ladder for the given state. It returns the first
// valid plan found, climbing L1 → MaxLevel, together with the audit
// report. A nil plan means every permitted rung failed — possible
// only when MaxLevel < LevelDegrade or the state has no schedule,
// since L4 cannot fail.
func (l *Ladder) Recover(st State) (*Plan, Report) {
	span := l.opts.Telemetry.Start("recovery.ladder")
	start := time.Now()
	var rep Report
	var plan *Plan
	for lv := LevelRelocate; lv <= l.opts.MaxLevel; lv++ {
		if st.Sched == nil && (lv == LevelDowngrade || lv == LevelDegrade) {
			continue
		}
		p, err := l.attempt(lv, st)
		if err != nil {
			rep.Attempts = append(rep.Attempts, Attempt{Level: lv, Err: err.Error()})
			continue
		}
		rep.Attempts = append(rep.Attempts, Attempt{Level: lv})
		plan = p
		break
	}
	if l.opts.Telemetry != nil || l.opts.Metrics != nil {
		l.observe(span, st, plan, rep, start)
	}
	return plan, rep
}

// observe emits one invocation's recovery.* metrics and its
// "recovery.ladder" span.
func (l *Ladder) observe(span telemetry.Span, st State, plan *Plan, rep Report, start time.Time) {
	m := l.opts.Metrics
	m.Counter("recovery.invocations").Inc()
	for _, a := range rep.Attempts {
		if a.Err != "" {
			m.Counter("recovery." + a.Level.String() + "_failures").Inc()
		} else {
			m.Counter("recovery." + a.Level.String() + "_successes").Inc()
		}
	}
	level := LevelNone
	if plan != nil {
		level = plan.Level
		if len(plan.Abandon) > 0 {
			m.Counter("recovery.abandoned_ops").Add(int64(len(plan.Abandon)))
		}
	}
	m.Histogram("recovery.ladder_ms", telemetry.LatencyBuckets...).
		Observe(float64(time.Since(start).Microseconds()) / 1000)
	span.End(telemetry.Fields{
		"level":    level.String(),
		"attempts": len(rep.Attempts),
		"fault":    st.Fault.String(),
		"t_sec":    st.Now,
	})
}

func (l *Ladder) attempt(lv Level, st State) (*Plan, error) {
	switch lv {
	case LevelRelocate:
		return l.tryRelocate(st)
	case LevelDowngrade:
		return l.tryDowngrade(st)
	case LevelDefragment:
		return l.tryDefragment(st)
	case LevelDegrade:
		return l.tryDegrade(st)
	}
	return nil, fmt.Errorf("recovery: unknown level %d", int(lv))
}

// moduleOps returns the op ID of each placement module, in module
// index order (bound schedule items in op-ID order); nil without a
// schedule.
func moduleOps(s *schedule.Schedule) []int {
	if s == nil {
		return nil
	}
	var out []int
	for i := range s.Items {
		if s.Items[i].Bound {
			out = append(out, s.Items[i].Op.ID)
		}
	}
	return out
}

// affected reports whether module i must leave the fault: its current
// site contains the fault and its operation is unfinished and not
// abandoned. ops maps modules to op IDs (moduleOps); it is read only
// when some operation is abandoned.
func affected(st State, ops []int, i int) bool {
	if st.Placement.Modules[i].Span.End <= st.Now || !st.Placement.Rect(i).Contains(st.Fault) {
		return false
	}
	return len(st.Abandoned) == 0 || !st.Abandoned[ops[i]]
}
