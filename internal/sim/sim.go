// Package sim is a discrete-event simulator for digital microfluidic
// biochips: it executes a synthesised schedule on a placed array,
// dispensing droplets from boundary ports, routing them into
// reconfigurable modules, running the module operations, parking
// intermediate droplets on free cells, and collecting products.
//
// Its purpose in this reproduction is to exercise the paper's fault
// tolerance story end to end: a cell fault injected mid-assay triggers
// partial reconfiguration (Section 5.1) — the affected module is
// relocated by reprogramming electrodes, its droplet is re-routed, and
// the assay completes on the reconfigured array. Whether recovery is
// possible for a given fault is exactly what the placement's fault
// tolerance index predicts.
//
// Time model: module operations take whole schedule seconds (as
// synthesised); droplet transport takes one control step (10 ms) per
// cell and is accounted separately as transport overhead, since it is
// two orders of magnitude faster than mixing. Faults take effect at
// schedule-second boundaries.
//
// Geometry: the fabricated chip is the placed array (the placement's
// bounding box) plus a one-cell (configurable) transport ring where
// the dispense and collection ports sit, mirroring Figure 1(b) of the
// paper where I/O ports surround the array.
package sim

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"dmfb/internal/assay"
	"dmfb/internal/core"
	"dmfb/internal/fluidics"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
	"dmfb/internal/recovery"
	"dmfb/internal/router"
	"dmfb/internal/schedule"
	"dmfb/internal/telemetry"
	"dmfb/internal/testdrop"
)

// RecoveryMode selects how the simulator reacts to a permanent fault
// under an unfinished module.
type RecoveryMode int

const (
	// RecoveryL1 (the default) relocates affected modules in place —
	// the paper's partial reconfiguration, Section 5.1. A fault no
	// relocation can fix fails the assay.
	RecoveryL1 RecoveryMode = iota
	// RecoveryLadder escalates through the full recovery ladder:
	// relocate, downgrade with schedule stretch, defragment with a
	// short seeded re-anneal, and finally graceful degradation
	// (abandoning unrecoverable dependency cones). A fault can degrade
	// the assay but never crash it.
	RecoveryLadder
	// RecoveryOff disables reconfiguration: a permanent fault under an
	// unfinished module fails the assay immediately. Useful as a
	// campaign baseline.
	RecoveryOff
)

// String names the mode as accepted by ParseRecoveryMode.
func (m RecoveryMode) String() string {
	switch m {
	case RecoveryL1:
		return "l1"
	case RecoveryLadder:
		return "ladder"
	case RecoveryOff:
		return "off"
	}
	return fmt.Sprintf("mode-%d", int(m))
}

// ParseRecoveryMode parses "l1", "ladder" or "off".
func ParseRecoveryMode(s string) (RecoveryMode, error) {
	switch s {
	case "l1", "":
		return RecoveryL1, nil
	case "ladder":
		return RecoveryLadder, nil
	case "off":
		return RecoveryOff, nil
	}
	return RecoveryL1, fmt.Errorf("sim: unknown recovery mode %q (want l1, ladder or off)", s)
}

// Options configures a simulation run.
type Options struct {
	// Border is the width of the transport ring around the placed
	// array. Default 1.
	Border int
	// Trace, when true, records an Event for every droplet action;
	// otherwise only milestones (op start/end, fault, reconfiguration)
	// are logged.
	Trace bool
	// Recovery selects the fault response: RecoveryL1 (default),
	// RecoveryLadder or RecoveryOff.
	Recovery RecoveryMode
	// RecoverySeed seeds the L3 defragmentation anneal (ladder mode
	// only). Campaigns derive a per-trial seed so runs stay
	// reproducible.
	RecoverySeed int64
	// RecoveryStretchLimit caps the schedule stretch (seconds) an L2
	// downgrade may introduce. Zero means unlimited.
	RecoveryStretchLimit int
	// Telemetry, when non-nil, mirrors every Event as a structured
	// "sim.<kind>" trace record and wraps the run in a "sim.run" span
	// under the tracer's parent; the event records and the recovery
	// ladder's spans nest under sim.run. Campaigns pass the trial's
	// tracer, so traces form a campaign→trial→sim→recovery hierarchy.
	// The Events slice in Result is unchanged either way.
	Telemetry *telemetry.Tracer
	// Metrics, when non-nil, receives sim.* metrics (event counts,
	// transport totals added up over every run that shares the
	// registry, droplet route lengths and the latency of partial
	// reconfiguration, sim.reconfig_latency_ms), the router.*
	// count of every routing query (router.routes,
	// router.route_failures, router.path_len) and the recovery
	// ladder's recovery.* and reconfig.* metrics.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.Border == 0 {
		o.Border = 1
	}
	return o
}

// FaultInjection schedules a cell failure at a schedule-time second.
// The cell is in chip coordinates (use ArrayCell to address cells of
// the placed array).
type FaultInjection struct {
	TimeSec int
	Cell    geom.Point
	// TransientProbes, when positive, makes the fault transient: the
	// cell refuses that many re-test probes and then heals. The
	// simulator's bounded-retry classification (testdrop) detects a
	// transient that heals within the retry budget and skips
	// reconfiguration entirely. Zero means permanent.
	TransientProbes int
}

// Event is one log entry of a run.
type Event struct {
	TimeSec int
	Kind    string // "dispense", "route", "merge", "op-start", "op-end", "fault", "reconfig", "park", "collect", "fail"
	Detail  string
}

func (e Event) String() string {
	return fmt.Sprintf("t=%-3d %-9s %s", e.TimeSec, e.Kind, e.Detail)
}

// Outcome classifies how a run ended. It refines the Completed bool:
// a degraded run delivered some products but abandoned at least one
// operation, which counts as neither completed nor failed.
type Outcome int

const (
	// OutcomeFailed: the assay aborted and delivered nothing useful.
	OutcomeFailed Outcome = iota
	// OutcomeCompleted: every operation ran to completion.
	OutcomeCompleted
	// OutcomeDegraded: the assay ran to the end but one or more
	// operations were abandoned by graceful degradation (L4); the
	// surviving products were collected.
	OutcomeDegraded
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeDegraded:
		return "degraded"
	case OutcomeFailed:
		return "failed"
	}
	return fmt.Sprintf("outcome-%d", int(o))
}

// RecoveryReport aggregates the recovery activity of one run.
type RecoveryReport struct {
	// Invocations counts ladder invocations (one per permanent
	// in-array fault that was classified, in any recovery mode but
	// RecoveryOff).
	Invocations int
	// DeepestLevel is the highest rung any invocation had to climb.
	DeepestLevel recovery.Level
	// Attempts concatenates the audit trails of every invocation.
	Attempts []recovery.Attempt
	// AbandonedOps names the operations abandoned by L4, in
	// abandonment order.
	AbandonedOps []string
	// TransientFaults counts faults that healed under bounded-retry
	// re-test and needed no reconfiguration.
	TransientFaults int
	// StretchSec is the cumulative schedule stretch introduced by L2
	// downgrades (negative if downgrades net shortened the assay).
	StretchSec int
}

// Result reports a completed (or failed) simulation.
type Result struct {
	Completed      bool
	Outcome        Outcome
	FailReason     string
	MakespanSec    int // schedule seconds until the last operation ended
	TransportSteps int // total single-cell droplet moves
	// TransportMS is the transport overhead in milliseconds
	// (TransportSteps × the 10 ms control step).
	TransportMS int
	Relocations []reconfig.Relocation
	Events      []Event
	// ProductFluids are the fluid labels of the droplets collected at
	// the end — for PCR, the composition of the master mix.
	ProductFluids []string
	// Recovery audits the run's fault handling.
	Recovery RecoveryReport
}

// Simulator holds the mutable state of one run.
type simulator struct {
	opts      Options
	sched     *schedule.Schedule
	placement *place.Placement // cloned; mutated by reconfiguration
	array     geom.Rect        // placed array in placement coordinates
	chip      *fluidics.Chip
	state     *fluidics.State
	ports     []geom.Point // border port cells, chip coordinates
	nextPort  int
	// products[op] holds droplet IDs available for successors.
	products map[int][]int
	// inModule[op] is the droplet currently inside the op's module.
	inModule map[int]int
	// ladder plans fault recovery (nil when Recovery is RecoveryOff).
	ladder *recovery.Ladder
	// abandoned holds op IDs dropped by graceful degradation.
	abandoned map[int]bool
	res       *Result
	// tr is the run's tracer scoped under its "sim.run" span (nil when
	// tracing is off); event records and ladder spans nest there.
	tr *telemetry.Tracer
	// tree is the routing search of the current droplet decision: each
	// decision resets it once and asks it for every candidate target.
	tree router.Tree
	// routes, routeFailures and pathLen are the router.* handles in
	// opts.Metrics, each looked up on its first use: once per run, not
	// once per route, and a run that never fails a route adds no
	// router.route_failures key.
	routes, routeFailures *telemetry.Counter
	pathLen               *telemetry.Histogram
}

// ArrayCell converts placed-array coordinates (as used by placements
// and the FTI) to chip coordinates for the given options.
func ArrayCell(opts Options, p geom.Point) geom.Point {
	o := opts.withDefaults()
	return geom.Point{X: p.X + o.Border, Y: p.Y + o.Border}
}

// Run executes the schedule on the placement. The placement must
// correspond to the schedule's bound items, in order (as produced by
// place.FromSchedule plus any placer). The caller's placement is not
// modified.
func Run(s *schedule.Schedule, p *place.Placement, opts Options, faults ...FaultInjection) Result {
	o := opts.withDefaults()
	sim := &simulator{
		opts:      o,
		sched:     s,
		products:  make(map[int][]int),
		inModule:  make(map[int]int),
		abandoned: make(map[int]bool),
		res:       &Result{},
	}
	span := o.Telemetry.Start("sim.run")
	sim.tr = o.Telemetry.Under(span.ID())
	if o.Recovery != RecoveryOff {
		maxLevel := recovery.LevelRelocate
		if o.Recovery == RecoveryLadder {
			maxLevel = recovery.LevelDegrade
		}
		sim.ladder = recovery.New(recovery.Options{
			MaxLevel:     maxLevel,
			Anneal:       core.Options{Seed: o.RecoverySeed},
			StretchLimit: o.RecoveryStretchLimit,
			Telemetry:    sim.tr,
			Metrics:      o.Metrics,
		})
	}
	defer func() {
		span.End(telemetry.Fields{
			"completed":       sim.res.Completed,
			"outcome":         sim.res.Outcome.String(),
			"makespan_sec":    sim.res.MakespanSec,
			"transport_steps": sim.res.TransportSteps,
			"relocations":     len(sim.res.Relocations),
		})
		o.Metrics.Counter("sim.transport_steps").Add(int64(sim.res.TransportSteps))
		o.Metrics.Counter("sim.transport_ms").Add(int64(sim.res.TransportMS))
	}()
	if err := sim.setup(p); err != nil {
		return sim.fail(0, err.Error())
	}
	if err := sim.runEvents(faults); err != nil {
		return *sim.res
	}
	// The schedule pointer may have been swapped by an L2 stretch, so
	// the makespan is read from the simulator's schedule, not the
	// caller's.
	sim.collect(sim.sched.Makespan)
	sim.res.MakespanSec = sim.sched.Makespan
	if len(sim.abandoned) > 0 {
		sim.res.Outcome = OutcomeDegraded
		sim.res.FailReason = fmt.Sprintf("degraded: %d operation(s) abandoned",
			len(sim.res.Recovery.AbandonedOps))
	} else {
		sim.res.Completed = true
		sim.res.Outcome = OutcomeCompleted
	}
	sim.finish()
	return *sim.res
}

func (sim *simulator) setup(p *place.Placement) error {
	items := sim.sched.BoundItems()
	if len(items) != len(p.Modules) {
		return fmt.Errorf("sim: placement has %d modules, schedule binds %d", len(p.Modules), len(items))
	}
	for i, it := range items {
		m := p.Modules[i]
		if m.Name != it.Op.Name || m.Span != it.Span {
			return fmt.Errorf("sim: placement module %d (%s %v) does not match schedule item %s %v",
				i, m.Name, m.Span, it.Op.Name, it.Span)
		}
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("sim: placement invalid: %w", err)
	}
	sim.placement = p.Clone()
	sim.placement.Normalize()
	bb := sim.placement.BoundingBox()
	sim.array = bb
	b := sim.opts.Border
	sim.chip = fluidics.NewChip(bb.W+2*b, bb.H+2*b)
	sim.state = fluidics.NewState(sim.chip)
	sim.ports = borderPorts(sim.chip)
	if len(sim.ports) == 0 {
		return fmt.Errorf("sim: chip too small for any boundary port")
	}
	return nil
}

// borderPorts enumerates the transport-ring cells clockwise from the
// origin, keeping every third so simultaneous port droplets respect
// separation.
func borderPorts(chip *fluidics.Chip) []geom.Point {
	w, h := chip.W(), chip.H()
	var ring []geom.Point
	for x := 0; x < w; x++ {
		ring = append(ring, geom.Point{X: x, Y: 0})
	}
	for y := 1; y < h; y++ {
		ring = append(ring, geom.Point{X: w - 1, Y: y})
	}
	for x := w - 2; x >= 0; x-- {
		ring = append(ring, geom.Point{X: x, Y: h - 1})
	}
	for y := h - 2; y >= 1; y-- {
		ring = append(ring, geom.Point{X: 0, Y: y})
	}
	var ports []geom.Point
	for i := 0; i < len(ring); i += 3 {
		ports = append(ports, ring[i])
	}
	return ports
}

// toChip converts placement coordinates to chip coordinates.
func (sim *simulator) toChip(p geom.Point) geom.Point {
	return geom.Point{X: p.X + sim.opts.Border, Y: p.Y + sim.opts.Border}
}

// toPlacement converts chip coordinates to placement coordinates.
func (sim *simulator) toPlacement(p geom.Point) geom.Point {
	return geom.Point{X: p.X - sim.opts.Border, Y: p.Y - sim.opts.Border}
}

// moduleRect returns module mi's rectangle in chip coordinates.
func (sim *simulator) moduleRect(mi int) geom.Rect {
	r := sim.placement.Rect(mi)
	return r.Translate(sim.opts.Border, sim.opts.Border)
}

// moduleCenter returns the target cell for droplets inside module mi.
func (sim *simulator) moduleCenter(mi int) geom.Point {
	r := sim.moduleRect(mi)
	return geom.Point{X: r.X + (r.W-1)/2, Y: r.Y + (r.H-1)/2}
}

// activeRects returns the chip-coordinate rectangles of modules active
// at second t, excluding the given op IDs, in module-index order.
func (sim *simulator) activeRects(t int, excludeOps ...int) []geom.Rect {
	var out []geom.Rect
	mi := 0 // placement module index: bound items in op-ID order
	for _, it := range sim.sched.Items {
		if !it.Bound {
			continue
		}
		if it.Span.Contains(t) && !sim.abandoned[it.Op.ID] && !slices.Contains(excludeOps, it.Op.ID) {
			out = append(out, sim.moduleRect(mi))
		}
		mi++
	}
	return out
}

// resetTree roots the run's routing tree at droplet id's cell from,
// with keepOut and every other droplet's halo as obstacles.
func (sim *simulator) resetTree(id int, from geom.Point, keepOut []geom.Rect) {
	var avoid []geom.Point
	for _, d := range sim.state.Droplets() {
		if d.ID != id {
			avoid = append(avoid, d.Pos)
		}
	}
	sim.tree.Reset(sim.chip, router.Request{From: from, KeepOut: keepOut, AvoidDroplets: avoid})
}

// pathTo asks the routing tree for a path to to and counts the query
// as one router.routes (with its router.path_len) or one
// router.route_failures.
func (sim *simulator) pathTo(to geom.Point) ([]geom.Point, error) {
	path, err := sim.tree.PathTo(to)
	if reg := sim.opts.Metrics; reg != nil {
		if err != nil {
			if sim.routeFailures == nil {
				sim.routeFailures = reg.Counter("router.route_failures")
			}
			sim.routeFailures.Inc()
		} else {
			if sim.routes == nil {
				sim.routes = reg.Counter("router.routes")
				sim.pathLen = reg.Histogram("router.path_len", telemetry.PathLenBuckets...)
			}
			sim.routes.Inc()
			sim.pathLen.Observe(float64(router.Steps(path)))
		}
	}
	return path, err
}

func (sim *simulator) log(t int, kind, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	sim.res.Events = append(sim.res.Events, Event{TimeSec: t, Kind: kind, Detail: detail})
	if sim.tr != nil {
		sim.tr.Event("sim."+kind, telemetry.Fields{"t_sec": t, "detail": detail})
	}
	sim.opts.Metrics.Counter("sim.events").Inc()
}

func (sim *simulator) fail(t int, reason string) Result {
	sim.res.Completed = false
	sim.res.Outcome = OutcomeFailed
	sim.res.FailReason = reason
	sim.log(t, "fail", "%s", reason)
	sim.finish()
	return *sim.res
}

func (sim *simulator) finish() {
	if sim.state != nil {
		sim.res.TransportSteps = sim.state.Moves()
	}
	sim.res.TransportMS = sim.res.TransportSteps * fluidics.StepMS
}

// runEvents drives the event loop. Event times are recomputed after
// every step rather than precomputed, because an L2 downgrade can
// stretch the schedule mid-run and move every later start and end. It
// returns a non-nil error after recording a failure.
func (sim *simulator) runEvents(faults []FaultInjection) error {
	t := 0
	for {
		for _, f := range faults {
			if f.TimeSec == t {
				if err := sim.injectFault(t, f); err != nil {
					sim.fail(t, err.Error())
					return err
				}
			}
		}
		if err := sim.processEnds(t); err != nil {
			sim.fail(t, err.Error())
			return err
		}
		if err := sim.processStarts(t); err != nil {
			sim.fail(t, err.Error())
			return err
		}
		next := -1
		consider := func(x int) {
			if x > t && (next < 0 || x < next) {
				next = x
			}
		}
		for _, it := range sim.sched.Items {
			consider(it.Span.Start)
			consider(it.Span.End)
		}
		for _, f := range faults {
			consider(f.TimeSec)
		}
		if next < 0 {
			return nil
		}
		t = next
	}
}

// injectFault marks the cell faulty, classifies the fault by bounded
// retry, and — if it is permanent and under the array — invokes the
// recovery ladder (or fails, with recovery off).
func (sim *simulator) injectFault(t int, f FaultInjection) error {
	cell := f.Cell
	if f.TransientProbes > 0 {
		if err := sim.chip.InjectTransientFault(cell, f.TransientProbes); err != nil {
			return err
		}
	} else if err := sim.chip.InjectFault(cell); err != nil {
		return err
	}
	sim.log(t, "fault", "cell %v failed", cell)
	// On-line re-test before any reconfiguration: a transient fault
	// that passes a retry probe heals in place and costs only the
	// backoff budget — no relocation (and no permanent obstacle).
	cl := testdrop.ClassifyFault(sim.chip, cell, testdrop.RetryPolicy{})
	if cl.Class == testdrop.FaultTransient {
		sim.res.Recovery.TransientFaults++
		sim.opts.Metrics.Counter("sim.transient_faults").Inc()
		sim.log(t, "fault-healed", "cell %v transient, healed after %d probes (%d backoff steps); no reconfiguration",
			cell, cl.Probes, cl.WaitSteps)
		return nil
	}
	pc := sim.toPlacement(cell)
	if !sim.array.Contains(pc) {
		return nil // transport-ring fault: routing will steer around it
	}
	if sim.ladder == nil {
		for i, it := range sim.sched.BoundItems() {
			if it.Span.End <= t || sim.abandoned[it.Op.ID] || !sim.placement.Rect(i).Contains(pc) {
				continue
			}
			return fmt.Errorf("fault at %v disables module %s (recovery disabled)", cell, it.Op.Name)
		}
		return nil
	}
	// Every permanent array fault (the new one included) constrains
	// the recovery plan. chip.Faults is row-major, so the obstacle set
	// is deterministic.
	var known []geom.Point
	for _, fc := range sim.chip.Faults() {
		if p := sim.toPlacement(fc); sim.array.Contains(p) {
			known = append(known, p)
		}
	}
	reconfigStart := time.Now()
	plan, rep := sim.ladder.Recover(recovery.State{
		Sched:     sim.sched,
		Placement: sim.placement,
		Array:     sim.array,
		Now:       t,
		Fault:     pc,
		Faults:    known,
		Abandoned: sim.abandoned,
	})
	sim.opts.Metrics.Histogram("sim.reconfig_latency_ms", telemetry.LatencyBuckets...).
		Observe(float64(time.Since(reconfigStart).Microseconds()) / 1000)
	sim.res.Recovery.Invocations++
	sim.res.Recovery.Attempts = append(sim.res.Recovery.Attempts, rep.Attempts...)
	if plan == nil {
		// Possible only below LevelDegrade (L1 mode): surface the last
		// rung's planning error as the failure reason.
		last := rep.Attempts[len(rep.Attempts)-1]
		return fmt.Errorf("%s", last.Err)
	}
	if plan.Level > sim.res.Recovery.DeepestLevel {
		sim.res.Recovery.DeepestLevel = plan.Level
	}
	return sim.adoptPlan(t, plan)
}

// adoptPlan swaps in a recovery plan's placement and schedule, records
// its events, discards the droplets of abandoned operations, and moves
// the droplets of running modules whose site changed.
func (sim *simulator) adoptPlan(t int, plan *recovery.Plan) error {
	// Sites of running modules before the swap, to detect moves.
	oldRects := make(map[int]geom.Rect)
	mi := -1 // placement module index of it
	for i := range sim.sched.Items {
		it := &sim.sched.Items[i]
		if !it.Bound {
			continue
		}
		mi++
		if it.Span.Contains(t) && !sim.abandoned[it.Op.ID] {
			oldRects[mi] = sim.placement.Rect(mi)
		}
	}
	// Module names are their ops' names (setup checks it, and every
	// plan re-places the same bound items).
	mods := sim.placement.Modules
	sim.placement = plan.Placement
	if plan.Sched != sim.sched {
		sim.sched = plan.Sched
		sim.res.Recovery.StretchSec += plan.StretchSec
	}
	sim.res.Relocations = append(sim.res.Relocations, plan.Relocations...)
	for _, rel := range plan.Relocations {
		sim.log(t, "reconfig", "module %s relocated %v -> %v",
			mods[rel.Module].Name, rel.From, rel.To)
	}
	for _, d := range plan.Downgrades {
		sim.log(t, "downgrade", "module %s re-hosted on %s %v, span %v -> %v",
			mods[d.Module].Name, d.To.Name, d.To.Size, d.OldSpan, d.NewSpan)
	}
	if plan.Level == recovery.LevelDefragment {
		sim.log(t, "reconfig", "defragmentation re-placed %d modules", len(plan.Placement.Modules))
	}
	for _, id := range plan.Abandon {
		sim.abandoned[id] = true
		name := sim.sched.Graph.Op(id).Name
		sim.res.Recovery.AbandonedOps = append(sim.res.Recovery.AbandonedOps, name)
		sim.log(t, "abandon", "op %s abandoned (dependency cone unrecoverable)", name)
		if did, ok := sim.inModule[id]; ok {
			sim.state.Remove(did)
			delete(sim.inModule, id)
			if sim.opts.Trace {
				sim.log(t, "abandon", "droplet %d of %s discarded", did, name)
			}
		}
	}
	// Re-home the droplets of modules that are running right now and
	// were moved by the plan: clear the new site of bystanders, then
	// route the module's own droplet over. Modules that have not
	// started yet need nothing — their start event evicts and routes
	// as usual. (A new site may legally overlap a module active now
	// with a disjoint span.)
	mi = -1
	for i := range sim.sched.Items {
		it := &sim.sched.Items[i]
		if !it.Bound {
			continue
		}
		mi++
		old, wasRunning := oldRects[mi]
		if !wasRunning || sim.abandoned[it.Op.ID] || sim.placement.Rect(mi) == old {
			continue
		}
		if err := sim.evictDroplets(t, sim.moduleRect(mi), it.Op.ID); err != nil {
			return err
		}
		if id, ok := sim.inModule[it.Op.ID]; ok {
			if err := sim.routeDroplet(t, id, sim.moduleCenter(mi), it.Op.ID); err != nil {
				return fmt.Errorf("re-routing droplet of %s: %v", it.Op.Name, err)
			}
		}
	}
	return nil
}

// processEnds completes operations whose span ends at t.
func (sim *simulator) processEnds(t int) error {
	mi := -1 // placement module index of it
	for _, it := range sim.sched.Items {
		if !it.Bound {
			continue
		}
		mi++
		if it.Span.End != t || it.Span.Empty() || sim.abandoned[it.Op.ID] {
			continue
		}
		op := it.Op
		id, ok := sim.inModule[op.ID]
		if !ok {
			return fmt.Errorf("op %s ended with no droplet inside", op.Name)
		}
		delete(sim.inModule, op.ID)
		succs := sim.sched.Graph.Succ(op.ID)
		if op.Kind.Reconfigurable() && len(succs) > 1 {
			// Dilution: split the mixed droplet into one per successor.
			d1, d2, err := sim.state.Split(id, true)
			if err != nil {
				return fmt.Errorf("splitting output of %s: %v", op.Name, err)
			}
			sim.products[op.ID] = []int{d1.ID, d2.ID}
		} else {
			sim.products[op.ID] = []int{id}
		}
		sim.log(t, "op-end", "%s done in module %v", op.Name, sim.moduleRect(mi))
	}
	return nil
}

// processStarts launches operations whose span starts at t, in op-ID
// order. Boundary ops (dispense handled lazily, output immediately).
func (sim *simulator) processStarts(t int) error {
	mi := -1 // placement module index of the last bound item seen
	for _, it := range sim.sched.Items {
		if it.Bound {
			mi++
		}
		if it.Span.Start != t || sim.abandoned[it.Op.ID] {
			continue
		}
		op := it.Op
		switch {
		case op.Kind == assay.Dispense:
			// Lazy: the droplet is dispensed when its consumer starts.
			continue
		case op.Kind == assay.Output:
			if err := sim.outputOp(t, op.ID); err != nil {
				return err
			}
		case it.Bound:
			if it.Span.Empty() {
				continue
			}
			if err := sim.startModuleOp(t, op.ID, mi); err != nil {
				return err
			}
		}
	}
	return nil
}

// startModuleOp brings the inputs into the module and starts it.
func (sim *simulator) startModuleOp(t, opID, mi int) error {
	name := sim.sched.Graph.Op(opID).Name
	rect := sim.moduleRect(mi)
	if err := sim.evictDroplets(t, rect, opID); err != nil {
		return err
	}
	sim.log(t, "op-start", "%s in module %v", name, rect)

	var inputs []int
	for _, pred := range sim.sched.Graph.Pred(opID) {
		id, err := sim.takeProduct(t, pred, opID)
		if err != nil {
			return err
		}
		inputs = append(inputs, id)
	}
	if len(inputs) == 0 {
		return fmt.Errorf("op %s started with no inputs", name)
	}

	center := sim.moduleCenter(mi)
	// First droplet goes to the centre.
	if err := sim.routeDroplet(t, inputs[0], center, opID); err != nil {
		return fmt.Errorf("routing input of %s: %v", name, err)
	}
	merged := inputs[0]
	// Remaining droplets stage at distance 2 and coalesce.
	for _, id := range inputs[1:] {
		if err := sim.mergeInto(t, merged, id, opID, center); err != nil {
			return fmt.Errorf("merging inputs of %s: %v", name, err)
		}
	}
	sim.inModule[opID] = merged
	return nil
}

// takeProduct obtains a droplet for consumerOp from pred: dispensing
// lazily for dispense ops, popping a stored product otherwise.
func (sim *simulator) takeProduct(t, pred, consumerOp int) (int, error) {
	op := sim.sched.Graph.Op(pred)
	if op.Kind == assay.Dispense {
		return sim.dispense(t, op.Fluid, consumerOp)
	}
	avail := sim.products[pred]
	if len(avail) == 0 {
		return 0, fmt.Errorf("no product droplet available from %s", op.Name)
	}
	id := avail[0]
	sim.products[pred] = avail[1:]
	return id, nil
}

// dispense creates a droplet at a free port.
func (sim *simulator) dispense(t int, fluid string, consumerOp int) (int, error) {
	for try := 0; try < len(sim.ports); try++ {
		port := sim.ports[(sim.nextPort+try)%len(sim.ports)]
		if sim.chip.IsFaulty(port) {
			continue
		}
		d, err := sim.state.Dispense(fluid, port)
		if err != nil {
			continue // occupied or separation-blocked; try next port
		}
		sim.nextPort = (sim.nextPort + try + 1) % len(sim.ports)
		if sim.opts.Trace {
			sim.log(t, "dispense", "%s at port %v (droplet %d)", fluid, port, d.ID)
		}
		return d.ID, nil
	}
	return 0, fmt.Errorf("no free dispense port for %s", fluid)
}

// routeDroplet moves droplet id to target, avoiding active modules
// (except the op's own module), faults and other droplets. A droplet
// that currently sits inside another active module's region — e.g. a
// product parked where a module is about to start — first escapes to a
// free cell and then routes normally.
func (sim *simulator) routeDroplet(t, id int, target geom.Point, ownOp int) error {
	if err := sim.escapeIfInsideKeepOut(t, id, ownOp); err != nil {
		return err
	}
	d, ok := sim.state.Droplet(id)
	if !ok {
		return fmt.Errorf("unknown droplet %d", id)
	}
	sim.resetTree(id, d.Pos, sim.activeRects(t, ownOp))
	path, err := sim.pathTo(target)
	if err != nil {
		return err
	}
	if err := sim.state.FollowPath(id, path); err != nil {
		return err
	}
	sim.opts.Metrics.Histogram("sim.route_steps", telemetry.PathLenBuckets...).
		Observe(float64(router.Steps(path)))
	if sim.opts.Trace {
		sim.log(t, "route", "droplet %d %v -> %v (%d steps)", id, path[0], target, router.Steps(path))
	}
	return nil
}

// escapeIfInsideKeepOut parks the droplet outside every active module
// if its current cell lies inside one it does not belong to.
func (sim *simulator) escapeIfInsideKeepOut(t, id, ownOp int) error {
	d, ok := sim.state.Droplet(id)
	if !ok {
		return fmt.Errorf("unknown droplet %d", id)
	}
	for _, r := range sim.activeRects(t, ownOp) {
		if r.Contains(d.Pos) {
			return sim.parkDroplet(t, id, ownOp)
		}
	}
	return nil
}

// mergeInto routes droplet id next to the droplet `into` waiting at
// center and coalesces them. The droplet is routed to a staging cell
// at Chebyshev distance 2 (just outside the partner's separation
// halo), takes one MoveToMerge step onto an approach cell adjacent to
// the partner, and merges. All cells involved must be healthy; the
// enumeration tries every (approach, staging) pair deterministically
// so a fault next to the centre never wedges the operation.
func (sim *simulator) mergeInto(t, into, id, ownOp int, center geom.Point) error {
	if err := sim.escapeIfInsideKeepOut(t, id, ownOp); err != nil {
		return err
	}
	d, ok := sim.state.Droplet(id)
	if !ok {
		return fmt.Errorf("unknown droplet %d", id)
	}
	if chebyshev(d.Pos, center) <= 1 {
		if _, err := sim.state.Merge(into, id); err != nil {
			return err
		}
		if sim.opts.Trace {
			sim.log(t, "merge", "droplet %d into %d at %v", id, into, center)
		}
		return nil
	}
	// One search tree serves every staging cell: nothing moves until a
	// route is taken.
	sim.resetTree(id, d.Pos, sim.activeRects(t, ownOp))
	var approaches []geom.Point
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			if dx == 0 && dy == 0 {
				continue
			}
			approaches = append(approaches, geom.Point{X: center.X + dx, Y: center.Y + dy})
		}
	}
	sortNearest(approaches, d.Pos)
	for _, a := range approaches {
		if !sim.chip.In(a) || sim.chip.IsFaulty(a) || !sim.state.SeparationOK(a, id, into) {
			continue
		}
		stagings := a.Neighbors4()
		for _, s := range stagings {
			if chebyshev(s, center) != 2 || !sim.chip.In(s) || sim.chip.IsFaulty(s) {
				continue
			}
			path, err := sim.pathTo(s)
			if err != nil {
				continue
			}
			if err := sim.state.FollowPath(id, path); err != nil {
				return err
			}
			if err := sim.state.MoveToMerge(id, into, a); err != nil {
				return err
			}
			if _, err := sim.state.Merge(into, id); err != nil {
				return err
			}
			if sim.opts.Trace {
				sim.log(t, "merge", "droplet %d into %d via %v->%v (%d steps)",
					id, into, s, a, router.Steps(path)+1)
			}
			return nil
		}
	}
	return fmt.Errorf("no merge approach to %v for droplet %d", center, id)
}

// sortNearest orders cells by Manhattan distance to from, breaking
// ties by (Y, X) for determinism.
func sortNearest(cells []geom.Point, from geom.Point) {
	sort.Slice(cells, func(i, j int) bool {
		di, dj := cells[i].Manhattan(from), cells[j].Manhattan(from)
		if di != dj {
			return di < dj
		}
		if cells[i].Y != cells[j].Y {
			return cells[i].Y < cells[j].Y
		}
		return cells[i].X < cells[j].X
	})
}

// evictDroplets clears rect of droplets that do not belong to ownerOp,
// parking them on free cells outside every active module.
func (sim *simulator) evictDroplets(t int, rect geom.Rect, ownerOp int) error {
	for _, d := range sim.state.Droplets() {
		if !rect.Contains(d.Pos) {
			continue
		}
		if id, ok := sim.inModule[ownerOp]; ok && id == d.ID {
			continue
		}
		if err := sim.parkDroplet(t, d.ID, ownerOp); err != nil {
			return fmt.Errorf("evicting droplet %d from %v: %v", d.ID, rect, err)
		}
	}
	return nil
}

// parkDroplet moves the droplet to the nearest cell outside every
// active module. On its way out it may cross starterOp's module and
// any module region it currently sits inside (physically it is just
// leaving); all other active modules stay off limits.
func (sim *simulator) parkDroplet(t, id, starterOp int) error {
	d, ok := sim.state.Droplet(id)
	if !ok {
		return fmt.Errorf("unknown droplet %d", id)
	}
	var crossKeepOut []geom.Rect
	for _, r := range sim.activeRects(t, starterOp) {
		if !r.Contains(d.Pos) {
			crossKeepOut = append(crossKeepOut, r)
		}
	}
	// The candidate cells and the routes to them come from one search
	// tree, rooted where the droplet is.
	from := d.Pos
	sim.resetTree(id, from, crossKeepOut)
	allRects := sim.activeRects(t)
	cells := sim.tree.Reached()
	for i := 0; i < len(cells); i++ {
		cell := cells[i]
		inModule := false
		for _, r := range allRects {
			if r.Contains(cell) {
				inModule = true
				break
			}
		}
		if inModule || !sim.state.SeparationOK(cell, id) {
			continue
		}
		path, err := sim.pathTo(cell)
		if err != nil {
			continue
		}
		err = sim.state.FollowPath(id, path)
		if err == nil {
			if sim.opts.Trace {
				sim.log(t, "park", "droplet %d parked at %v", id, cell)
			}
			return nil
		}
		// A refused step leaves the droplet part-way along the path:
		// later candidates are routed from where it stopped, on a tree
		// regrown there (cells is copied first, as the regrow reuses
		// the slice Reached returned).
		if cur, ok := sim.state.Droplet(id); ok && cur.Pos != from {
			from = cur.Pos
			cells = slices.Clone(cells)
			sim.resetTree(id, from, crossKeepOut)
		}
	}
	return fmt.Errorf("no parking cell reachable from %v", d.Pos)
}

// outputOp routes the input droplet to a collection port and removes
// it from the array.
func (sim *simulator) outputOp(t, opID int) error {
	preds := sim.sched.Graph.Pred(opID)
	if len(preds) != 1 {
		return fmt.Errorf("output op %d needs exactly one input", opID)
	}
	id, err := sim.takeProduct(t, preds[0], opID)
	if err != nil {
		return err
	}
	sim.collectDroplet(t, id)
	return nil
}

// collect gathers all remaining droplets at the end of the assay.
func (sim *simulator) collect(t int) {
	for _, d := range sim.state.Droplets() {
		sim.collectDroplet(t, d.ID)
	}
}

// collectDroplet routes the droplet to the nearest port if possible
// and removes it, recording its fluid as a product.
func (sim *simulator) collectDroplet(t, id int) {
	d, ok := sim.state.Droplet(id)
	if !ok {
		return
	}
	// Best effort: route to the first reachable port for transport
	// accounting; removal happens regardless.
	sim.resetTree(id, d.Pos, sim.activeRects(t))
	for _, port := range sim.ports {
		path, err := sim.pathTo(port)
		if err == nil {
			if ferr := sim.state.FollowPath(id, path); ferr != nil {
				// The droplet is removed below regardless; a refused
				// final hop only loses transport accounting.
				if sim.opts.Trace {
					sim.log(t, "collect", "droplet %d stopped short of port %v: %v", id, port, ferr)
				}
			}
			break
		}
	}
	sim.res.ProductFluids = append(sim.res.ProductFluids, d.Fluid)
	sim.state.Remove(id)
	sim.log(t, "collect", "droplet %d (%s) collected", id, d.Fluid)
}

func chebyshev(a, b geom.Point) int {
	return max(abs(a.X-b.X), abs(a.Y-b.Y))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
