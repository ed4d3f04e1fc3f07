package defect

import (
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/recovery"
	"dmfb/internal/schedule"
)

// Review is the verdict of the design-time pass on one defect map.
type Review struct {
	// Survivable reports whether every defect was absorbed without
	// abandoning operations — the die works as designed, possibly on a
	// stretched schedule.
	Survivable bool
	// Levels is the ladder rung that absorbed each defect, in input
	// order (LevelNone for defects on cells no module uses). On a
	// non-survivable die it stops before the defect that failed.
	Levels []recovery.Level
	// Placement and Sched are the reconfigured design: where each
	// module ended up and the (possibly stretched) schedule. They
	// equal the inputs when the map needed no reconfiguration, and
	// Sched stays nil when no schedule was given.
	Placement *place.Placement
	Sched     *schedule.Schedule
}

// Reconfigure decides at design time whether a fabricated die with the
// given defect map can run the assay without re-synthesis, by
// replaying the recovery ladder over the defects before the assay
// starts (Now = 0): L1 relocates every module off a defect by partial
// reconfiguration, L2 re-hosts modules that fit nowhere on smaller
// same-kind devices with a local schedule stretch, and L3 re-places
// the whole module set around the accumulated defects with a short
// seeded anneal. A map survives exactly when every defect yields to
// one of those three rungs — the "local reconfiguration" of the yield
// companion paper, reusing the run-time machinery unchanged.
//
// Defects are processed in the given order; pass the canonical scan
// order (what every Generator returns) for deterministic results. The
// array is the fabricated one and bounds every rung, however far the
// reconfigured modules' bounding box shrinks; it must be anchored at
// the origin (the L3 anneal core area), as every placement produced
// by the pipeline is.
//
// The schedule may be nil when only the placement is known, as in the
// fault campaigns: L2 is then skipped and L1 and L3 are the paper's
// partial and full reconfiguration.
//
// opts configures the ladder. Its MaxLevel caps the rung the pass may
// climb: zero means LevelDefragment, and anything above is clamped to
// it, because L4 (abandoning operations) is re-synthesis territory — a
// die that needs it is not survivable as designed. LevelRelocate is the
// paper's plain partial reconfiguration. Every L3 of one pass anneals
// with opts.Anneal (inside campaign trials, set its Seed from
// campaign.DeriveSeed). Each ladder call emits its recovery.ladder span
// and recovery.* and reconfig.* metrics into opts.Telemetry and
// opts.Metrics.
func Reconfigure(s *schedule.Schedule, p *place.Placement, array geom.Rect,
	defects []geom.Point, opts recovery.Options) Review {
	if opts.MaxLevel == recovery.LevelNone || opts.MaxLevel > recovery.LevelDefragment {
		opts.MaxLevel = recovery.LevelDefragment
	}
	ladder := recovery.New(opts)
	rev := Review{Survivable: true, Placement: p, Sched: s,
		Levels: make([]recovery.Level, 0, len(defects))}
	for i, d := range defects {
		if !used(rev.Placement, d) {
			// A defect on a cell no module ever uses costs nothing now,
			// but stays in the obstacle set for every later defect.
			rev.Levels = append(rev.Levels, recovery.LevelNone)
			continue
		}
		plan, _ := ladder.Recover(recovery.State{
			Sched:     rev.Sched,
			Placement: rev.Placement,
			Array:     array,
			Now:       0,
			Fault:     d,
			Faults:    defects[:i+1],
		})
		if plan == nil {
			rev.Survivable = false
			return rev
		}
		rev.Levels = append(rev.Levels, plan.Level)
		rev.Placement = plan.Placement
		rev.Sched = plan.Sched
	}
	return rev
}

// used reports whether any module of p ever occupies cell d.
func used(p *place.Placement, d geom.Point) bool {
	for i := range p.Modules {
		if p.Rect(i).Contains(d) {
			return true
		}
	}
	return false
}
