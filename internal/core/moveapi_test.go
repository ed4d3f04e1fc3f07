package core

import (
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/telemetry"
)

// TestAnnealAreaObstaclePinnedNoNormalize checks the obstacle path
// skips normalisation: with a dead cell at the origin of a tight core,
// the only feasible placements leave the origin free, so the returned
// bounding box must not be translated back onto (0,0).
func TestAnnealAreaObstaclePinnedNoNormalize(t *testing.T) {
	prob := Problem{
		Modules:   []place.Module{mod(0, "A", 2, 2, 0, 5)},
		MaxW:      3,
		MaxH:      3,
		Obstacles: []geom.Point{{X: 0, Y: 0}},
	}
	p, _, err := AnnealArea(prob, lightOptions(4))
	if err != nil {
		t.Fatalf("AnnealArea: %v", err)
	}
	if hits := prob.obstacleHits(p); hits != 0 {
		t.Fatalf("placement covers %d obstacle cell(s)", hits)
	}
	bb := p.BoundingBox()
	if bb.X == 0 && bb.Y == 0 {
		t.Fatalf("obstacle-pinned placement was normalised onto the origin: %v", bb)
	}
	if !p.FitsIn(prob.MaxW, prob.MaxH) {
		t.Fatalf("placement leaves the core area: %s", p)
	}
}

// TestBetaSweepDeterministic pins the Table-2 sweep under the move
// API: the shared stage-1 placement plus per-β LTSA replays exactly.
func TestBetaSweepDeterministic(t *testing.T) {
	prob := Problem{Modules: []place.Module{
		mod(0, "A", 3, 2, 0, 6), mod(1, "B", 2, 3, 2, 9),
		mod(2, "C", 2, 2, 5, 12), mod(3, "D", 3, 2, 8, 14),
	}, MaxW: 7, MaxH: 7}
	betas := []float64{0, 20, 40}

	s1, err := BetaSweep(prob, lightOptions(2), FTOptions{}, betas)
	if err != nil {
		t.Fatalf("BetaSweep: %v", err)
	}
	s2, err := BetaSweep(prob, lightOptions(2), FTOptions{}, betas)
	if err != nil {
		t.Fatalf("BetaSweep rerun: %v", err)
	}
	if len(s1) != len(betas) {
		t.Fatalf("sweep returned %d points, want %d", len(s1), len(betas))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("sweep point %d not deterministic: %+v vs %+v", i, s1[i], s2[i])
		}
		if s1[i].FTI < 0 || s1[i].FTI > 1 {
			t.Fatalf("sweep point %d has FTI %v outside [0,1]", i, s1[i].FTI)
		}
	}
}

// TestKernelMetricsPublished checks the kernel counters reach the
// telemetry registry through Options.Metrics.
func TestKernelMetricsPublished(t *testing.T) {
	// Two time-disjoint module groups, so most moves dirty only part
	// of the module set and the FTI cache gets real hits.
	prob := Problem{Modules: []place.Module{
		mod(0, "A", 3, 2, 0, 5), mod(1, "B", 2, 3, 2, 8),
		mod(2, "C", 2, 2, 10, 15), mod(3, "D", 3, 2, 12, 18),
	}, MaxW: 7, MaxH: 7}
	reg := telemetry.NewRegistry()
	opts := lightOptions(1)
	opts.Metrics = reg

	s1, _, err := AnnealArea(prob, opts)
	if err != nil {
		t.Fatalf("AnnealArea: %v", err)
	}
	if _, _, err := AnnealFaultTolerance(s1, prob, opts, FTOptions{Beta: 20}); err != nil {
		t.Fatalf("AnnealFaultTolerance: %v", err)
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"place.area.moves_proposed", "place.area.moves_committed",
		"place.area.moves_reverted", "place.area.delta_evals",
		"place.ft.moves_proposed", "place.ft.bound_rejects",
		"place.fti.module_evals", "place.fti.cache_hits",
	} {
		v, ok := snap.Counters[name]
		if !ok {
			t.Errorf("counter %s not published", name)
			continue
		}
		if v <= 0 {
			t.Errorf("counter %s = %d, want > 0", name, v)
		}
	}
	rate, ok := snap.Gauges["place.fti.cache_hit_rate"]
	if !ok {
		t.Errorf("gauge place.fti.cache_hit_rate not published")
	} else if rate <= 0 || rate > 1 {
		t.Errorf("cache hit rate = %v, want in (0,1]", rate)
	}
	prop := snap.Counters["place.area.moves_proposed"]
	comm := snap.Counters["place.area.moves_committed"]
	rev := snap.Counters["place.area.moves_reverted"]
	if comm+rev != prop {
		t.Errorf("committed %d + reverted %d != proposed %d", comm, rev, prop)
	}
	// Only FTI-priced proposals can change the array and force a
	// rebuild, and stage 2 at β = 20 meets at least one.
	if rb, de := snap.Counters["place.ft.rebuilds"], snap.Counters["place.ft.delta_evals"]; rb <= 0 || rb > de {
		t.Errorf("place.ft.rebuilds = %d, want in (0, delta_evals = %d]", rb, de)
	}
	// Every proposal is settled either on its bound or by a delta.
	for _, stage := range []string{"area", "ft"} {
		c := func(name string) int64 { return snap.Counters["place."+stage+"."+name] }
		if c("bound_rejects")+c("delta_evals") != c("moves_proposed") {
			t.Errorf("%s: bound_rejects %d + delta_evals %d != moves_proposed %d",
				stage, c("bound_rejects"), c("delta_evals"), c("moves_proposed"))
		}
	}
}
