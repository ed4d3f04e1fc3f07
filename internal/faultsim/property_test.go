package faultsim

import (
	"context"
	"math/rand"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
)

// Differential property test for the recovery layer, extending the
// >30k-move differential pattern of the placement kernel tests: for
// any placement and any single fault cell, survival as measured
// through the campaign engine must equal a brute-force oracle that
// enumerates every candidate relocation site cell by cell, and every
// recovered placement must re-validate cell by cell.

// randomPlacement builds a valid random placement of 3–6 small
// modules inside an 8×8 core, or nil when rejection sampling fails.
func randomPlacement(rng *rand.Rand) *place.Placement {
	for attempt := 0; attempt < 40; attempt++ {
		n := 3 + rng.Intn(4)
		mods := make([]place.Module, n)
		for i := range mods {
			start := rng.Intn(10)
			mods[i] = place.Module{
				ID:   i,
				Name: "R",
				Size: geom.Size{W: 1 + rng.Intn(3), H: 1 + rng.Intn(3)},
				Span: geom.Interval{Start: start, End: start + 1 + rng.Intn(6)},
			}
		}
		p := place.New(mods)
		for i := range mods {
			sz := p.Size(i)
			if rng.Intn(2) == 0 && !mods[i].Size.IsSquare() {
				p.Rot[i] = true
				sz = p.Size(i)
			}
			p.Pos[i] = geom.Point{X: rng.Intn(9 - sz.W), Y: rng.Intn(9 - sz.H)}
		}
		if p.Validate() == nil {
			return p
		}
	}
	return nil
}

// bruteRecoverable is the oracle: the fault is survivable iff every
// module whose rectangle contains the fault has at least one
// relocation site — enumerated origin by origin, orientation by
// orientation — that stays inside the array, avoids the fault cell,
// and overlaps no time-conflicting module (checked cell by cell, no
// geometry shortcuts).
func bruteRecoverable(p *place.Placement, array geom.Rect, fault geom.Point) bool {
	for _, mi := range p.ModulesAt(fault) {
		if !bruteSiteExists(p, array, mi, fault) {
			return false
		}
	}
	return true
}

func bruteSiteExists(p *place.Placement, array geom.Rect, mi int, fault geom.Point) bool {
	m := p.Modules[mi]
	orients := []geom.Size{m.Size}
	if !m.Size.IsSquare() {
		orients = append(orients, m.Size.Transpose())
	}
	for _, sz := range orients {
		for y := array.Y; y+sz.H <= array.MaxY(); y++ {
			for x := array.X; x+sz.W <= array.MaxX(); x++ {
				site := geom.Rect{X: x, Y: y, W: sz.W, H: sz.H}
				if site.Contains(fault) {
					continue
				}
				if !overlapsConflicting(p, mi, site) {
					return true
				}
			}
		}
	}
	return false
}

// overlapsConflicting reports, cell by cell, whether site shares a
// cell with any module time-conflicting with module mi.
func overlapsConflicting(p *place.Placement, mi int, site geom.Rect) bool {
	for j := range p.Modules {
		if j == mi || !p.Modules[j].Span.Overlaps(p.Modules[mi].Span) {
			continue
		}
		r := p.Rect(j)
		for y := site.Y; y < site.MaxY(); y++ {
			for x := site.X; x < site.MaxX(); x++ {
				if r.Contains(geom.Point{X: x, Y: y}) {
					return true
				}
			}
		}
	}
	return false
}

// revalidateCellByCell rebuilds the occupancy of the recovered
// placement one time unit at a time and asserts that no cell is
// claimed twice at the same instant and that the fault cell is never
// claimed at all.
func revalidateCellByCell(t *testing.T, p *place.Placement, array geom.Rect, fault geom.Point) {
	t.Helper()
	minT, maxT := p.Modules[0].Span.Start, p.Modules[0].Span.End
	for _, m := range p.Modules {
		if m.Span.Start < minT {
			minT = m.Span.Start
		}
		if m.Span.End > maxT {
			maxT = m.Span.End
		}
	}
	for tick := minT; tick < maxT; tick++ {
		claims := make(map[geom.Point]int)
		for i, m := range p.Modules {
			iv := geom.Interval{Start: tick, End: tick + 1}
			if !m.Span.Overlaps(iv) {
				continue
			}
			r := p.Rect(i)
			if !array.ContainsRect(r) {
				t.Fatalf("recovered module %d rect %v escapes array %v", i, r, array)
			}
			for y := r.Y; y < r.MaxY(); y++ {
				for x := r.X; x < r.MaxX(); x++ {
					pt := geom.Point{X: x, Y: y}
					if pt == fault {
						t.Fatalf("recovered placement uses fault cell %v at t=%d", fault, tick)
					}
					claims[pt]++
					if claims[pt] > 1 {
						t.Fatalf("cell %v claimed twice at t=%d", pt, tick)
					}
				}
			}
		}
	}
}

func TestRecoveryMatchesBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	pairs := 0
	mismatches := 0
	for pi := 0; pairs < 31000 && pi < 2000; pi++ {
		p := randomPlacement(rng)
		if p == nil {
			continue
		}
		array := p.BoundingBox()
		cells := array.Cells()

		// Engine-side verdicts: one trial per array cell, full recovery
		// (plan + apply) on a private clone.
		verdict := make([]bool, cells)
		_, err := campaign.Run(context.Background(),
			campaign.Config{Name: "oracle", Trials: cells},
			func(_ context.Context, tr campaign.Trial) campaign.Outcome {
				fault := geom.Point{
					X: array.X + tr.Index%array.W,
					Y: array.Y + tr.Index/array.W,
				}
				cur := p.Clone()
				if _, rerr := reconfig.Recover(nil, cur, array, fault); rerr != nil {
					return campaign.Outcome{}
				}
				revalidateCellByCell(t, cur, array, fault)
				verdict[tr.Index] = true
				return campaign.Outcome{Survived: true}
			})
		if err != nil {
			t.Fatal(err)
		}

		for idx := 0; idx < cells; idx++ {
			fault := geom.Point{X: array.X + idx%array.W, Y: array.Y + idx/array.W}
			want := bruteRecoverable(p, array, fault)
			if verdict[idx] != want {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("placement %d fault %v: engine survived=%v, oracle=%v\n%v",
						pi, fault, verdict[idx], want, p)
				}
			}
			pairs++
		}
	}
	if pairs < 31000 {
		t.Fatalf("only %d (placement, fault) pairs exercised; want > 30k", pairs)
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d pairs disagree with the brute-force oracle", mismatches, pairs)
	}
	t.Logf("verified %d (placement, fault) pairs against the oracle", pairs)
}

// TestExhaustiveSurvivalEqualsCoveredOnRandomPlacements is the
// metamorphic form of the paper's definition: on any valid placement,
// sweeping one fault over every array cell survives on exactly the
// cells fti.Compute reports C-covered, so the two counts agree without
// any oracle. The placements are seeded random non-overlapping sets of
// 1–5 modules up to 4×4, at origins 0..7 with random rotation and
// spans.
func TestExhaustiveSurvivalEqualsCoveredOnRandomPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	checked := 0
	for checked < 400 {
		n := 1 + rng.Intn(5)
		mods := make([]place.Module, n)
		for i := range mods {
			start := rng.Intn(8)
			mods[i] = place.Module{
				ID:   i,
				Name: "R",
				Size: geom.Size{W: 1 + rng.Intn(4), H: 1 + rng.Intn(4)},
				Span: geom.Interval{Start: start, End: start + 1 + rng.Intn(6)},
			}
		}
		p := place.New(mods)
		for i := range mods {
			p.Rot[i] = rng.Intn(2) == 0
			p.Pos[i] = geom.Point{X: rng.Intn(8), Y: rng.Intn(8)}
		}
		if p.Validate() != nil {
			continue
		}
		checked++
		r := fti.Compute(p)
		s := ExhaustiveSingleFault(p)
		if s.Survived != r.Covered || s.Trials != r.Total {
			t.Fatalf("placement %d: exhaustive survived %d/%d, FTI covers %d/%d\n%s",
				checked, s.Survived, s.Trials, r.Covered, r.Total, p)
		}
	}
}
