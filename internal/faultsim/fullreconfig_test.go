package faultsim

import (
	"fmt"
	"testing"

	"dmfb/internal/defect"
	"dmfb/internal/geom"

	"dmfb/internal/core"
	"dmfb/internal/pcr"
	"dmfb/internal/recovery"
)

func lightOpts(seed int64) core.Options {
	return core.Options{Seed: seed, ItersPerModule: 60, WindowPatience: 3}
}

// TestFullReconfigurationBeatsPartial: with full re-placement as a
// fallback, multi-fault survival can only improve.
func TestFullReconfigurationBeatsPartial(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())
	res, err := core.TwoStage(prob, core.Options{Seed: 1, ItersPerModule: 120, WindowPatience: 4},
		core.FTOptions{Beta: 30})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Final
	const k, trials = 2, 40
	partial := mustRun(t, p, trials, 5, MultiFaultTrial(p, k, recovery.LevelRelocate, core.Options{}))
	full := mustRun(t, p, trials, 5, MultiFaultTrial(p, k, recovery.LevelDefragment, lightOpts(1)))
	if full.Survived < partial.Survived {
		t.Errorf("full fallback survived %d < partial-only %d", full.Survived, partial.Survived)
	}
	if full.Trials != trials || partial.Trials != trials {
		t.Error("trial counts wrong")
	}
	t.Logf("k=%d: partial %.3f, with full fallback %.3f",
		k, partial.SurvivalRate(), full.SurvivalRate())
}

// TestFullFallbackOnMinimalPlacement: on the packed area-minimal
// design, partial reconfiguration absorbs few single faults while the
// full fallback absorbs substantially more — the headline gap between
// the two mechanisms.
func TestFullFallbackOnMinimalPlacement(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())
	p, _, err := core.AnnealArea(prob, core.Options{Seed: 1, ItersPerModule: 150, WindowPatience: 5})
	if err != nil {
		t.Fatal(err)
	}
	const trials = 30
	partial := mustRun(t, p, trials, 7, MultiFaultTrial(p, 1, recovery.LevelRelocate, core.Options{}))
	full := mustRun(t, p, trials, 7, MultiFaultTrial(p, 1, recovery.LevelDefragment, lightOpts(2)))
	if full.SurvivalRate() < partial.SurvivalRate() {
		t.Errorf("full fallback (%.3f) below partial-only (%.3f)",
			full.SurvivalRate(), partial.SurvivalRate())
	}
	// On a placement this tight the fallback should rescue at least
	// some otherwise-fatal faults.
	if full.Survived == partial.Survived {
		t.Logf("note: full fallback rescued no extra faults in %d trials", trials)
	}
}

// TestFullReconfigurationUsesFabricatedArray: full re-placement (the
// ladder's L3) is bounded by the fabricated array, not by the bounding
// box of the modules it starts from. On the tight fixture the 1x1
// module that sets the 6x4 box has moved to (4,0), so the modules now
// span only 5x4. A defect on the unused cell (4,2) and a fault at
// (1,1) leave no 2x2 site for relocation, and no way to pack the
// module set into the 5x4 box: only the sixth column of the chip
// makes the die survive.
func TestFullReconfigurationUsesFabricatedArray(t *testing.T) {
	p := tightPlacement(t)
	array := p.BoundingBox()
	p.Pos[4] = geom.Point{X: 4, Y: 0}
	if bb := p.BoundingBox(); bb.W != 5 || array.W != 6 {
		t.Fatalf("fixture: box %v inside array %v, want 5 of 6 columns", bb, array)
	}
	defects := []geom.Point{{X: 4, Y: 2}, {X: 1, Y: 1}}
	opts := recovery.Options{Anneal: core.Options{Seed: 1, ItersPerModule: 40, WindowPatience: 2}}
	rev := defect.Reconfigure(nil, p, array, defects, opts)
	if !rev.Survivable {
		t.Fatalf("die with defects %v not survivable inside the fabricated %v", defects, array)
	}
	want := []recovery.Level{recovery.LevelNone, recovery.LevelDefragment}
	if fmt.Sprint(rev.Levels) != fmt.Sprint(want) {
		t.Fatalf("levels %v, want %v", rev.Levels, want)
	}
	if bb := rev.Placement.BoundingBox(); bb.MaxX() != array.MaxX() {
		t.Errorf("re-placement spans %v; it needs the column outside the old box", bb)
	}
	if shrunk := defect.Reconfigure(nil, p, p.BoundingBox(), defects, opts); shrunk.Survivable {
		t.Errorf("die survived inside the shrunk box %v, so the fixture proves nothing", p.BoundingBox())
	}
}
