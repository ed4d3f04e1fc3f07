package actuation

import (
	"strings"
	"testing"

	"dmfb/internal/fluidics"
	"dmfb/internal/geom"
	"dmfb/internal/router"
)

func TestCompileTransportSingleDroplet(t *testing.T) {
	chip := fluidics.NewChip(6, 3)
	plan, err := router.PlanConcurrent(chip,
		[]router.Endpoint{{From: geom.Point{X: 0, Y: 0}, To: geom.Point{X: 3, Y: 0}}},
		router.ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := CompileTransport(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != plan.Makespan+1 {
		t.Fatalf("frames = %d, want %d", len(frames), plan.Makespan+1)
	}
	// Frame t energises the droplet's position at t+1: a straight
	// eastward march energises (1,0), (2,0), (3,0), then holds (3,0).
	want := []geom.Point{{X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}, {X: 3, Y: 0}}
	for i, w := range want {
		if len(frames[i].On) != 1 || frames[i].On[0] != w {
			t.Errorf("frame %d = %v, want %v", i, frames[i].On, w)
		}
	}
}

func TestCompileTransportMultiDroplet(t *testing.T) {
	chip := fluidics.NewChip(10, 6)
	eps := []router.Endpoint{
		{From: geom.Point{X: 0, Y: 0}, To: geom.Point{X: 9, Y: 0}},
		{From: geom.Point{X: 0, Y: 4}, To: geom.Point{X: 9, Y: 4}},
	}
	plan, err := router.PlanConcurrent(chip, eps, router.ConcurrentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	frames, err := CompileTransport(plan)
	if err != nil {
		t.Fatal(err)
	}
	prog := Program{W: 10, H: 6, Frames: frames}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	if prog.DurationMS() != (plan.Makespan+1)*10 {
		t.Errorf("duration = %d ms", prog.DurationMS())
	}
	for _, f := range frames {
		if len(f.On) != 2 {
			t.Errorf("frame %d energises %d electrodes, want 2", f.Step, len(f.On))
		}
	}
}

func TestCompileTransportEmpty(t *testing.T) {
	frames, err := CompileTransport(nil)
	if err != nil || frames != nil {
		t.Fatal("nil plan should compile to nothing")
	}
	frames, err = CompileTransport(&router.ConcurrentPlan{})
	if err != nil || frames != nil {
		t.Fatal("empty plan should compile to nothing")
	}
}

func TestMixerPatternRectangular(t *testing.T) {
	// 2x4 functional region: perimeter = all 8 cells.
	frames, err := MixerPattern(geom.Rect{X: 1, Y: 1, W: 4, H: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 16 { // 8 cells x 2 laps
		t.Fatalf("frames = %d, want 16", len(frames))
	}
	// The walk is a closed tour: consecutive electrodes adjacent, and
	// the lap wraps around.
	for i := range frames {
		if len(frames[i].On) != 1 {
			t.Fatalf("mixer frame energises %d electrodes", len(frames[i].On))
		}
		next := frames[(i+1)%len(frames)].On[0]
		if frames[i].On[0].Manhattan(next) != 1 {
			t.Errorf("tour breaks between step %d (%v) and next (%v)",
				i, frames[i].On[0], next)
		}
	}
	// Every perimeter cell is visited each lap.
	seen := map[geom.Point]int{}
	for _, f := range frames {
		seen[f.On[0]]++
	}
	if len(seen) != 8 {
		t.Errorf("visited %d distinct cells, want 8", len(seen))
	}
	for p, n := range seen {
		if n != 2 {
			t.Errorf("cell %v visited %d times, want 2", p, n)
		}
	}
}

func TestMixerPatternLinear(t *testing.T) {
	// 1x4 linear mixer: droplet oscillates end to end.
	frames, err := MixerPattern(geom.Rect{X: 0, Y: 0, W: 4, H: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 6 { // 4 out + 2 back
		t.Fatalf("frames = %d, want 6", len(frames))
	}
	for i := 0; i+1 < len(frames); i++ {
		if frames[i].On[0].Manhattan(frames[i+1].On[0]) != 1 {
			t.Errorf("oscillation breaks at %d", i)
		}
	}
	// Wraps back to the start.
	if frames[len(frames)-1].On[0].Manhattan(frames[0].On[0]) != 1 {
		t.Error("oscillation does not close the loop")
	}
}

func TestMixerPatternErrors(t *testing.T) {
	if _, err := MixerPattern(geom.Rect{}, 1); err == nil {
		t.Error("empty region accepted")
	}
	if _, err := MixerPattern(geom.Rect{X: 0, Y: 0, W: 2, H: 2}, 0); err == nil {
		t.Error("zero laps accepted")
	}
	if _, err := MixerPattern(geom.Rect{X: 0, Y: 0, W: 1, H: 1}, 1); err == nil {
		t.Error("single-electrode mixing accepted")
	}
}

func TestFrameBitmapAndString(t *testing.T) {
	f := Frame{On: []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 1}}}
	bm := f.Bitmap(4, 2)
	if !bm[0] || !bm[1*4+3] {
		t.Error("Bitmap bits wrong")
	}
	on := 0
	for _, b := range bm {
		if b {
			on++
		}
	}
	if on != 2 {
		t.Errorf("Bitmap has %d bits set", on)
	}
	if !strings.Contains(f.String(), "(0,0)") {
		t.Errorf("String = %q", f.String())
	}
}

func TestProgramValidateCatchesViolations(t *testing.T) {
	bad := Program{W: 4, H: 4, Frames: []Frame{
		{Step: 0, On: []geom.Point{{X: 5, Y: 0}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-array electrode accepted")
	}
	bad = Program{W: 4, H: 4, Frames: []Frame{
		{Step: 0, On: []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 1}}},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("adjacent electrodes accepted")
	}
}
