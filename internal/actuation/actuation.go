// Package actuation compiles droplet-level plans into electrode
// activation sequences — the control program the paper describes being
// "dynamically programmed into a microcontroller that controls the
// voltages of electrodes in the array".
//
// Electrowetting control convention: to move a droplet one cell, the
// target electrode is energised while the droplet's current electrode
// is released; to hold a droplet in place its electrode stays
// energised. A frame lists the energised electrodes for one 10 ms
// control step.
package actuation

import (
	"fmt"
	"sort"
	"strings"

	"dmfb/internal/geom"
	"dmfb/internal/router"
)

// Frame is the set of energised electrodes during one control step.
type Frame struct {
	Step int
	On   []geom.Point // sorted by (Y, X)
}

// Bitmap renders the frame as a row-major boolean matrix for a w×h
// array (the shape a register-scan chain would consume).
func (f Frame) Bitmap(w, h int) []bool {
	m := make([]bool, w*h)
	for _, p := range f.On {
		if p.X >= 0 && p.X < w && p.Y >= 0 && p.Y < h {
			m[p.Y*w+p.X] = true
		}
	}
	return m
}

// String renders the frame compactly.
func (f Frame) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %d:", f.Step)
	for _, p := range f.On {
		fmt.Fprintf(&b, " %v", p)
	}
	return b.String()
}

func sortCells(cells []geom.Point) {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Y != cells[j].Y {
			return cells[i].Y < cells[j].Y
		}
		return cells[i].X < cells[j].X
	})
}

// CompileTransport converts a synchronised multi-droplet routing plan
// into control frames: frame t energises, for every droplet, the
// electrode it must occupy at step t+1 (its pull target when moving,
// its own electrode when holding); a final frame holds every droplet
// at its destination. The plan's separation constraints guarantee no
// two energised electrodes of a frame are adjacent, which the compiler
// verifies.
func CompileTransport(plan *router.ConcurrentPlan) ([]Frame, error) {
	if plan == nil || len(plan.Paths) == 0 {
		return nil, nil
	}
	frames := make([]Frame, 0, plan.Makespan+1)
	for t := 0; t <= plan.Makespan; t++ {
		var on []geom.Point
		for _, path := range plan.Paths {
			next := path[min(t+1, plan.Makespan)]
			on = append(on, next)
		}
		sortCells(on)
		for i := 0; i < len(on); i++ {
			for j := i + 1; j < len(on); j++ {
				if cheb(on[i], on[j]) < 2 {
					return nil, fmt.Errorf(
						"actuation: frame %d energises adjacent electrodes %v and %v",
						t, on[i], on[j])
				}
			}
		}
		frames = append(frames, Frame{Step: t, On: on})
	}
	return frames, nil
}

// MixerPattern generates the cyclic actuation that mixes a droplet
// inside a module: the droplet is walked around the perimeter of the
// functional region ("routing two droplets to the same location and
// then turning them around some pivot points", Section 2) for the
// given number of laps. The functional region must be at least 2×2 —
// for linear (1×k) mixers the droplet oscillates end to end instead.
func MixerPattern(functional geom.Rect, laps int) ([]Frame, error) {
	if functional.Empty() || laps < 1 {
		return nil, fmt.Errorf("actuation: bad mixer pattern request %v x%d", functional, laps)
	}
	cycle := perimeter(functional)
	if len(cycle) == 1 {
		return nil, fmt.Errorf("actuation: cannot mix on a single electrode %v", functional)
	}
	var frames []Frame
	step := 0
	for lap := 0; lap < laps; lap++ {
		for _, p := range cycle {
			frames = append(frames, Frame{Step: step, On: []geom.Point{p}})
			step++
		}
	}
	return frames, nil
}

// perimeter returns the boundary cells of r in clockwise walk order
// starting at the origin corner; for 1-wide regions it returns the
// out-and-back oscillation path.
func perimeter(r geom.Rect) []geom.Point {
	if r.W == 1 || r.H == 1 {
		var line []geom.Point
		for _, p := range r.Points() {
			line = append(line, p)
		}
		// Out and back (excluding the duplicated endpoints).
		out := append([]geom.Point(nil), line...)
		for i := len(line) - 2; i >= 1; i-- {
			out = append(out, line[i])
		}
		return out
	}
	var out []geom.Point
	for x := r.X; x < r.MaxX(); x++ { // bottom, left→right
		out = append(out, geom.Point{X: x, Y: r.Y})
	}
	for y := r.Y + 1; y < r.MaxY(); y++ { // right, bottom→top
		out = append(out, geom.Point{X: r.MaxX() - 1, Y: y})
	}
	for x := r.MaxX() - 2; x >= r.X; x-- { // top, right→left
		out = append(out, geom.Point{X: x, Y: r.MaxY() - 1})
	}
	for y := r.MaxY() - 2; y >= r.Y+1; y-- { // left, top→bottom
		out = append(out, geom.Point{X: r.X, Y: y})
	}
	return out
}

// Program is a complete electrode control program: an ordered frame
// sequence plus the array dimensions it addresses.
type Program struct {
	W, H   int
	Frames []Frame
}

// Validate checks every frame addresses only in-array electrodes and
// never energises adjacent pairs.
func (p *Program) Validate() error {
	bounds := geom.Rect{X: 0, Y: 0, W: p.W, H: p.H}
	for _, f := range p.Frames {
		for i, c := range f.On {
			if !bounds.Contains(c) {
				return fmt.Errorf("actuation: frame %d electrode %v outside %dx%d array",
					f.Step, c, p.W, p.H)
			}
			for j := i + 1; j < len(f.On); j++ {
				if cheb(c, f.On[j]) < 2 {
					return fmt.Errorf("actuation: frame %d energises adjacent electrodes %v and %v",
						f.Step, c, f.On[j])
				}
			}
		}
	}
	return nil
}

// DurationMS returns the program length in milliseconds at the 10 ms
// control period.
func (p *Program) DurationMS() int { return len(p.Frames) * 10 }

func cheb(a, b geom.Point) int {
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	if dx > dy {
		return dx
	}
	return dy
}
