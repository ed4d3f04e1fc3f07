// Package fluidics models the physical substrate of a digital
// microfluidic biochip: the two-plate electrowetting cell array of the
// paper's Section 2, the droplets moving on it, and the fluidic
// constraints governing their interaction.
//
// Physics abstracted here (values from the paper and Pollack's
// electrowetting work): droplets are actuated by modulating interfacial
// tension with 0–90 V control voltages and travel at up to 20 cm/s; at
// the 1.5 mm electrode pitch of Table 1 a droplet therefore crosses
// one cell in about 10 ms. The model is discrete: one control step
// moves a droplet to an orthogonally adjacent cell.
//
// A cell fault (electrode stuck open/short, dielectric breakdown,
// per the fault classification of Su et al., ITC 2003) makes the cell
// unable to accept a droplet; droplets never enter faulty cells and a
// transport attempt into one leaves the droplet stuck in place, which
// is exactly the behaviour on-line testing exploits.
//
// The fluidic constraint enforced between independent droplets is the
// standard static rule for electrowetting arrays: two droplets that
// are not meant to merge must never occupy adjacent cells (including
// diagonals), otherwise they coalesce spontaneously.
package fluidics

import (
	"cmp"
	"fmt"
	"slices"

	"dmfb/internal/geom"
	"dmfb/internal/grid"
)

// StepMS is the duration of one control step in milliseconds: one cell
// of travel at 20 cm/s over a 1.5 mm pitch, rounded to the control
// period used by the Duke prototypes.
const StepMS = 10

// StepsPerSecond converts schedule seconds to control steps.
const StepsPerSecond = 1000 / StepMS

// Chip is the physical array with per-cell health state.
type Chip struct {
	w, h   int
	faulty *grid.Grid
	// transient maps a faulty cell to the number of remaining probe
	// attempts that will still fail before the cell heals — the model
	// of intermittent electrode faults (droplet residue, charge
	// trapping) that clear under repeated actuation.
	transient map[geom.Point]int
}

// NewChip returns a fault-free w×h array.
func NewChip(w, h int) *Chip {
	return &Chip{w: w, h: h, faulty: grid.New(w, h)}
}

// W returns the array width in cells.
func (c *Chip) W() int { return c.w }

// H returns the array height in cells.
func (c *Chip) H() int { return c.h }

// Bounds returns the array extent.
func (c *Chip) Bounds() geom.Rect { return geom.Rect{X: 0, Y: 0, W: c.w, H: c.h} }

// In reports whether p is on the array.
func (c *Chip) In(p geom.Point) bool { return c.Bounds().Contains(p) }

// InjectFault marks cell p faulty. Out-of-bounds cells are rejected.
func (c *Chip) InjectFault(p geom.Point) error {
	if !c.In(p) {
		return fmt.Errorf("fluidics: fault %v outside %dx%d array", p, c.w, c.h)
	}
	c.faulty.Set(p, true)
	return nil
}

// InjectTransientFault marks cell p faulty for the next failProbes
// probe attempts; the failProbes+1'th probe succeeds and heals the
// cell. Until it heals, the cell behaves exactly like a permanent
// fault for every droplet operation — only Probe distinguishes the
// two, which is what the bounded-retry fault classification of the
// testdrop package exploits.
func (c *Chip) InjectTransientFault(p geom.Point, failProbes int) error {
	if failProbes < 1 {
		return fmt.Errorf("fluidics: transient fault at %v needs at least one failing probe, got %d",
			p, failProbes)
	}
	if err := c.InjectFault(p); err != nil {
		return err
	}
	if c.transient == nil {
		c.transient = make(map[geom.Point]int)
	}
	c.transient[p] = failProbes
	return nil
}

// Probe actuates cell p with a test stimulus and reports whether the
// cell accepted it. Healthy cells always pass; permanently faulty
// cells always fail; a transient fault fails its budgeted number of
// probes and then heals (the fault clears and subsequent probes and
// droplet operations succeed). Out-of-bounds cells read as failed.
func (c *Chip) Probe(p geom.Point) bool {
	if !c.In(p) {
		return false
	}
	if !c.faulty.Occupied(p) {
		return true
	}
	if n, ok := c.transient[p]; ok {
		n--
		if n <= 0 {
			delete(c.transient, p)
			c.faulty.Set(p, false)
		} else {
			c.transient[p] = n
		}
	}
	return false
}

// RepairFault clears the fault at p (e.g. after maintenance).
func (c *Chip) RepairFault(p geom.Point) {
	c.faulty.Set(p, false)
	delete(c.transient, p)
}

// IsFaulty reports whether cell p is faulty; out-of-bounds cells read
// as faulty.
func (c *Chip) IsFaulty(p geom.Point) bool { return c.faulty.Occupied(p) }

// Faults returns all faulty cells in row-major order.
func (c *Chip) Faults() []geom.Point {
	var out []geom.Point
	for y := 0; y < c.h; y++ {
		for x := 0; x < c.w; x++ {
			p := geom.Point{X: x, Y: y}
			if c.faulty.Occupied(p) {
				out = append(out, p)
			}
		}
	}
	return out
}

// Droplet is a discrete liquid packet on the array.
type Droplet struct {
	ID     int
	Pos    geom.Point
	Fluid  string  // contents label, e.g. "kcl" or "kcl+tris-hcl"
	Volume float64 // in dispense units; merging adds volumes
}

// State tracks the droplets present on a chip and enforces the
// fluidic constraints on every mutation.
type State struct {
	chip *Chip
	// droplets is kept in ID order: IDs are issued increasing and new
	// droplets are appended, so no mutation needs to re-sort.
	droplets []Droplet
	nextID   int
	moves    int // total single-cell transport operations performed
}

// NewState returns an empty droplet state for the chip.
func NewState(chip *Chip) *State {
	return &State{chip: chip}
}

// find returns the index of droplet id in s.droplets, or -1.
func (s *State) find(id int) int {
	i, ok := slices.BinarySearchFunc(s.droplets, id, func(d Droplet, id int) int {
		return cmp.Compare(d.ID, id)
	})
	if !ok {
		return -1
	}
	return i
}

// get returns a pointer to droplet id's entry, valid until the next
// insertion or removal.
func (s *State) get(id int) (*Droplet, bool) {
	i := s.find(id)
	if i < 0 {
		return nil, false
	}
	return &s.droplets[i], true
}

// remove deletes droplet id's entry, keeping ID order.
func (s *State) remove(id int) {
	if i := s.find(id); i >= 0 {
		s.droplets = slices.Delete(s.droplets, i, i+1)
	}
}

// Chip returns the underlying array.
func (s *State) Chip() *Chip { return s.chip }

// Moves returns the total number of single-cell moves executed — the
// transport cost of the assay so far.
func (s *State) Moves() int { return s.moves }

// Droplet returns the droplet with the given ID.
func (s *State) Droplet(id int) (*Droplet, bool) {
	d, ok := s.get(id)
	if !ok {
		return nil, false
	}
	cp := *d
	return &cp, true
}

// Droplets returns snapshots of all droplets, sorted by ID.
func (s *State) Droplets() []Droplet {
	return append(make([]Droplet, 0, len(s.droplets)), s.droplets...)
}

// Count returns the number of droplets on the array.
func (s *State) Count() int { return len(s.droplets) }

// At returns the droplet occupying cell p, if any.
func (s *State) At(p geom.Point) (*Droplet, bool) {
	for _, d := range s.droplets {
		if d.Pos == p {
			return &d, true
		}
	}
	return nil, false
}

// chebyshev returns the L∞ distance, the metric of the merge
// constraint (diagonal adjacency also coalesces droplets).
func chebyshev(a, b geom.Point) int {
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

// SeparationOK reports whether a droplet could sit at p without
// violating the static constraint against every current droplet except
// the listed IDs.
func (s *State) SeparationOK(p geom.Point, except ...int) bool {
	for _, d := range s.droplets {
		if chebyshev(p, d.Pos) < 2 && !slices.Contains(except, d.ID) {
			return false
		}
	}
	return true
}

// Dispense creates a droplet of the given fluid at cell p (normally a
// boundary port cell next to a reservoir). The cell must be healthy,
// unoccupied and respect droplet separation.
func (s *State) Dispense(fluid string, p geom.Point) (Droplet, error) {
	if !s.chip.In(p) {
		return Droplet{}, fmt.Errorf("fluidics: dispense at %v outside array", p)
	}
	if s.chip.IsFaulty(p) {
		return Droplet{}, fmt.Errorf("fluidics: dispense port cell %v is faulty", p)
	}
	if !s.SeparationOK(p) {
		return Droplet{}, fmt.Errorf("fluidics: dispense at %v violates droplet separation", p)
	}
	d := Droplet{ID: s.nextID, Pos: p, Fluid: fluid, Volume: 1}
	s.nextID++
	s.droplets = append(s.droplets, d)
	return d, nil
}

// Move transports droplet id one cell to the orthogonally adjacent
// cell to. A move into a faulty cell fails and leaves the droplet in
// place (the electrode cannot pull it), as does a move that would
// violate the separation constraint against a droplet it is not
// allowed to merge with.
func (s *State) Move(id int, to geom.Point) error {
	d, ok := s.get(id)
	if !ok {
		return fmt.Errorf("fluidics: unknown droplet %d", id)
	}
	if d.Pos.Manhattan(to) != 1 {
		return fmt.Errorf("fluidics: droplet %d move %v -> %v is not a single step", id, d.Pos, to)
	}
	if !s.chip.In(to) {
		return fmt.Errorf("fluidics: droplet %d move to %v leaves the array", id, to)
	}
	if s.chip.IsFaulty(to) {
		return fmt.Errorf("fluidics: droplet %d stuck: cell %v is faulty", id, to)
	}
	if !s.SeparationOK(to, id) {
		return fmt.Errorf("fluidics: droplet %d move to %v violates separation", id, to)
	}
	d.Pos = to
	s.moves++
	return nil
}

// MoveToMerge transports droplet id one cell to `to` as the final
// approach toward its merge partner: the separation constraint is
// waived against the partner only (coalescing with it is the intent),
// but still enforced against every other droplet.
func (s *State) MoveToMerge(id, partner int, to geom.Point) error {
	d, ok := s.get(id)
	if !ok {
		return fmt.Errorf("fluidics: unknown droplet %d", id)
	}
	if s.find(partner) < 0 {
		return fmt.Errorf("fluidics: unknown merge partner %d", partner)
	}
	if d.Pos.Manhattan(to) != 1 {
		return fmt.Errorf("fluidics: droplet %d approach %v -> %v is not a single step", id, d.Pos, to)
	}
	if !s.chip.In(to) {
		return fmt.Errorf("fluidics: droplet %d approach to %v leaves the array", id, to)
	}
	if s.chip.IsFaulty(to) {
		return fmt.Errorf("fluidics: droplet %d stuck: cell %v is faulty", id, to)
	}
	if !s.SeparationOK(to, id, partner) {
		return fmt.Errorf("fluidics: droplet %d approach to %v violates separation", id, to)
	}
	d.Pos = to
	s.moves++
	return nil
}

// FollowPath moves the droplet along consecutive cells. path[0] must
// be the droplet's current position. On error the droplet remains at
// the last cell reached.
func (s *State) FollowPath(id int, path []geom.Point) error {
	d, ok := s.get(id)
	if !ok {
		return fmt.Errorf("fluidics: unknown droplet %d", id)
	}
	if len(path) == 0 {
		return fmt.Errorf("fluidics: empty path for droplet %d", id)
	}
	if path[0] != d.Pos {
		return fmt.Errorf("fluidics: path starts at %v, droplet %d is at %v", path[0], id, d.Pos)
	}
	for _, next := range path[1:] {
		if err := s.Move(id, next); err != nil {
			return err
		}
	}
	return nil
}

// Merge coalesces droplet b into droplet a. The two droplets must be
// within merging range (Chebyshev distance ≤ 1 after transport, i.e.
// adjacent). The merged droplet keeps a's ID, sits at a's position,
// sums the volumes and concatenates the fluid labels.
func (s *State) Merge(a, b int) (Droplet, error) {
	da, ok := s.get(a)
	if !ok {
		return Droplet{}, fmt.Errorf("fluidics: unknown droplet %d", a)
	}
	db, ok := s.get(b)
	if !ok {
		return Droplet{}, fmt.Errorf("fluidics: unknown droplet %d", b)
	}
	if a == b {
		return Droplet{}, fmt.Errorf("fluidics: cannot merge droplet %d with itself", a)
	}
	if chebyshev(da.Pos, db.Pos) > 1 {
		return Droplet{}, fmt.Errorf("fluidics: droplets %d and %d too far to merge (%v, %v)",
			a, b, da.Pos, db.Pos)
	}
	da.Volume += db.Volume
	da.Fluid = da.Fluid + "+" + db.Fluid
	merged := *da
	s.remove(b)
	s.moves++ // the coalescing transport step
	return merged, nil
}

// Split divides droplet id into two unit droplets placed at the two
// orthogonal neighbour cells along the given axis (dx=±1 splits
// horizontally, dy=±1 vertically — pass horizontal=true for the X
// axis). Both target cells must be healthy, free and separated.
// The original droplet must have at least 2 volume units.
func (s *State) Split(id int, horizontal bool) (Droplet, Droplet, error) {
	d, ok := s.get(id)
	if !ok {
		return Droplet{}, Droplet{}, fmt.Errorf("fluidics: unknown droplet %d", id)
	}
	if d.Volume < 2 {
		return Droplet{}, Droplet{}, fmt.Errorf("fluidics: droplet %d volume %.1f too small to split",
			id, d.Volume)
	}
	var p1, p2 geom.Point
	if horizontal {
		p1 = geom.Point{X: d.Pos.X - 1, Y: d.Pos.Y}
		p2 = geom.Point{X: d.Pos.X + 1, Y: d.Pos.Y}
	} else {
		p1 = geom.Point{X: d.Pos.X, Y: d.Pos.Y - 1}
		p2 = geom.Point{X: d.Pos.X, Y: d.Pos.Y + 1}
	}
	for _, p := range []geom.Point{p1, p2} {
		if !s.chip.In(p) || s.chip.IsFaulty(p) {
			return Droplet{}, Droplet{}, fmt.Errorf("fluidics: split target %v unusable", p)
		}
		if !s.SeparationOK(p, id) {
			return Droplet{}, Droplet{}, fmt.Errorf("fluidics: split target %v violates separation", p)
		}
	}
	half := d.Volume / 2
	d1 := Droplet{ID: s.nextID, Pos: p1, Fluid: d.Fluid, Volume: half}
	d2 := Droplet{ID: s.nextID + 1, Pos: p2, Fluid: d.Fluid, Volume: half}
	s.nextID += 2
	s.remove(id)
	s.droplets = append(s.droplets, d1, d2)
	s.moves += 2
	return d1, d2, nil
}

// Remove takes droplet id off the array (output to waste/collection).
func (s *State) Remove(id int) error {
	if s.find(id) < 0 {
		return fmt.Errorf("fluidics: unknown droplet %d", id)
	}
	s.remove(id)
	return nil
}

// Teleport relocates a droplet without transport accounting or
// separation checks against cells along the way (the destination is
// still checked). It models the bulk relocation of a module's content
// during partial reconfiguration in tests; the simulator itself routes
// properly.
func (s *State) Teleport(id int, to geom.Point) error {
	d, ok := s.get(id)
	if !ok {
		return fmt.Errorf("fluidics: unknown droplet %d", id)
	}
	if !s.chip.In(to) || s.chip.IsFaulty(to) {
		return fmt.Errorf("fluidics: teleport target %v unusable", to)
	}
	if !s.SeparationOK(to, id) {
		return fmt.Errorf("fluidics: teleport target %v violates separation", to)
	}
	d.Pos = to
	return nil
}
