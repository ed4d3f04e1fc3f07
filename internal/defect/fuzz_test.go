package defect

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
	"dmfb/internal/reconfig"
	"dmfb/internal/recovery"
)

// FuzzDefectMap fuzzes the textual defect-map parser: arbitrary text
// either fails to parse, or yields a map whose cells are in-bounds,
// strictly scan-ordered (hence deduplicated), and that survives a
// FormatMap/ParseMap round trip exactly — the canonicalization the
// file model's fingerprint stability depends on.
func FuzzDefectMap(f *testing.F) {
	f.Add("")
	f.Add("....\n.XX.\n....\n")
	f.Add("# comment\nX.\n.x\n")
	f.Add("0101\n1010\n")
	f.Add("...\n..\n") // ragged
	f.Add(".?.\n")     // invalid cell
	f.Add("..X.\r\n....\r\n")
	f.Fuzz(func(t *testing.T, text string) {
		m, err := ParseMap(text)
		if err != nil {
			return
		}
		if m.W < 1 || m.W > MaxMapDim || m.H < 1 || m.H > MaxMapDim {
			t.Fatalf("parsed dimensions %dx%d out of bounds", m.W, m.H)
		}
		for i, c := range m.Cells {
			if c.X < 0 || c.X >= m.W || c.Y < 0 || c.Y >= m.H {
				t.Fatalf("cell %v outside %dx%d map", c, m.W, m.H)
			}
			if i > 0 {
				prev := m.Cells[i-1]
				if c.Y < prev.Y || (c.Y == prev.Y && c.X <= prev.X) {
					t.Fatalf("cells not in strict scan order: %v after %v", c, prev)
				}
			}
		}
		back, err := ParseMap(FormatMap(m))
		if err != nil {
			t.Fatalf("canonical render does not re-parse: %v", err)
		}
		if back.W != m.W || back.H != m.H || len(back.Cells) != len(m.Cells) {
			t.Fatalf("round trip changed the map: %dx%d/%d cells vs %dx%d/%d cells",
				back.W, back.H, len(back.Cells), m.W, m.H, len(m.Cells))
		}
		for i := range m.Cells {
			if back.Cells[i] != m.Cells[i] {
				t.Fatalf("round trip changed cell %d: %v vs %v", i, back.Cells[i], m.Cells[i])
			}
		}
	})
}

// FuzzReconfigureL1MatchesRecover is the differential check behind the
// fault campaigns: on a random placement and fault sequence,
// Reconfigure capped at L1 without a schedule accepts exactly the
// faults that a loop of reconfig.Recover accepts, and both end on the
// same placement.
func FuzzReconfigureL1MatchesRecover(f *testing.F) {
	f.Add(int64(1), uint8(3))
	f.Add(int64(7), uint8(6))
	f.Add(int64(-42), uint8(12))
	f.Add(int64(987654321), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, kRaw uint8) {
		rng := rand.New(rand.NewSource(seed))
		array := geom.Rect{W: 3 + rng.Intn(6), H: 3 + rng.Intn(6)}
		p := randomPlacement(rng, array)
		faults := make([]geom.Point, 0, int(kRaw%16)+1)
		for len(faults) < cap(faults) && len(faults) < array.Cells() {
			c := geom.Point{X: rng.Intn(array.W), Y: rng.Intn(array.H)}
			if !slices.Contains(faults, c) {
				faults = append(faults, c)
			}
		}

		cur := p.Clone()
		accepted := 0
		for _, c := range faults {
			if _, err := reconfig.Recover(nil, cur, array, c, faults[:accepted]...); err != nil {
				break
			}
			accepted++
		}
		rev := Reconfigure(nil, p, array, faults, recovery.Options{MaxLevel: recovery.LevelRelocate})
		if rev.Survivable != (accepted == len(faults)) || len(rev.Levels) != accepted {
			t.Fatalf("Reconfigure absorbed %d of %d faults (survivable %v), Recover loop %d",
				len(rev.Levels), len(faults), rev.Survivable, accepted)
		}
		if !slices.Equal(rev.Placement.Pos, cur.Pos) || !slices.Equal(rev.Placement.Rot, cur.Rot) {
			t.Fatalf("placements differ after %d faults:\n%s\nvs\n%s", accepted, rev.Placement, cur)
		}
	})
}

// randomPlacement scatters up to six modules with random footprints
// and spans over array, dropping any that finds no free spot.
func randomPlacement(rng *rand.Rand, array geom.Rect) *place.Placement {
	var mods []place.Module
	var pos []geom.Point
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		start := rng.Intn(8)
		m := place.Module{ID: len(mods), Name: fmt.Sprintf("M%d", i),
			Size: geom.Size{W: 1 + rng.Intn(3), H: 1 + rng.Intn(3)},
			Span: geom.Interval{Start: start, End: start + 1 + rng.Intn(8)}}
		if m.Size.W > array.W || m.Size.H > array.H {
			continue
		}
		for try := 0; try < 20; try++ {
			at := geom.Point{X: rng.Intn(array.W - m.Size.W + 1), Y: rng.Intn(array.H - m.Size.H + 1)}
			q := place.New(append(mods, m))
			copy(q.Pos, append(pos, at))
			if q.Validate() == nil {
				mods, pos = append(mods, m), append(pos, at)
				break
			}
		}
	}
	p := place.New(mods)
	copy(p.Pos, pos)
	return p
}
