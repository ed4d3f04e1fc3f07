package reconfig

import (
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

// Native fuzz targets for the recovery layer. The byte stream is
// decoded into an arbitrary placement scenario (array, modules,
// positions, fault, obstacle cells); undecodable or infeasible inputs
// are discarded. On every successful plan the fuzzer asserts the
// relocation invariants the whole fault-tolerance story rests on:
// relocations stay inside the array, never cover the fault cell or an
// obstacle, preserve the module footprint, and the applied placement
// passes full overlap validation.

// byteReader consumes fuzz bytes one at a time, yielding zero once
// exhausted so every prefix decodes to something.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

// fuzzScenario is one decoded fault-recovery instance.
type fuzzScenario struct {
	p         *place.Placement
	array     geom.Rect
	fault     geom.Point
	obstacles []geom.Point
}

// decodeScenario builds a valid scenario from raw fuzz bytes, or
// returns ok=false when the bytes decode to an infeasible one.
func decodeScenario(data []byte) (fuzzScenario, bool) {
	r := &byteReader{data: data}
	w := 2 + r.next()%11
	h := 2 + r.next()%11
	array := geom.Rect{X: 0, Y: 0, W: w, H: h}

	n := 1 + r.next()%5
	mods := make([]place.Module, n)
	for i := range mods {
		start := r.next() % 8
		mods[i] = place.Module{
			ID:   i,
			Name: "F",
			Size: geom.Size{W: 1 + r.next()%4, H: 1 + r.next()%4},
			Span: geom.Interval{Start: start, End: start + 1 + r.next()%6},
		}
	}
	p := place.New(mods)
	for i := range mods {
		if r.next()%2 == 1 && !mods[i].Size.IsSquare() {
			p.Rot[i] = true
		}
		sz := p.Size(i)
		if sz.W > w || sz.H > h {
			return fuzzScenario{}, false
		}
		p.Pos[i] = geom.Point{X: r.next() % (w - sz.W + 1), Y: r.next() % (h - sz.H + 1)}
	}
	if p.Validate() != nil {
		return fuzzScenario{}, false
	}
	s := fuzzScenario{
		p:     p,
		array: array,
		fault: geom.Point{X: r.next() % w, Y: r.next() % h},
	}
	for k := r.next() % 4; k > 0; k-- {
		o := geom.Point{X: r.next() % w, Y: r.next() % h}
		if o != s.fault {
			s.obstacles = append(s.obstacles, o)
		}
	}
	return s, true
}

// checkRelocation asserts the site invariants of one relocation.
func checkRelocation(t *testing.T, s fuzzScenario, mi int, rel Relocation) {
	t.Helper()
	if !s.array.ContainsRect(rel.To) {
		t.Fatalf("relocation %v escapes array %v", rel, s.array)
	}
	if rel.To.Contains(s.fault) {
		t.Fatalf("relocation %v covers the fault cell %v", rel, s.fault)
	}
	for _, o := range s.obstacles {
		if rel.To.Contains(o) {
			t.Fatalf("relocation %v covers obstacle %v", rel, o)
		}
	}
	m := s.p.Modules[mi]
	if sz := rel.To.Size(); sz != m.Size && sz != m.Size.Transpose() {
		t.Fatalf("relocation %v does not preserve footprint %v", rel, m.Size)
	}
}

func FuzzPlanModule(f *testing.F) {
	f.Add([]byte("plan-module"))
	f.Add([]byte{8, 8, 2, 0, 2, 2, 3, 1, 3, 3, 0, 0, 0, 1, 4, 4, 4, 5, 2, 1, 1, 6, 6})
	f.Add([]byte{4, 4, 1, 0, 2, 2, 4, 0, 0, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := decodeScenario(data)
		if !ok {
			return
		}
		for mi := range s.p.Modules {
			rel, err := PlanModule(nil, s.p, s.array, mi, s.fault, s.obstacles...)
			if err != nil {
				continue
			}
			checkRelocation(t, s, mi, rel)
			// Planning is deterministic: replanning yields the same site.
			again, err2 := PlanModule(nil, s.p, s.array, mi, s.fault, s.obstacles...)
			if err2 != nil || again != rel {
				t.Fatalf("replan diverged: %v / %v (err %v)", rel, again, err2)
			}
			// Applying the single relocation yields a valid placement
			// (modules time-sharing the fault are planned independently,
			// so apply one at a time).
			cur := s.p.Clone()
			if aerr := Apply(nil, cur, []Relocation{rel}); aerr != nil {
				t.Fatalf("planned relocation %v does not apply: %v", rel, aerr)
			}
			if verr := cur.Validate(); verr != nil {
				t.Fatalf("applied placement invalid: %v", verr)
			}
		}
	})
}

func FuzzRecover(f *testing.F) {
	f.Add([]byte("recover-seed"))
	f.Add([]byte{9, 7, 3, 0, 2, 2, 5, 2, 1, 2, 4, 1, 3, 1, 2, 0, 0, 0, 2, 2, 1, 5, 3, 4, 2})
	f.Add([]byte{6, 6, 2, 0, 3, 3, 6, 3, 2, 2, 4, 0, 0, 0, 0, 3, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, ok := decodeScenario(data)
		if !ok {
			return
		}
		cur := s.p.Clone()
		rels, err := Recover(nil, cur, s.array, s.fault)
		if err != nil {
			// Failed recovery must leave the placement untouched.
			for i := range s.p.Modules {
				if cur.Pos[i] != s.p.Pos[i] || cur.Rot[i] != s.p.Rot[i] {
					t.Fatalf("failed Recover mutated module %d", i)
				}
			}
			return
		}
		if verr := cur.Validate(); verr != nil {
			t.Fatalf("recovered placement invalid: %v", verr)
		}
		if len(cur.ModulesAt(s.fault)) != 0 {
			t.Fatalf("fault cell %v still covered after recovery", s.fault)
		}
		for i := range cur.Modules {
			if !s.array.ContainsRect(cur.Rect(i)) {
				t.Fatalf("module %d escaped the array after recovery", i)
			}
		}
		for _, rel := range rels {
			checkRelocation(t, fuzzScenario{p: s.p, array: s.array, fault: s.fault}, rel.Module, rel)
		}
	})
}
