package format

import (
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/modlib"
	"dmfb/internal/pcr"
)

// FuzzUnmarshalPlacement feeds arbitrary bytes to the placement
// decoder. The contract is an error or a valid placement, never a
// panic; a small accepted placement must also survive FTI analysis
// with an index in [0, 1].
func FuzzUnmarshalPlacement(f *testing.F) {
	p, err := core.Greedy(core.FromSchedule(pcr.MustSchedule()), true)
	if err != nil {
		f.Fatal(err)
	}
	data, err := MarshalPlacement(p)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"modules":[{"name":"A","w":2,"h":3,"start":0,"end":5,"x":1,"y":0,"rot":true}]}`))
	f.Add([]byte(`{"modules":[
		{"name":"A","w":2,"h":2,"start":0,"end":5,"x":0,"y":0},
		{"name":"B","w":2,"h":2,"start":0,"end":5,"x":0,"y":0}]}`))
	f.Add([]byte(`{"modules":[{"name":"A","w":0,"h":2,"start":0,"end":5}]}`))
	f.Add([]byte(`{"modules":[{"name":"A","w":2,"h":2,"start":0,"end":5,"x":-3,"y":-1}]}`))
	f.Add([]byte(`nope`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPlacement(data)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid placement: %v", err)
		}
		bb := p.BoundingBox()
		if len(p.Modules) == 0 || len(p.Modules) > 8 ||
			bb.W <= 0 || bb.H <= 0 || bb.W > 32 || bb.H > 32 {
			return
		}
		if v := fti.Compute(p).FTI(); v < 0 || v > 1 {
			t.Fatalf("FTI %v outside [0, 1]", v)
		}
	})
}

// FuzzUnmarshalSchedule feeds arbitrary bytes to the schedule decoder
// against the paper's Table 1 library. The contract is an error or a
// valid schedule, never a panic; an accepted schedule must re-encode
// and decode again to the same makespan.
func FuzzUnmarshalSchedule(f *testing.F) {
	data, err := MarshalSchedule(pcr.MustSchedule())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"graph":{"name":"x","ops":[{"name":"a","kind":"mix"}]},"items":[{"op":0,"start":0,"end":5}],"makespan":5}`))
	f.Add([]byte(`{"graph":{"name":"x","ops":[{"name":"a","kind":"mix"}]},"items":[{"op":3,"start":0,"end":5}]}`))
	f.Add([]byte(`{"graph":{"name":"x","ops":[{"name":"a","kind":"mix"}]},"items":[{"op":0,"start":0,"end":5,"device":"warp-drive"}]}`))
	f.Add([]byte(`bad`))
	lib := modlib.Table1()
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalSchedule(data, lib)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid schedule: %v", err)
		}
		again, err := MarshalSchedule(s)
		if err != nil {
			t.Fatalf("accepted schedule does not re-encode: %v", err)
		}
		back, err := UnmarshalSchedule(again, lib)
		if err != nil {
			t.Fatalf("re-encoded schedule rejected: %v", err)
		}
		if back.Makespan != s.Makespan {
			t.Fatalf("makespan %d after round trip, want %d", back.Makespan, s.Makespan)
		}
	})
}
