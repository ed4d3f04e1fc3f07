package dispatch

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpec drives the campaign spec through the submit path's strict
// JSON decoder and every method a dispatcher or worker derives from
// it. None may panic; Normalized is idempotent; and the fingerprint is
// deterministic, the same for the sparse and the spelled-out spec,
// and blind to Trials and Seed (the checkpoint header pins those).
// Any spec the dispatcher accepts is inside the trust-boundary bounds:
// 1 <= Trials <= MaxTrials and 0 <= Transient <= 1.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"mode":"multi","trials":64,"seed":3,"k":3}`))
	f.Add([]byte(`{"mode":"yield","trials":8,"q":0.02,"full":true}`))
	f.Add([]byte(`{"mode":"yield","trials":8,"defect_model":"clustered","cluster_size":8,"spares":2,"ladder":true}`))
	f.Add([]byte(`{"mode":"yield","trials":8,"defect_model":"file","defect_map":"X.\n..\n"}`))
	f.Add([]byte(`{"mode":"assay","trials":512,"seed":5,"k":1,"recovery":"ladder","transient":0.15}`))
	f.Add([]byte(`{"mode":"exhaustive","q":-1,"k":-3,"spares":99}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"mode":"multi","trials":1099511627776,"transient":7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var sp Spec
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&sp) != nil {
			return
		}
		n := sp.Normalized()
		if n.Normalized() != n {
			t.Fatalf("Normalized not idempotent: %+v then %+v", n, n.Normalized())
		}
		_ = sp.Validate(true)
		_ = sp.Validate(false)
		if n.Validate(true) == nil {
			if n.Trials < 1 || n.Trials > MaxTrials || !(n.Transient >= 0 && n.Transient <= 1) {
				t.Fatalf("accepted spec out of bounds: trials %d, transient %g", n.Trials, n.Transient)
			}
		}
		_ = sp.Name()
		_ = sp.DefectParams()
		fp := sp.Fingerprint()
		if fp != sp.Fingerprint() || fp != n.Fingerprint() {
			t.Fatalf("fingerprint of %+v not deterministic", sp)
		}
		other := sp
		other.Trials, other.Seed = sp.Trials+1, sp.Seed^0x5deece66d
		if other.Fingerprint() != fp {
			t.Fatalf("trials/seed changed the fingerprint of %+v", sp)
		}
	})
}
