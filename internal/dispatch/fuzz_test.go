package dispatch

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
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

// elapsedMS matches the one wall-clock field of a status body.
var elapsedMS = regexp.MustCompile(`"elapsed_ms": [-+.eE0-9]+`)

// FuzzResults posts arbitrary /v1/results bodies to a dispatcher
// running an 8-trial campaign with its first chunk leased (campaign
// c000001, lease l000001). The answer is 200 or 4xx, never a panic or
// a 5xx, and a 4xx leaves the campaign's status byte-identical (the
// wall-clock elapsed_ms aside) and records no result.
func FuzzResults(f *testing.F) {
	f.Add([]byte(`{"campaign_id":"c000001","lease_id":"l000001","results":[{"trial":0,"survived":true},{"trial":3,"value":2}],"complete":true}`))
	f.Add([]byte(`{"campaign_id":"c000001","lease_id":"l000001","results":[{"trial":1,"survived":true},{"trial":8}]}`))
	f.Add([]byte(`{"campaign_id":"c000001","results":[{"trial":0},{"trial":1},{"trial":2},{"trial":3},{"trial":4},{"trial":5},{"trial":6},{"trial":7,"err":"boom"}]}`))
	f.Add([]byte(`{"campaign_id":"c000001","results":[{"trial":-1}]}`))
	f.Add([]byte(`{"campaign_id":"c000001","lease_id":"l000001","error":"build failed","results":[{"trial":2}]}`))
	f.Add([]byte(`{"campaign_id":"c000002","results":[{"trial":0}]}`))
	f.Add([]byte(`{"campaign_id":"c000001","results":[{"trial":1e30}]}`))
	f.Add([]byte(`[1,2`))
	spec, err := json.Marshal(testSpec(8))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		d, err := New(Options{Chunk: 4})
		if err != nil {
			t.Fatal(err)
		}
		h := d.Handler()
		serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec
		}
		status := func() string {
			rec := serve(http.MethodGet, "/v1/campaigns/c000001", nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("status: %d %s", rec.Code, rec.Body)
			}
			return elapsedMS.ReplaceAllString(rec.Body.String(), `"elapsed_ms": 0`)
		}
		if rec := serve(http.MethodPost, "/v1/campaigns", spec); rec.Code != http.StatusCreated {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body)
		}
		if rec := serve(http.MethodPost, "/v1/lease", []byte(`{"worker":"w1"}`)); rec.Code != http.StatusOK {
			t.Fatalf("lease: %d %s", rec.Code, rec.Body)
		}
		before := status()
		rec := serve(http.MethodPost, "/v1/results", body)
		switch {
		case rec.Code == http.StatusOK:
		case rec.Code >= 400 && rec.Code < 500:
			if after := status(); after != before {
				t.Fatalf("%d answer changed the campaign:\nbefore %s\nafter  %s", rec.Code, before, after)
			}
			if n := d.reg.Counter("dispatch.results_recorded").Value(); n != 0 {
				t.Fatalf("%d answer recorded %d results", rec.Code, n)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}
