package server

import (
	"bytes"
	"net/http"
	"testing"
)

// FuzzServerRequest posts arbitrary bodies to /v1/compile and
// /v1/simulate on a server whose pipeline returns a fixed precomputed
// result (stubServer: only the cache key names the run), so only the
// strict decoder, request validation, admission, replay and response
// encoding run. Every answer must be 200, 202 or a 4xx (never a 5xx,
// never a panic), an async job must finish the same way, and a body
// that got 200 must get a byte-identical replay marked hit when sent
// again.
func FuzzServerRequest(f *testing.F) {
	for _, seed := range []struct {
		simulate bool
		body     string
	}{
		{false, `{"assay":"pcr"}`},
		{false, `{"assay":"pcr","placer":"twostage","seed":3,"beta":30,"verify":true,"montecarlo":20}`},
		{false, `{"assay":"invitro","samples":2,"assays":2,"budget":30,"spares":1,"async":true}`},
		{false, `{"assay":"pcr","starts":2,"anneal_workers":1,"iters_per_module":-1}`},
		{false, `{"assay":"pcr","recovery":"l1"}`},
		{false, `{"assay":"pcr","montecarlo":2000000}`},
		{false, `{"assay":"pcr","bogus":1}`},
		{false, `{not json`},
		{false, ``},
		{true, `{"assay":"pcr","faults":[{"time_sec":1,"x":2,"y":1,"transient_probes":2}],"recovery":"ladder","recovery_seed":4}`},
		{true, `{"assay":"pcr","recovery":"yolo"}`},
		{true, `{"assay":"pcr","faults":[{"time_sec":"1"}]}`},
		{true, `{"assay":"pcr"} {"assay":"pcr"}`},
	} {
		f.Add(seed.simulate, []byte(seed.body))
	}
	stubResult(f) // computed once, before the workers start
	f.Fuzz(func(t *testing.T, simulate bool, body []byte) {
		s, _ := stubServer(t, Options{Workers: 1})
		path := "/v1/compile"
		if simulate {
			path = "/v1/simulate"
		}
		first := do(s, http.MethodPost, path, string(body))
		if first.Code == http.StatusAccepted {
			first = waitJob(t, s, first.Header().Get("X-Dmfb-Job"))
		}
		if first.Code >= 500 || (first.Code != http.StatusOK && first.Code < 400) {
			t.Fatalf("POST %s %q: status %d (%s)", path, body, first.Code, first.Body)
		}
		if first.Code != http.StatusOK {
			return
		}
		again := do(s, http.MethodPost, path, string(body))
		if again.Code == http.StatusAccepted {
			again = waitJob(t, s, again.Header().Get("X-Dmfb-Job"))
		}
		if again.Code != http.StatusOK || again.Header().Get("X-Dmfb-Cache") != "hit" ||
			!bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("POST %s %q again: %d cache %q body %s, want 200 hit %s",
				path, body, again.Code, again.Header().Get("X-Dmfb-Cache"), again.Body, first.Body)
		}
	})
}
