package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dmfb/internal/pipeline"
	"dmfb/internal/telemetry"
)

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestCompileCacheByteIdentity is the ISSUE acceptance test: a cached
// POST /v1/compile response must be byte-identical to the uncached
// one and be served without re-running the annealer, verified by the
// placer-invocation counter.
func TestCompileCacheByteIdentity(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Workers: 2, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"assay":"pcr","placer":"sa","seed":1}`
	resp1, b1 := post(t, ts, "/v1/compile", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first compile: %d %s", resp1.StatusCode, b1)
	}
	if h := resp1.Header.Get("X-Dmfb-Cache"); h != "miss" {
		t.Errorf("first compile X-Dmfb-Cache = %q, want miss", h)
	}
	if n := reg.Counter("pipeline.placer_runs").Value(); n != 1 {
		t.Fatalf("placer_runs after first compile = %d, want 1", n)
	}

	resp2, b2 := post(t, ts, "/v1/compile", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second compile: %d %s", resp2.StatusCode, b2)
	}
	if h := resp2.Header.Get("X-Dmfb-Cache"); h != "hit" {
		t.Errorf("second compile X-Dmfb-Cache = %q, want hit", h)
	}
	if n := reg.Counter("pipeline.placer_runs").Value(); n != 1 {
		t.Errorf("placer_runs after cached compile = %d, want still 1 (annealer re-ran)", n)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("cached response differs from fresh response:\n%s\nvs\n%s", b1, b2)
	}

	var cr CompileResponse
	if err := json.Unmarshal(b1, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.FTI <= 0 || cr.ArrayCells <= 0 || len(cr.Placement) == 0 {
		t.Errorf("implausible compile response: %+v", cr)
	}
	if cr.CacheKey == "" {
		t.Error("compile response has no cache key")
	}
}

func TestCompileTwoStageAndInvitro(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := post(t, ts, "/v1/compile",
		`{"assay":"pcr","placer":"twostage","seed":1,"beta":30,"verify":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("twostage compile: %d %s", resp.StatusCode, b)
	}
	var cr CompileResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Stage1FTI == nil {
		t.Error("twostage response missing stage1_fti")
	}
	if cr.VerifiedSurvival == nil {
		t.Error("verify=true response missing verified_survival")
	} else if *cr.VerifiedSurvival != cr.FTI {
		t.Errorf("verified survival %v != FTI %v", *cr.VerifiedSurvival, cr.FTI)
	}

	resp, b = post(t, ts, "/v1/compile",
		`{"assay":"invitro","samples":2,"assays":2,"seed":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invitro compile: %d %s", resp.StatusCode, b)
	}
}

// TestCompileMultiStart: "starts" splits the cache key (more starts is
// a different search, possibly a different winner) while
// "anneal_workers" is a concurrency cap that must neither split the
// key nor change the response bytes.
func TestCompileMultiStart(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, single := post(t, ts, "/v1/compile",
		`{"assay":"pcr","placer":"twostage","seed":1,"beta":30,"iters_per_module":60,"window_patience":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-start compile: %d %s", resp.StatusCode, single)
	}
	var base CompileResponse
	if err := json.Unmarshal(single, &base); err != nil {
		t.Fatal(err)
	}

	resp, multi := post(t, ts, "/v1/compile",
		`{"assay":"pcr","placer":"twostage","seed":1,"beta":30,"iters_per_module":60,"window_patience":4,"starts":3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("multi-start compile: %d %s", resp.StatusCode, multi)
	}
	if h := resp.Header.Get("X-Dmfb-Cache"); h != "miss" {
		t.Errorf("starts=3 compile X-Dmfb-Cache = %q, want miss (starts must split the key)", h)
	}
	var best CompileResponse
	if err := json.Unmarshal(multi, &best); err != nil {
		t.Fatal(err)
	}
	if best.CacheKey == base.CacheKey {
		t.Error("starts=3 compile produced the same cache key as the single-start compile")
	}

	resp, capped := post(t, ts, "/v1/compile",
		`{"assay":"pcr","placer":"twostage","seed":1,"beta":30,"iters_per_module":60,"window_patience":4,"starts":3,"anneal_workers":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capped multi-start compile: %d %s", resp.StatusCode, capped)
	}
	if h := resp.Header.Get("X-Dmfb-Cache"); h != "hit" {
		t.Errorf("anneal_workers=1 repeat X-Dmfb-Cache = %q, want hit (workers must not split the key)", h)
	}
	if !bytes.Equal(multi, capped) {
		t.Error("anneal_workers changed the compile response bytes")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const body = `{"assay":"pcr","placer":"twostage","seed":1,"beta":40,` +
		`"faults":[{"time_sec":1,"x":2,"y":1}],"recovery":"l1"}`
	resp1, b1 := post(t, ts, "/v1/simulate", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp1.StatusCode, b1)
	}
	var sr SimulateResponse
	if err := json.Unmarshal(b1, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Outcome != "completed" {
		t.Errorf("outcome = %q, want completed (body %s)", sr.Outcome, b1)
	}
	if sr.Recoveries == 0 {
		t.Error("injected fault but no recovery invocations reported")
	}
	if len(sr.ProductFluids) == 0 {
		t.Error("no product fluids reported")
	}

	resp2, b2 := post(t, ts, "/v1/simulate", body)
	if h := resp2.Header.Get("X-Dmfb-Cache"); h != "hit" {
		t.Errorf("repeat simulate X-Dmfb-Cache = %q, want hit (placement cached)", h)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("repeat simulate response differs")
	}
}

func TestBadRequests(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path, body string
		want       int
		stage      string
	}{
		{"/v1/compile", `{not json`, http.StatusBadRequest, ""},
		{"/v1/compile", `{"assay":"warp"}`, http.StatusBadRequest, "synth"},
		{"/v1/compile", `{"assay":"pcr","placer":"magic"}`, http.StatusBadRequest, "place"},
		{"/v1/compile", `{"assay":"pcr","iters_per_module":-1}`, http.StatusBadRequest, "place"},
		{"/v1/compile", `{"assay":"pcr","bogus_field":1}`, http.StatusBadRequest, ""},
		{"/v1/compile", `{"assay":"pcr","recovery":"l1"}`, http.StatusBadRequest, ""},
		{"/v1/compile", `{"assay":"pcr","montecarlo":-3}`, http.StatusBadRequest, "fti"},
		{"/v1/compile", `{"assay":"pcr","montecarlo":2000000}`, http.StatusBadRequest, "fti"},
		{"/v1/simulate", `{"assay":"pcr","recovery":"yolo"}`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		resp, b := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %s: status %d, want %d (body %s)",
				tc.path, tc.body, resp.StatusCode, tc.want, b)
			continue
		}
		var er struct {
			Error string `json:"error"`
			Stage string `json:"stage"`
		}
		if err := json.Unmarshal(b, &er); err != nil {
			t.Errorf("POST %s %s: non-JSON error body %q", tc.path, tc.body, b)
			continue
		}
		if er.Error == "" {
			t.Errorf("POST %s %s: empty error message", tc.path, tc.body)
		}
		if er.Stage != tc.stage {
			t.Errorf("POST %s %s: stage %q, want %q", tc.path, tc.body, er.Stage, tc.stage)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestAdmissionControl fills every worker and queue slot with a
// blocking workload, then checks the next request is shed with 429.
func TestAdmissionControl(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Workers: 1, QueueDepth: 1, Metrics: reg})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	s.run = func(ctx context.Context, _ pipeline.Request) (pipeline.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return pipeline.Result{}, fmt.Errorf("stub")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // 1 running + 1 queued = at capacity
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, ts, "/v1/compile", `{"assay":"pcr"}`)
		}()
	}
	<-started // the worker slot is taken
	// Wait until the second request is admitted and queued.
	for i := 0; s.adm.Pending() < 2; i++ {
		if i > 1000 {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp, b := post(t, ts, "/v1/compile", `{"assay":"pcr"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-capacity request: status %d, want 429 (body %s)", resp.StatusCode, b)
	}
	if n := reg.Counter("server.rejected").Value(); n != 1 {
		t.Errorf("server.rejected = %d, want 1", n)
	}
	close(release)
	wg.Wait()
}

func TestAsyncJobFlow(t *testing.T) {
	s := New(Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, syncBody := post(t, ts, "/v1/compile", `{"assay":"pcr","seed":5}`)

	resp, b := post(t, ts, "/v1/compile", `{"assay":"pcr","seed":5,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async compile: status %d, want 202 (body %s)", resp.StatusCode, b)
	}
	var acc struct {
		JobID     string `json:"job_id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || acc.JobID != resp.Header.Get("X-Dmfb-Job") {
		t.Fatalf("async accept: job id %q, header %q", acc.JobID, resp.Header.Get("X-Dmfb-Job"))
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + acc.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if !bytes.Equal(body, syncBody) {
				t.Errorf("async result differs from sync result:\n%s\nvs\n%s", body, syncBody)
			}
			if h := resp.Header.Get("X-Dmfb-Cache"); h != "hit" {
				t.Errorf("async job X-Dmfb-Cache = %q, want hit (sync run warmed the cache)", h)
			}
			return
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job poll: status %d (body %s)", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatal("async job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsyncBadOptionsFailsJob checks that an async request whose
// options the placer rejects ends its job with 400 and stage "place",
// and that the server keeps answering afterwards.
func TestAsyncBadOptionsFailsJob(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, b := post(t, ts, "/v1/compile", `{"assay":"pcr","iters_per_module":-1,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async compile: status %d, want 202 (body %s)", resp.StatusCode, b)
	}
	var acc struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + acc.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			var er struct {
				Stage string `json:"stage"`
			}
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Stage != "place" {
				t.Fatalf("job poll: status %d body %s, want 400 with stage place", resp.StatusCode, body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if resp, b := post(t, ts, "/v1/compile", `{"assay":"pcr","placer":"greedy"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up compile: status %d (body %s)", resp.StatusCode, b)
	}
}

func TestDrain(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, b := post(t, ts, "/v1/compile", `{"assay":"pcr"}`); len(b) == 0 {
		t.Fatal("warm-up compile failed")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp, _ := post(t, ts, "/v1/compile", `{"assay":"pcr"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503", resp.StatusCode)
	}
}

func TestOpsEndpointsMounted(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post(t, ts, "/v1/compile", `{"assay":"pcr"}`)

	for _, path := range []string{"/healthz", "/metrics", "/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		switch path {
		case "/metrics":
			for _, want := range []string{"dmfb_server_requests", "dmfb_pcache_misses", "dmfb_stage_place_ms"} {
				if !strings.Contains(string(b), want) {
					t.Errorf("/metrics missing %s", want)
				}
			}
		case "/progress":
			if !strings.Contains(string(b), `"workers"`) {
				t.Errorf("/progress missing workers field: %s", b)
			}
		}
	}
}
