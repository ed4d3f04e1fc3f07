package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// TestCompileCacheByteIdentity: a cached POST /v1/compile response
// must be byte-identical to the uncached one and be served without
// re-running the annealer, verified by the placer-invocation counter.
// Four distinct bodies (two SA seeds, a two-stage and an in-vitro
// placement) are cycled twice through one server: each misses exactly
// once and then hits, so n requests give n-4 hits, and no two bodies
// share a cache key.
func TestCompileCacheByteIdentity(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Workers: 2, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := []string{
		`{"assay":"pcr","placer":"sa","seed":1}`,
		`{"assay":"pcr","placer":"twostage","seed":1,"beta":30}`,
		`{"assay":"invitro","samples":2,"assays":2,"seed":2}`,
		`{"assay":"pcr","placer":"sa","seed":2}`,
	}
	first := make([][]byte, len(bodies))
	keys := make(map[string]int)
	hits := 0
	for i := 0; i < 2*len(bodies); i++ {
		k := i % len(bodies)
		resp, b := post(t, ts, "/v1/compile", bodies[k])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, resp.StatusCode, b)
		}
		want, runs := "miss", int64(i+1)
		if i >= len(bodies) {
			want, runs = "hit", int64(len(bodies))
		}
		got := resp.Header.Get("X-Dmfb-Cache")
		if got != want {
			t.Errorf("request %d (body %d): X-Dmfb-Cache = %q, want %q", i, k, got, want)
		}
		if got == "hit" {
			hits++
		}
		if n := reg.Counter("pipeline.placer_runs").Value(); n != runs {
			t.Errorf("placer_runs after request %d = %d, want %d", i, n, runs)
		}
		if i >= len(bodies) {
			if !bytes.Equal(b, first[k]) {
				t.Errorf("body %d: cached response differs from fresh response:\n%s\nvs\n%s", k, b, first[k])
			}
			continue
		}
		first[k] = b
		var cr CompileResponse
		if err := json.Unmarshal(b, &cr); err != nil {
			t.Fatal(err)
		}
		// Every PCR placement has C-covered cells; the in-vitro
		// area-minimal one may have none.
		if cr.FTI < 0 || cr.FTI > 1 || (cr.Assay == "pcr" && cr.FTI == 0) ||
			cr.ArrayCells <= 0 || len(cr.Placement) == 0 || cr.CacheKey == "" {
			t.Errorf("body %d: implausible compile response: %+v", k, cr)
		}
		if j, dup := keys[cr.CacheKey]; dup {
			t.Errorf("bodies %d and %d share cache key %q", j, k, cr.CacheKey)
		}
		keys[cr.CacheKey] = k
	}
	if want := len(bodies); hits != want {
		t.Errorf("%d cache hits on %d requests, want %d", hits, 2*len(bodies), want)
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

// TestSimulateRecordsLayerMetrics: a server handed a registry records
// the router.* and reconfig.* metrics of a faulted simulate into it,
// with no process-wide hook installed.
func TestSimulateRecordsLayerMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	ts := httptest.NewServer(New(Options{Workers: 1, Metrics: reg}).Handler())
	defer ts.Close()

	resp, b := post(t, ts, "/v1/simulate",
		`{"assay":"pcr","placer":"twostage","seed":1,"beta":40,"faults":[{"time_sec":1,"x":2,"y":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %s", resp.StatusCode, b)
	}
	if got := reg.Counter("router.routes").Value(); got <= 0 {
		t.Errorf("router.routes = %d, want > 0", got)
	}
	if got := reg.Counter("reconfig.relocations").Value(); got <= 0 {
		t.Errorf("reconfig.relocations = %d, want > 0", got)
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

// TestServerConcurrentSpanTrees sends eight compiles at once to a
// four-worker server with a tracer. Every server.compile span must be
// a root carrying its job id and parent exactly its own request's
// stage spans, with the annealer's records under that request's
// stage.place. Each response's X-Dmfb-Job header finds its root span
// by the span's "job" field; the requests differ in shape (placer sa
// or twostage, verify, montecarlo), so a stage or anneal record nested
// under another request's span shows up as a subtree that does not
// match its request.
func TestServerConcurrentSpanTrees(t *testing.T) {
	var buf bytes.Buffer
	s := New(Options{Workers: 4, Tracer: telemetry.New(&buf)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		mu   sync.Mutex
		want = map[string]string{} // job id -> its request's subtree shape
		wg   sync.WaitGroup
	)
	start := make(chan struct{})
	seed := 0
	for _, placer := range []string{"sa", "twostage"} {
		for _, verify := range []bool{false, true} {
			for _, mc := range []int{0, 20} {
				seed++
				body := fmt.Sprintf(
					`{"assay":"pcr","placer":%q,"seed":%d,"beta":30,"iters_per_module":20,"window_patience":2,"verify":%t,"montecarlo":%d}`,
					placer, seed, verify, mc)
				stages := []string{"stage.fti", "stage.place", "stage.synth"}
				if verify {
					stages = append(stages, "stage.exhaustive")
				}
				if mc > 0 {
					stages = append(stages, "stage.montecarlo")
				}
				tags := "area"
				if placer == "twostage" {
					tags = "area,ft"
				}
				shape := subtreeShape(stages, tags)
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					b, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Dmfb-Cache") != "miss" {
						t.Errorf("%s: %d (cache %q) %s", body, resp.StatusCode, resp.Header.Get("X-Dmfb-Cache"), b)
					}
					mu.Lock()
					want[resp.Header.Get("X-Dmfb-Job")] = shape
					mu.Unlock()
				}()
			}
		}
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	type rec struct {
		Kind, Name string
		ID         uint64 `json:"id"`
		Par        uint64 `json:"par"`
		Fields     struct {
			Stage string `json:"stage"`
			Job   string `json:"job"`
		} `json:"fields"`
	}
	var recs []rec
	byID := map[uint64]rec{}
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r rec
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
		if r.Kind == "span" {
			byID[r.ID] = r
		}
	}
	roots := map[string]uint64{}         // job id -> its server.compile span id
	stages := map[uint64][]string{}      // server.compile id -> its stage spans
	tags := map[uint64]map[string]bool{} // stage.place id -> anneal stage tags
	placeOf := map[uint64]uint64{}       // server.compile id -> its stage.place id
	for _, r := range recs {
		switch {
		case r.Name == "server.compile":
			if r.Par != 0 {
				t.Errorf("server.compile span %d has parent %d (%s), want a root", r.ID, r.Par, byID[r.Par].Name)
			}
			if _, dup := roots[r.Fields.Job]; dup {
				t.Errorf("two server.compile spans carry job %q", r.Fields.Job)
			}
			roots[r.Fields.Job] = r.ID
		case strings.HasPrefix(r.Name, "stage."):
			if byID[r.Par].Name != "server.compile" {
				t.Errorf("%s span %d has parent %d (%q), want a server.compile span", r.Name, r.ID, r.Par, byID[r.Par].Name)
				continue
			}
			stages[r.Par] = append(stages[r.Par], r.Name)
			if r.Name == "stage.place" {
				placeOf[r.Par] = r.ID
			}
		case strings.HasPrefix(r.Name, "anneal."):
			if byID[r.Par].Name != "stage.place" {
				t.Errorf("%s record has parent %d (%q), want a stage.place span", r.Name, r.Par, byID[r.Par].Name)
				continue
			}
			if tags[r.Par] == nil {
				tags[r.Par] = map[string]bool{}
			}
			tags[r.Par][r.Fields.Stage] = true
		}
	}
	if len(roots) != len(want) {
		t.Errorf("%d server.compile spans for %d jobs", len(roots), len(want))
	}
	for job, shape := range want {
		id, ok := roots[job]
		if !ok {
			t.Errorf("job %q: no server.compile span carries its id", job)
			continue
		}
		var tl []string
		for tag := range tags[placeOf[id]] {
			tl = append(tl, tag)
		}
		slices.Sort(tl)
		if got := subtreeShape(stages[id], strings.Join(tl, ",")); got != shape {
			t.Errorf("job %q: subtree %q, want its request's %q", job, got, shape)
		}
	}
}

// subtreeShape renders one request's trace subtree: its sorted stage
// span names and the anneal stage tags under its stage.place.
func subtreeShape(stages []string, tags string) string {
	stages = slices.Clone(stages)
	slices.Sort(stages)
	return strings.Join(stages, ",") + " | " + tags
}
