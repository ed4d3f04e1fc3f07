package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmfb/internal/pcache"
	"dmfb/internal/pipeline"
	"dmfb/internal/telemetry"
)

var (
	stubOnce sync.Once
	stubRes  pipeline.Result
	stubErr  error
)

// stubResult is one real pipeline result (PCR, greedy placement, FTI
// and a fault-free simulation), computed once, so stubbed servers
// encode realistic compile and simulate bodies.
func stubResult(tb testing.TB) pipeline.Result {
	tb.Helper()
	stubOnce.Do(func() {
		sr := SimulateRequest{CompileRequest: CompileRequest{Assay: "pcr", Placer: "greedy"}}
		var req pipeline.Request
		if req, stubErr = New(Options{}).buildRequest("simulate", &sr); stubErr == nil {
			stubRes, stubErr = pipeline.Run(context.Background(), req)
		}
	})
	if stubErr != nil {
		tb.Fatal(stubErr)
	}
	return stubRes
}

// stubServer returns a server whose pipeline returns stubResult with a
// cache key naming the run, so the bodies of two runs always differ
// and a body shared between two requests can only be a replay. runs
// counts pipeline runs.
func stubServer(tb testing.TB, opts Options) (s *Server, runs *atomic.Int64) {
	res := stubResult(tb)
	s = New(opts)
	runs = new(atomic.Int64)
	s.run = func(context.Context, pipeline.Request) (pipeline.Result, error) {
		r := res
		r.CacheKey = pcache.Key(fmt.Sprintf("run%d", runs.Add(1)))
		return r, nil
	}
	return s, runs
}

// do serves one request in process.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

// waitJob polls /v1/jobs/{id} until the job has finished.
func waitJob(tb testing.TB, s *Server, id string) *httptest.ResponseRecorder {
	tb.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec := do(s, http.MethodGet, "/v1/jobs/"+id, "")
		if rec.Code != http.StatusAccepted {
			return rec
		}
		if time.Now().After(deadline) {
			tb.Fatalf("job %s never finished", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReplayServesStoredBody: a repeated compile or faulted simulate
// is answered with the first job's body under a new job id, without
// running the pipeline; server.replays counts it and its root span
// names the job it replays and has no stage spans under it.
func TestReplayServesStoredBody(t *testing.T) {
	reg := telemetry.NewRegistry()
	var trace bytes.Buffer
	s := New(Options{Workers: 1, Metrics: reg, Tracer: telemetry.New(&trace)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := []struct{ path, body string }{
		{"/v1/compile", `{"assay":"pcr","placer":"greedy"}`},
		{"/v1/simulate", `{"assay":"pcr","placer":"twostage","seed":1,"beta":40,"faults":[{"time_sec":1,"x":2,"y":1}]}`},
	}
	replayOf := map[string]string{} // replaying job id -> original job id
	for i, rq := range reqs {
		resp1, b1 := post(t, ts, rq.path, rq.body)
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", rq.path, resp1.StatusCode, b1)
		}
		runs := reg.Counter("pipeline.placer_runs").Value()
		resp2, b2 := post(t, ts, rq.path, rq.body)
		if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Dmfb-Cache") != "hit" {
			t.Fatalf("%s repeat: %d cache %q", rq.path, resp2.StatusCode, resp2.Header.Get("X-Dmfb-Cache"))
		}
		if !bytes.Equal(b1, b2) {
			t.Errorf("%s: replayed body differs:\n%s\nvs\n%s", rq.path, b2, b1)
		}
		id1, id2 := resp1.Header.Get("X-Dmfb-Job"), resp2.Header.Get("X-Dmfb-Job")
		if id1 == id2 {
			t.Errorf("%s: replay reused job id %s", rq.path, id1)
		}
		replayOf[id2] = id1
		if n := reg.Counter("pipeline.placer_runs").Value(); n != runs {
			t.Errorf("%s: placer_runs %d -> %d across a replay", rq.path, runs, n)
		}
		if n := reg.Counter("server.replays").Value(); n != int64(i+1) {
			t.Errorf("server.replays = %d after %d replays", n, i+1)
		}
		// pcache counts placement lookups only: one miss per body.
		if h := reg.Counter("pcache.hits").Value(); h != 0 {
			t.Errorf("pcache.hits = %d, want 0 (replays never reach the cache)", h)
		}
	}
	if n := reg.Counter("server.cache_hit").Value(); n != 2 {
		t.Errorf("server.cache_hit = %d, want 2", n)
	}
	if n := reg.Counter("server.requests").Value(); n != 4 {
		t.Errorf("server.requests = %d, want 4", n)
	}
	if n := reg.Histogram("server.request_ms").Count(); n != 4 {
		t.Errorf("server.request_ms count = %d, want 4", n)
	}

	type rec struct {
		Name   string
		ID     uint64 `json:"id"`
		Par    uint64 `json:"par"`
		Fields struct {
			Job      string `json:"job"`
			Cache    string `json:"cache"`
			ReplayOf string `json:"replay_of"`
		} `json:"fields"`
	}
	children := map[uint64]int{}
	var roots []rec
	dec := json.NewDecoder(&trace)
	for dec.More() {
		var r rec
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		children[r.Par]++
		if strings.HasPrefix(r.Name, "server.") {
			roots = append(roots, r)
		}
	}
	seen := 0
	for _, r := range roots {
		want, replayed := replayOf[r.Fields.Job]
		if !replayed {
			if r.Fields.ReplayOf != "" {
				t.Errorf("job %s: replay_of %q on a job that ran the pipeline", r.Fields.Job, r.Fields.ReplayOf)
			}
			continue
		}
		seen++
		if r.Fields.ReplayOf != want || r.Fields.Cache != "hit" {
			t.Errorf("replay span of job %s: replay_of %q cache %q, want %q hit", r.Fields.Job, r.Fields.ReplayOf, r.Fields.Cache, want)
		}
		if r.Par != 0 || children[r.ID] != 0 {
			t.Errorf("replay span of job %s: parent %d, %d children; want a lone root", r.Fields.Job, r.Par, children[r.ID])
		}
	}
	if seen != len(replayOf) {
		t.Errorf("%d replay spans for %d replays", seen, len(replayOf))
	}
}

// TestReplayKeyMutations changes one request field at a time: a
// request differing from a finished one in any field, the faults'
// order or the endpoint must run the pipeline itself, never share the
// finished job's body. Every wire field but async must be covered.
func TestReplayKeyMutations(t *testing.T) {
	base := SimulateRequest{
		CompileRequest: CompileRequest{Assay: "pcr", Placer: "sa", Seed: 1},
		Faults:         []FaultRequest{{TimeSec: 1, X: 2, Y: 1}, {TimeSec: 3, X: 4, Y: 2, TransientProbes: 1}},
		Recovery:       "l1",
	}
	mutations := map[string]func(*SimulateRequest){
		"assay":                   func(r *SimulateRequest) { r.Assay = "invitro" },
		"samples":                 func(r *SimulateRequest) { r.Samples = 3 },
		"assays":                  func(r *SimulateRequest) { r.Assays = 3 },
		"budget":                  func(r *SimulateRequest) { r.Budget = 40 },
		"placer":                  func(r *SimulateRequest) { r.Placer = "twostage" },
		"seed":                    func(r *SimulateRequest) { r.Seed = 2 },
		"iters_per_module":        func(r *SimulateRequest) { r.ItersPerModule = 50 },
		"window_patience":         func(r *SimulateRequest) { r.WindowPatience = 3 },
		"starts":                  func(r *SimulateRequest) { r.Starts = 2 },
		"anneal_workers":          func(r *SimulateRequest) { r.AnnealWorkers = 1 },
		"beta":                    func(r *SimulateRequest) { r.Beta = 30 },
		"spares":                  func(r *SimulateRequest) { r.Spares = 1 },
		"verify":                  func(r *SimulateRequest) { r.Verify = true },
		"montecarlo":              func(r *SimulateRequest) { r.MonteCarlo = 10 },
		"fti_seed":                func(r *SimulateRequest) { r.FTISeed = 5 },
		"faults.time_sec":         func(r *SimulateRequest) { r.Faults[0].TimeSec = 2 },
		"faults.x":                func(r *SimulateRequest) { r.Faults[0].X = 3 },
		"faults.y":                func(r *SimulateRequest) { r.Faults[0].Y = 2 },
		"faults.transient_probes": func(r *SimulateRequest) { r.Faults[0].TransientProbes = 2 },
		"faults order":            func(r *SimulateRequest) { r.Faults[0], r.Faults[1] = r.Faults[1], r.Faults[0] },
		"faults":                  func(r *SimulateRequest) { r.Faults = r.Faults[:1] },
		"recovery":                func(r *SimulateRequest) { r.Recovery = "ladder" },
		"recovery_seed":           func(r *SimulateRequest) { r.RecoverySeed = 9 },
	}
	// Every json field of the wire structs needs a mutation.
	for _, typ := range []reflect.Type{reflect.TypeOf(CompileRequest{}), reflect.TypeOf(SimulateRequest{}), reflect.TypeOf(FaultRequest{})} {
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if typ == reflect.TypeOf(FaultRequest{}) {
				name = "faults." + name
			}
			if _, ok := mutations[name]; !ok && name != "" && name != "async" {
				t.Errorf("no mutation covers field %q", name)
			}
		}
	}

	marshal := func(r SimulateRequest) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	baseBody := marshal(base)
	for name, mutate := range mutations {
		s, runs := stubServer(t, Options{Workers: 1})
		first := do(s, http.MethodPost, "/v1/simulate", baseBody)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: base request %d %s", name, first.Code, first.Body)
		}
		m := base
		m.Faults = append([]FaultRequest(nil), base.Faults...)
		mutate(&m)
		got := do(s, http.MethodPost, "/v1/simulate", marshal(m))
		if got.Code != http.StatusOK {
			t.Fatalf("%s: mutated request %d %s", name, got.Code, got.Body)
		}
		if runs.Load() != 2 || bytes.Equal(got.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: mutated request shared the base request's body (pipeline runs %d)", name, runs.Load())
		}
		// Control: the base request itself still replays.
		again := do(s, http.MethodPost, "/v1/simulate", baseBody)
		if runs.Load() != 2 || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
			t.Errorf("%s: the base request did not replay (pipeline runs %d)", name, runs.Load())
		}
	}

	// The endpoint is part of the key.
	s, runs := stubServer(t, Options{Workers: 1})
	body := `{"assay":"pcr","seed":1}`
	c := do(s, http.MethodPost, "/v1/compile", body)
	sim := do(s, http.MethodPost, "/v1/simulate", body)
	if c.Code != http.StatusOK || sim.Code != http.StatusOK || runs.Load() != 2 {
		t.Errorf("compile %d and simulate %d of one body ran the pipeline %d times, want 2", c.Code, sim.Code, runs.Load())
	}
}

// TestReplayAsync: async does not split the key. An async repeat of a
// finished sync request answers 202 without running the pipeline, and
// its job URL returns the stored body; a sync repeat of a finished
// async request replays too.
func TestReplayAsync(t *testing.T) {
	s, runs := stubServer(t, Options{Workers: 1})
	sync1 := do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr","seed":5}`)
	acc := do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr","seed":5,"async":true}`)
	if acc.Code != http.StatusAccepted {
		t.Fatalf("async repeat: %d %s, want 202", acc.Code, acc.Body)
	}
	job := waitJob(t, s, acc.Header().Get("X-Dmfb-Job"))
	if job.Code != http.StatusOK || job.Header().Get("X-Dmfb-Cache") != "hit" ||
		!bytes.Equal(job.Body.Bytes(), sync1.Body.Bytes()) {
		t.Errorf("async replay job: %d cache %q body %s, want 200 hit %s",
			job.Code, job.Header().Get("X-Dmfb-Cache"), job.Body, sync1.Body)
	}

	acc = do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr","seed":6,"async":true}`)
	async1 := waitJob(t, s, acc.Header().Get("X-Dmfb-Job"))
	sync2 := do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr","seed":6}`)
	if sync2.Header().Get("X-Dmfb-Cache") != "hit" || !bytes.Equal(sync2.Body.Bytes(), async1.Body.Bytes()) {
		t.Errorf("sync repeat of an async job: cache %q body %s, want hit %s",
			sync2.Header().Get("X-Dmfb-Cache"), sync2.Body, async1.Body)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("pipeline ran %d times for two distinct bodies", n)
	}
}

// TestReplayNeedsFinishedJob: an identical request arriving while the
// first still runs computes its own answer.
func TestReplayNeedsFinishedJob(t *testing.T) {
	s, runs := stubServer(t, Options{Workers: 2})
	stub := s.run
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	s.run = func(ctx context.Context, req pipeline.Request) (pipeline.Result, error) {
		started <- struct{}{}
		<-release
		return stub(ctx, req)
	}
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 2)
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr"}`)
		}()
		<-started // the first runs before the second arrives
	}
	close(release)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusOK || rec.Header().Get("X-Dmfb-Cache") != "miss" {
			t.Errorf("request %d: %d cache %q, want 200 miss", i, rec.Code, rec.Header().Get("X-Dmfb-Cache"))
		}
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("pipeline ran %d times, want 2", n)
	}
}

// TestReplayNeverError: a request whose job ended in a 4xx runs again,
// and a draining server answers 503 even for a replayable body.
func TestReplayNeverError(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, runs := stubServer(t, Options{Workers: 1, Metrics: reg})
	stub := s.run
	s.run = func(ctx context.Context, req pipeline.Request) (pipeline.Result, error) {
		if req.Place.Options.Seed == 7 {
			runs.Add(1)
			return pipeline.Result{}, &pipeline.StageError{Stage: pipeline.StagePlace, Err: fmt.Errorf("stub")}
		}
		return stub(ctx, req)
	}
	for i := 1; i <= 2; i++ {
		if rec := do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr","seed":7}`); rec.Code != http.StatusBadRequest {
			t.Errorf("failing request %d: %d, want 400", i, rec.Code)
		}
		if n := runs.Load(); n != int64(i) {
			t.Errorf("after failing request %d the pipeline ran %d times", i, n)
		}
	}

	const body = `{"assay":"pcr","seed":1}`
	if rec := do(s, http.MethodPost, "/v1/compile", body); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: %d %s", rec.Code, rec.Body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := do(s, http.MethodPost, "/v1/compile", body); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("replayable body while draining: %d, want 503", rec.Code)
	}
	if n := reg.Counter("server.replays").Value(); n != 0 {
		t.Errorf("server.replays = %d, want 0", n)
	}
}

// TestJobEvictionOldestFirst: after 2×MaxJobs sequential requests
// exactly MaxJobs finished jobs remain, the newest, while a job that
// was running all along stays; the replay index holds no evicted job,
// so an evicted body runs again.
func TestJobEvictionOldestFirst(t *testing.T) {
	const maxJobs = 4
	s, runs := stubServer(t, Options{Workers: 2, MaxJobs: maxJobs})
	stub := s.run
	release := make(chan struct{})
	s.run = func(ctx context.Context, req pipeline.Request) (pipeline.Result, error) {
		if req.Place.Options.Seed == 99 {
			<-release
		}
		return stub(ctx, req)
	}
	acc := do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr","seed":99,"async":true}`)
	running := acc.Header().Get("X-Dmfb-Job")

	var ids []string
	for i := 0; i < 2*maxJobs; i++ {
		rec := do(s, http.MethodPost, "/v1/compile", fmt.Sprintf(`{"assay":"pcr","seed":%d}`, i+1))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		ids = append(ids, rec.Header().Get("X-Dmfb-Job"))
	}
	retained := func() []string {
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
		var got []string
		for _, j := range s.finished {
			got = append(got, j.id)
		}
		for _, j := range s.replays {
			if s.jobs[j.id] != j {
				t.Errorf("replay index holds evicted job %s", j.id)
			}
		}
		return got
	}
	if got, want := retained(), ids[maxJobs:]; !reflect.DeepEqual(got, want) {
		t.Errorf("finished jobs %v, want the newest %v", got, want)
	}
	if rec := do(s, http.MethodGet, "/v1/jobs/"+running, ""); rec.Code != http.StatusAccepted {
		t.Errorf("running job: %d, want 202 (never evicted)", rec.Code)
	}
	if rec := do(s, http.MethodGet, "/v1/jobs/"+ids[0], ""); rec.Code != http.StatusNotFound {
		t.Errorf("oldest job: %d, want 404 (evicted)", rec.Code)
	}

	close(release)
	if rec := waitJob(t, s, running); rec.Code != http.StatusOK {
		t.Errorf("released job: %d", rec.Code)
	}
	if got, want := retained(), append(slices.Clone(ids[maxJobs+1:]), running); !reflect.DeepEqual(got, want) {
		t.Errorf("after the running job finished: %v, want %v", got, want)
	}

	// seed 1's job is gone, so its body runs again; seed 8's replays.
	n := runs.Load()
	do(s, http.MethodPost, "/v1/compile", `{"assay":"pcr","seed":1}`)
	do(s, http.MethodPost, "/v1/compile", fmt.Sprintf(`{"assay":"pcr","seed":%d}`, 2*maxJobs))
	if got := runs.Load() - n; got != 1 {
		t.Errorf("%d pipeline runs for an evicted and a retained body, want 1", got)
	}
	retained()
}

// TestReplayConcurrent: concurrent repeats of warmed bodies all replay
// the warm body without running the pipeline, and concurrent requests
// evicting one another's jobs leave exactly MaxJobs finished jobs and
// an index holding retained jobs only (run under -race).
func TestReplayConcurrent(t *testing.T) {
	const clients, perClient = 4, 25
	bodies := []string{`{"assay":"pcr","seed":1}`, `{"assay":"pcr","seed":2}`, `{"assay":"pcr","seed":3}`}
	for _, maxJobs := range []int{DefaultMaxJobs, 4} {
		s, runs := stubServer(t, Options{Workers: 2, MaxJobs: maxJobs})
		warm := make([][]byte, len(bodies))
		for i, b := range bodies {
			warm[i] = do(s, http.MethodPost, "/v1/compile", b).Body.Bytes()
		}
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					k := (c + i) % len(bodies)
					rec := do(s, http.MethodPost, "/v1/compile", bodies[k])
					if rec.Code != http.StatusOK {
						t.Errorf("body %d: %d %s", k, rec.Code, rec.Body)
					} else if maxJobs == DefaultMaxJobs && !bytes.Equal(rec.Body.Bytes(), warm[k]) {
						t.Errorf("body %d: replay differs from the warm body", k)
					}
				}
			}()
		}
		wg.Wait()
		if n := runs.Load(); maxJobs == DefaultMaxJobs && n != int64(len(bodies)) {
			t.Errorf("pipeline ran %d times for %d warmed bodies", n, len(bodies))
		}
		s.jobsMu.Lock()
		if want := min(maxJobs, len(bodies)+clients*perClient); len(s.finished) != want {
			t.Errorf("MaxJobs %d: %d finished jobs retained, want %d", maxJobs, len(s.finished), want)
		}
		for _, j := range s.replays {
			if s.jobs[j.id] != j {
				t.Errorf("MaxJobs %d: replay index holds evicted job %s", maxJobs, j.id)
			}
		}
		s.jobsMu.Unlock()
	}
}
