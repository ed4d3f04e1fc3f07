// Package server is the dmfb compile-and-simulate service: an
// HTTP/JSON front end over the shared pipeline with a bounded annealer
// worker pool and the content-addressed placement cache.
//
// API:
//
//	POST /v1/compile   synthesise + place + analyse; returns the
//	                   placement JSON (byte-identical whether it came
//	                   from the cache or a fresh anneal — see pcache)
//	POST /v1/simulate  compile, then run the chip simulator with
//	                   optional fault injections and recovery mode
//	GET  /v1/jobs/{id} status of an async job, or its stored response
//	                   once finished
//
// plus the ops endpoints (/metrics, /healthz, /progress, /debug/pprof)
// mounted from internal/obs on the same mux.
//
// Every compile/simulate response carries an X-Dmfb-Job header naming
// the job and, on success, an X-Dmfb-Cache header reporting whether
// the placement was annealed fresh ("miss") or not ("hit": served from
// the placement cache, or the whole response replayed from a finished
// job). Cache state never leaks into the body, so hit and miss
// responses for the same request are byte-identical.
//
// Replay: a request that decodes to the same endpoint and fields as a
// finished 200 job still held in the job store (see MaxJobs) is
// answered with that job's stored body under a new job id, without
// running the pipeline or taking a worker slot. Async does not split
// the key; a 4xx or an unfinished job is never replayed.
//
// Admission control: at most Workers requests anneal concurrently and
// at most QueueDepth more may wait; beyond that the server answers 429
// immediately rather than building an unbounded backlog. A request
// body with "async": true is accepted with 202 and a job id instead of
// blocking the connection; its result is fetched from /v1/jobs/{id}.
// Drain stops admission (503) and waits for in-flight work, giving the
// binary a graceful SIGTERM path.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/core"
	"dmfb/internal/format"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/obs"
	"dmfb/internal/pcache"
	"dmfb/internal/pipeline"
	"dmfb/internal/place"
	"dmfb/internal/sim"
	"dmfb/internal/telemetry"
)

// Defaults for zero-valued Options fields.
const (
	DefaultQueueDepth = 64
	DefaultMaxJobs    = 256
	maxBodyBytes      = 1 << 20
	// maxMonteCarloTrials bounds "montecarlo" on /v1/compile. Every
	// trial plans a reconfiguration, so without a bound one small body
	// can pin a worker for seconds and allocate gigabytes. At 50,000
	// trials the Wilson 95% half-width is at most 0.0044, under one
	// cell's FTI step on arrays of up to 225 cells, and the bound sits
	// 2.5x above the largest campaign in the tree (20,000 trials).
	maxMonteCarloTrials = 50_000
)

// Options configures New.
type Options struct {
	// Workers bounds concurrent pipeline runs (annealing is CPU-bound,
	// so this is the parallelism knob). 0 = GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the
	// Workers running; one more is answered 429. 0 = DefaultQueueDepth;
	// negative = no queue (reject whenever all workers are busy).
	QueueDepth int
	// CacheBytes is the placement cache budget (0 =
	// pcache.DefaultMaxBytes).
	CacheBytes int
	// MaxJobs bounds retained finished jobs (0 = DefaultMaxJobs); the
	// oldest finished job is evicted first, a running one never. It
	// also bounds replay: only a retained job's body is replayed.
	MaxJobs int
	// Metrics receives server, cache and pipeline metrics, the
	// pipeline's including every layer it calls (sim.*, router.*,
	// recovery.*, reconfig.*); a private registry is created when nil
	// so /metrics always has data.
	Metrics *telemetry.Registry
	// Tracer, when non-nil, records server.* and stage.* spans per
	// request: each job's pipeline gets the tracer scoped under its
	// own root "server.<kind>" span, whose "job" field is the job id.
	Tracer *telemetry.Tracer
}

// Server is the compile-and-simulate service. Build with New, mount
// via Handler, stop with Drain.
type Server struct {
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
	cache  *pcache.Cache
	mux    *http.ServeMux

	slots chan struct{} // worker pool; holding a token = annealing
	adm   *Admission    // Workers + QueueDepth admission bound

	draining atomic.Bool
	inflight sync.WaitGroup

	// run executes the pipeline; swapped out by tests that need a
	// blocking or failing workload.
	run func(context.Context, pipeline.Request) (pipeline.Result, error)

	jobsMu   sync.Mutex
	jobs     map[string]*job
	finished []*job              // finished jobs, oldest first; at most maxJobs
	replays  map[requestKey]*job // newest finished 200 job per request key
	jobSeq   int64
	maxJobs  int
}

// requestKey identifies a validated request: the SHA-256 of its
// endpoint and the JSON re-encoding of its decoded body with Async
// cleared. Equal keys mean equal pipeline inputs, so one finished
// job's body answers every request with its key.
type requestKey [sha256.Size]byte

func keyOf(kind string, sr SimulateRequest) requestKey {
	sr.Async = false
	b, err := json.Marshal(sr)
	if err != nil {
		// Unreachable for a decoded request; an unkeyed request
		// simply runs the pipeline.
		return requestKey{}
	}
	return sha256.Sum256(append([]byte(kind+"\x00"), b...))
}

// job is one compile/simulate request. Result fields are written once
// and published by closing done (see retire); after that they are
// read-only.
type job struct {
	id      string
	key     requestKey
	running atomic.Bool
	done    chan struct{}

	status int
	cache  string // "hit" | "miss" | "" (error)
	body   []byte
}

// New builds a ready-to-serve Server.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case opts.QueueDepth == 0:
		opts.QueueDepth = DefaultQueueDepth
	case opts.QueueDepth < 0:
		opts.QueueDepth = 0
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = DefaultMaxJobs
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Server{
		reg:     reg,
		tracer:  opts.Tracer,
		cache:   pcache.New(opts.CacheBytes, reg),
		slots:   make(chan struct{}, opts.Workers),
		adm:     NewAdmission(opts.Workers + opts.QueueDepth),
		run:     pipeline.Run,
		jobs:    make(map[string]*job),
		replays: make(map[requestKey]*job),
		maxJobs: opts.MaxJobs,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, "compile")
	})
	s.mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		s.handleRun(w, r, "simulate")
	})
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	obs.NewHandler("dmfb-server", reg, s.progressSnapshot).Register(s.mux)
	return s
}

// Handler returns the service's HTTP handler (API + ops endpoints).
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the placement cache (for stats and tests).
func (s *Server) Cache() *pcache.Cache { return s.cache }

// Drain stops admitting requests (new ones get 503) and waits for
// in-flight work to finish or ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CompileRequest is the POST /v1/compile body. Zero-valued knobs take
// the same defaults as the CLIs.
type CompileRequest struct {
	// Assay selects the workload: "pcr" or "invitro".
	Assay string `json:"assay"`
	// Samples × Assays size the in-vitro workload; Budget caps
	// concurrent module area in cells.
	Samples int `json:"samples,omitempty"`
	Assays  int `json:"assays,omitempty"`
	Budget  int `json:"budget,omitempty"`

	// Placer: "greedy", "greedy-oblivious", "sa" (default), "twostage".
	Placer string `json:"placer,omitempty"`
	// Annealer knobs (defaults per core.Options).
	Seed           int64 `json:"seed,omitempty"`
	ItersPerModule int   `json:"iters_per_module,omitempty"`
	WindowPatience int   `json:"window_patience,omitempty"`
	// Multi-start search: Starts independent annealing starts with
	// derived seeds, best result wins. Starts participates in the
	// placement-cache key; AnnealWorkers only caps concurrency and
	// never changes the result (or the key).
	Starts        int `json:"starts,omitempty"`
	AnnealWorkers int `json:"anneal_workers,omitempty"`
	// Beta weights the fault-tolerance term of the twostage placer.
	Beta float64 `json:"beta,omitempty"`
	// Spares threads that many interstitial spare lines through the
	// finished placement (space redundancy for yield enhancement).
	// Applied downstream of the placement cache, so requests differing
	// only in Spares share one cache entry.
	Spares int `json:"spares,omitempty"`

	// Verify runs exhaustive single-fault injection; MonteCarlo runs
	// that many random single-fault trials seeded by FTISeed.
	Verify     bool  `json:"verify,omitempty"`
	MonteCarlo int   `json:"montecarlo,omitempty"`
	FTISeed    int64 `json:"fti_seed,omitempty"`

	// Async detaches the request: the response is 202 with a job id and
	// the result is fetched from /v1/jobs/{id}.
	Async bool `json:"async,omitempty"`
}

// FaultRequest is one injected fault in a simulate request.
type FaultRequest struct {
	TimeSec         int `json:"time_sec"`
	X               int `json:"x"`
	Y               int `json:"y"`
	TransientProbes int `json:"transient_probes,omitempty"`
}

// SimulateRequest is the POST /v1/simulate body: a compile plus the
// simulator configuration.
type SimulateRequest struct {
	CompileRequest
	Faults []FaultRequest `json:"faults,omitempty"`
	// Recovery: "l1" (default), "ladder" or "off".
	Recovery     string `json:"recovery,omitempty"`
	RecoverySeed int64  `json:"recovery_seed,omitempty"`
}

// CompileResponse is the POST /v1/compile result. All fields are
// deterministic functions of the request, so identical requests yield
// byte-identical bodies regardless of cache state.
type CompileResponse struct {
	Assay       string   `json:"assay"`
	Placer      string   `json:"placer"`
	MakespanSec int      `json:"makespan_sec"`
	ArrayW      int      `json:"array_w"`
	ArrayH      int      `json:"array_h"`
	ArrayCells  int      `json:"array_cells"`
	Utilization float64  `json:"utilization"`
	FTI         float64  `json:"fti"`
	Stage1FTI   *float64 `json:"stage1_fti,omitempty"`
	// VerifiedSurvival is the exhaustive single-fault survival rate
	// (equals FTI exactly); MonteCarloSurvival the sampled estimate.
	VerifiedSurvival   *float64 `json:"verified_survival,omitempty"`
	MonteCarloSurvival *float64 `json:"montecarlo_survival,omitempty"`
	CacheKey           string   `json:"cache_key"`
	// Placement is the dmfb-place JSON document, usable directly as a
	// -placement file for the CLIs.
	Placement json.RawMessage `json:"placement"`
}

// SimulateResponse is the POST /v1/simulate result.
type SimulateResponse struct {
	CompileResponse
	Outcome        string   `json:"outcome"`
	FailReason     string   `json:"fail_reason,omitempty"`
	SimMakespanSec int      `json:"sim_makespan_sec"`
	TransportSteps int      `json:"transport_steps"`
	TransportMS    int      `json:"transport_ms"`
	Relocations    int      `json:"relocations"`
	Events         int      `json:"events"`
	Recoveries     int      `json:"recoveries"`
	ProductFluids  []string `json:"product_fluids,omitempty"`
}

// errorResponse is the JSON body of every non-2xx API response.
type errorResponse struct {
	Error string `json:"error"`
	Stage string `json:"stage,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, kind string) {
	s.reg.Counter("server.requests").Add(1)
	if s.draining.Load() {
		s.reg.Counter("server.rejected").Add(1)
		s.fail(w, http.StatusServiceUnavailable, "", fmt.Errorf("server draining"))
		return
	}

	var sr SimulateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sr); err != nil {
		s.fail(w, http.StatusBadRequest, "", fmt.Errorf("decode request: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		s.fail(w, http.StatusBadRequest, "", fmt.Errorf("decode request: data after the request object"))
		return
	}
	preq, err := s.buildRequest(kind, &sr)
	if err != nil {
		s.fail(w, http.StatusBadRequest, stageOf(err), err)
		return
	}
	key := keyOf(kind, sr)
	if j := s.replay(kind, key); j != nil {
		s.answer(w, j, sr.Async)
		return
	}

	// Admission: Workers running + QueueDepth waiting, then shed load.
	n, ok := s.adm.Admit()
	if !ok {
		s.reg.Counter("server.rejected").Add(1)
		s.fail(w, http.StatusTooManyRequests, "",
			fmt.Errorf("server busy: %d requests in flight", n))
		return
	}
	s.reg.Gauge("server.pending").Set(float64(n))

	j := s.newJob(key)
	s.inflight.Add(1)
	if sr.Async {
		go s.execute(context.Background(), j, kind, &sr, preq)
	} else {
		s.execute(r.Context(), j, kind, &sr, preq)
	}
	s.answer(w, j, sr.Async)
}

// answer writes a job's reply: 202 and its job URL when the request
// was async, else the finished job itself.
func (s *Server) answer(w http.ResponseWriter, j *job, async bool) {
	if !async {
		s.writeJob(w, j)
		return
	}
	w.Header().Set("X-Dmfb-Job", j.id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"job_id\":%q,\"state\":\"queued\",\"status_url\":\"/v1/jobs/%s\"}\n", j.id, j.id)
}

// replay answers a request from the newest retained 200 job with its
// key: it registers a new finished job holding that job's body and
// re-points the key to it, so a body that recurs within MaxJobs
// requests keeps replaying. It returns nil when no such job is held.
// A replay places nothing, so it takes no admission or worker slot;
// its trace is the root server.<kind> span alone.
func (s *Server) replay(kind string, key requestKey) *job {
	start := time.Now()
	s.jobsMu.Lock()
	of := s.replays[key]
	var j *job
	if of != nil {
		j = s.addJob(key)
		j.status, j.cache, j.body = http.StatusOK, "hit", of.body
		s.retire(j)
	}
	s.jobsMu.Unlock()
	if j == nil {
		return nil
	}
	wall := time.Since(start)
	if s.tracer.Enabled() {
		s.tracer.EmitSpan("server."+kind, wall, telemetry.Fields{
			"job":       j.id,
			"kind":      kind,
			"cache":     "hit",
			"replay_of": of.id,
		})
	}
	s.reg.Histogram("server.request_ms", telemetry.LatencyBuckets...).
		Observe(float64(wall.Microseconds()) / 1000)
	s.reg.Counter("server.cache_hit").Add(1)
	s.reg.Counter("server.replays").Add(1)
	return j
}

// execute waits for a worker slot, runs the pipeline and publishes the
// job result. It owns the pending/inflight accounting taken by
// handleRun.
func (s *Server) execute(ctx context.Context, j *job, kind string, sr *SimulateRequest, preq pipeline.Request) {
	defer s.inflight.Done()
	defer func() {
		s.reg.Gauge("server.pending").Set(float64(s.adm.Release()))
	}()

	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.finishError(j, http.StatusServiceUnavailable, ctx.Err())
		return
	}
	defer func() { <-s.slots }()
	j.running.Store(true)

	span := s.tracer.Start("server." + kind)
	preq.Tracer = s.tracer.Under(span.ID())
	clock := telemetry.StartStage("server." + kind)
	res, err := s.run(ctx, preq)
	st := clock.Stop()
	cacheState := "miss"
	if res.CacheHit {
		cacheState = "hit"
	}
	span.End(telemetry.Fields{
		"job":    j.id,
		"kind":   kind,
		"cache":  cacheState,
		"error":  err != nil,
		"cpu_us": st.CPU.Microseconds(),
	})
	s.reg.Histogram("server.request_ms", telemetry.LatencyBuckets...).
		Observe(float64(st.Wall.Microseconds()) / 1000)

	if err != nil {
		s.finishError(j, http.StatusBadRequest, err)
		return
	}
	body, err := encodeResponse(kind, sr, res)
	if err != nil {
		s.finishError(j, http.StatusInternalServerError, err)
		return
	}
	s.reg.Counter("server.cache_" + cacheState).Add(1)
	j.status = http.StatusOK
	j.cache = cacheState
	j.body = body
	s.finish(j)
}

func (s *Server) finishError(j *job, status int, err error) {
	s.reg.Counter("server.errors").Add(1)
	b, merr := json.Marshal(errorResponse{Error: err.Error(), Stage: stageOf(err)})
	if merr != nil {
		b = []byte(`{"error":"internal"}`)
	}
	j.status = status
	j.body = append(b, '\n')
	s.finish(j)
}

// stageOf names the pipeline stage an error belongs to ("" if none).
func stageOf(err error) string {
	var se *pipeline.StageError
	if errors.As(err, &se) {
		return se.Stage
	}
	return ""
}

// buildRequest translates the wire request into a pipeline request.
func (s *Server) buildRequest(kind string, sr *SimulateRequest) (pipeline.Request, error) {
	if kind == "compile" && (len(sr.Faults) > 0 || sr.Recovery != "" || sr.RecoverySeed != 0) {
		return pipeline.Request{}, fmt.Errorf("compile request carries simulate-only fields")
	}
	if sr.MonteCarlo < 0 || sr.MonteCarlo > maxMonteCarloTrials {
		return pipeline.Request{}, &pipeline.StageError{Stage: pipeline.StageFTI,
			Err: fmt.Errorf("montecarlo %d outside [0, %d]", sr.MonteCarlo, maxMonteCarloTrials)}
	}
	placer := sr.Placer
	if placer == "" {
		placer = "sa"
	}
	req := pipeline.Request{
		Tool: "dmfb-server",
		Synth: &pipeline.SynthSpec{
			Assay:   sr.Assay,
			Samples: sr.Samples,
			Assays:  sr.Assays,
			Budget:  sr.Budget,
		},
		Place: &pipeline.PlaceSpec{
			Placer: placer,
			Options: core.Options{
				Seed:           sr.Seed,
				ItersPerModule: sr.ItersPerModule,
				WindowPatience: sr.WindowPatience,
				Search:         place.SearchOptions{Starts: sr.Starts, Workers: sr.AnnealWorkers},
			},
			FT:     core.FTOptions{Beta: sr.Beta},
			Spares: sr.Spares,
		},
		FTI: &pipeline.FTISpec{
			Verify:     sr.Verify,
			MonteCarlo: sr.MonteCarlo,
			Seed:       sr.FTISeed,
		},
		Cache:   s.cache,
		Metrics: s.reg,
	}
	if kind == "simulate" {
		mode, err := sim.ParseRecoveryMode(orDefault(sr.Recovery, "l1"))
		if err != nil {
			return pipeline.Request{}, err
		}
		spec := &pipeline.SimSpec{
			Options: sim.Options{Recovery: mode, RecoverySeed: sr.RecoverySeed},
		}
		for _, f := range sr.Faults {
			spec.Faults = append(spec.Faults, sim.FaultInjection{
				TimeSec:         f.TimeSec,
				Cell:            geom.Point{X: f.X, Y: f.Y},
				TransientProbes: f.TransientProbes,
			})
		}
		req.Sim = spec
	}
	return req, nil
}

// encodeResponse renders the pipeline result. Everything here is a
// deterministic function of the request, keeping cached and fresh
// responses byte-identical.
func encodeResponse(kind string, sr *SimulateRequest, res pipeline.Result) ([]byte, error) {
	raw, err := format.MarshalPlacement(res.Placement)
	if err != nil {
		return nil, err
	}
	bb := res.Placement.BoundingBox()
	cr := CompileResponse{
		Assay:       sr.Assay,
		Placer:      orDefault(sr.Placer, "sa"),
		MakespanSec: res.Schedule.Makespan,
		ArrayW:      bb.W,
		ArrayH:      bb.H,
		ArrayCells:  res.Placement.ArrayCells(),
		Utilization: res.Placement.Utilization(),
		FTI:         res.FTI.FTI(),
		CacheKey:    string(res.CacheKey),
		Placement:   raw,
	}
	if res.TwoStage != nil {
		v := fti.Compute(res.TwoStage.Stage1).FTI()
		cr.Stage1FTI = &v
	}
	if res.Exhaustive != nil {
		v := res.Exhaustive.SurvivalRate()
		cr.VerifiedSurvival = &v
	}
	if res.MonteCarlo != nil {
		v := res.MonteCarlo.SurvivalRate()
		cr.MonteCarloSurvival = &v
	}
	var out any = cr
	if kind == "simulate" {
		out = SimulateResponse{
			CompileResponse: cr,
			Outcome:         res.Sim.Outcome.String(),
			FailReason:      res.Sim.FailReason,
			SimMakespanSec:  res.Sim.MakespanSec,
			TransportSteps:  res.Sim.TransportSteps,
			TransportMS:     res.Sim.TransportMS,
			Relocations:     len(res.Sim.Relocations),
			Events:          len(res.Sim.Events),
			Recoveries:      res.Sim.Recovery.Invocations,
			ProductFluids:   res.Sim.ProductFluids,
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.jobsMu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.jobsMu.Unlock()
	if j == nil {
		s.fail(w, http.StatusNotFound, "", fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	select {
	case <-j.done:
		s.writeJob(w, j)
	default:
		state := "queued"
		if j.running.Load() {
			state = "running"
		}
		w.Header().Set("X-Dmfb-Job", j.id)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, "{\"job_id\":%q,\"state\":%q}\n", j.id, state)
	}
}

// writeJob renders a finished job. Used by both the synchronous path
// and /v1/jobs, so an async result is byte-identical to a sync one.
func (s *Server) writeJob(w http.ResponseWriter, j *job) {
	<-j.done
	w.Header().Set("X-Dmfb-Job", j.id)
	if j.cache != "" {
		w.Header().Set("X-Dmfb-Cache", j.cache)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(j.status)
	if _, err := w.Write(j.body); err != nil {
		return // client went away; the job record remains
	}
}

func (s *Server) fail(w http.ResponseWriter, status int, stage string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, merr := json.Marshal(errorResponse{Error: err.Error(), Stage: stage})
	if merr != nil {
		b = []byte(`{"error":"internal"}`)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return
	}
}

// newJob registers a running job under a fresh id.
func (s *Server) newJob(key requestKey) *job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	return s.addJob(key)
}

// addJob is newJob with s.jobsMu held.
func (s *Server) addJob(key requestKey) *job {
	s.jobSeq++
	j := &job{
		id:   fmt.Sprintf("j%06d", s.jobSeq),
		key:  key,
		done: make(chan struct{}),
	}
	s.jobs[j.id] = j
	return j
}

// finish publishes a job whose result fields are set.
func (s *Server) finish(j *job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.retire(j)
}

// retire publishes j (s.jobsMu held): it closes j.done, indexes a 200
// job for replay under its key, and evicts the oldest finished job
// once more than MaxJobs are held, dropping its replay entry unless a
// newer job took the key over. A running job is never in the finished
// queue, so it is never evicted.
func (s *Server) retire(j *job) {
	close(j.done)
	if j.status == http.StatusOK && j.key != (requestKey{}) {
		s.replays[j.key] = j
	}
	s.finished = append(s.finished, j)
	if len(s.finished) <= s.maxJobs {
		return
	}
	old := s.finished[0]
	s.finished[0] = nil
	s.finished = s.finished[1:]
	delete(s.jobs, old.id)
	if s.replays[old.key] == old {
		delete(s.replays, old.key)
	}
}

// progressSnapshot feeds the /progress ops endpoint.
func (s *Server) progressSnapshot() any {
	s.jobsMu.Lock()
	jobs := len(s.jobs)
	s.jobsMu.Unlock()
	return map[string]any{
		"pending":  s.adm.Pending(),
		"workers":  cap(s.slots),
		"busy":     len(s.slots),
		"jobs":     jobs,
		"draining": s.draining.Load(),
		"cache":    s.cache.Stats(),
	}
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
