// Package dispatch is the distributed campaign service: a dispatcher
// that holds a durable queue of campaign definitions and leases
// chunked trial ranges to simd worker daemons, which run them through
// the campaign engine and stream per-trial results back.
//
// The design follows the SIMQ dispatcher/simd split: the dispatcher
// owns all state (definitions, leases, results) and never computes a
// trial itself; workers are stateless leaseholders that can appear,
// crash and reappear at will. A lease is a contiguous trial range
// [lo, hi) with a heartbeat deadline — a worker that stops
// heartbeating (killed, wedged, partitioned) loses the lease and the
// dispatcher re-issues the chunk to the next worker that asks.
//
// The invariant the whole service is built around: because trial t of
// a campaign seeded S always runs with the RNG stream
// campaign.TrialRNG(S, t), a trial range is location-independent, so
// the dispatcher's merged summary (campaign.Summarize over streamed
// results) is byte-identical to the single-process engine at any
// worker count, across worker kills and dispatcher restarts. Duplicate
// results from a lease that expired while its worker kept computing
// are harmless for the same reason — they are identical bytes.
//
// Durability reuses the campaign checkpoint format: every accepted
// result appends to a per-campaign JSONL result log
// (campaign.ResultLog), and a restarted dispatcher replays the logs to
// resume exactly where it stopped.
package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/obs"
	"dmfb/internal/server"
	"dmfb/internal/telemetry"
)

// Defaults for zero-valued Options fields.
const (
	DefaultChunk        = 64
	DefaultLeaseTTL     = 10 * time.Second
	DefaultMaxCampaigns = 16
	maxBodyBytes        = 8 << 20 // result batches are bigger than API calls
)

// Options configures New.
type Options struct {
	// StateDir persists campaign definitions (<id>.spec.json) and
	// result logs (<id>.jsonl); "" keeps everything in memory.
	StateDir string
	// Chunk is the lease granularity in trials (default DefaultChunk).
	Chunk int
	// LeaseTTL is how long a lease survives without a heartbeat
	// (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// MaxCampaigns bounds unfinished campaigns; beyond it submissions
	// are answered 429 (default DefaultMaxCampaigns).
	MaxCampaigns int
	// Metrics receives dispatch.* counters; a private registry is
	// created when nil so /metrics always has data.
	Metrics *telemetry.Registry
}

// Dispatcher is the campaign dispatch service. Build with New, mount
// via Handler, stop with Close.
type Dispatcher struct {
	opts     Options
	reg      *telemetry.Registry
	adm      *server.Admission
	progress *obs.ProgressMux
	mux      *http.ServeMux

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string
	seq       int
	leaseSeq  int
	leases    map[string]*lease
	workers   map[string]*workerInfo

	now func() time.Time // injected by expiry tests
}

// campaignState is one campaign's authoritative record.
type campaignState struct {
	id          string
	spec        Spec
	name        string
	fingerprint string
	state       string // "queued" | "running" | "done" | "failed"
	failure     string

	results   []campaign.TrialResult
	done      []bool
	doneCount int

	pending []int          // chunk indices awaiting a lease, FIFO
	leased  map[int]string // chunk index -> lease id

	log      *campaign.ResultLog // nil without StateDir
	tracker  *campaign.ProgressTracker
	admitted bool
	summary  []byte // MarshalDeterministic bytes once done
}

type lease struct {
	id       string
	worker   string
	campaign string
	chunk    int
	lo, hi   int
	expires  time.Time
}

type workerInfo struct {
	cores    int
	lastSeen time.Time
}

// specDoc is the persisted campaign definition.
type specDoc struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
}

// New builds a dispatcher, replaying any state found in
// opts.StateDir.
func New(opts Options) (*Dispatcher, error) {
	if opts.Chunk <= 0 {
		opts.Chunk = DefaultChunk
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.MaxCampaigns <= 0 {
		opts.MaxCampaigns = DefaultMaxCampaigns
	}
	reg := opts.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	d := &Dispatcher{
		opts:      opts,
		reg:       reg,
		adm:       server.NewAdmission(opts.MaxCampaigns),
		progress:  obs.NewProgressMux(),
		campaigns: make(map[string]*campaignState),
		leases:    make(map[string]*lease),
		workers:   make(map[string]*workerInfo),
		now:       time.Now,
	}
	d.progress.Set("dispatcher", d.fleetSnapshot)
	if opts.StateDir != "" {
		if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("dispatch: state dir: %w", err)
		}
		if err := d.load(); err != nil {
			return nil, err
		}
	}
	d.mux = http.NewServeMux()
	d.mux.HandleFunc("POST /v1/campaigns", d.handleSubmit)
	d.mux.HandleFunc("GET /v1/campaigns", d.handleList)
	d.mux.HandleFunc("GET /v1/campaigns/{id}", d.handleStatus)
	d.mux.HandleFunc("GET /v1/campaigns/{id}/summary", d.handleSummary)
	d.mux.HandleFunc("POST /v1/workers", d.handleRegister)
	d.mux.HandleFunc("POST /v1/lease", d.handleLease)
	d.mux.HandleFunc("POST /v1/lease/{id}/heartbeat", d.handleHeartbeat)
	d.mux.HandleFunc("POST /v1/results", d.handleResults)
	obs.NewHandler("dmfb-dispatch", reg, d.progress.Snapshot).Register(d.mux)
	return d, nil
}

// Handler returns the service's HTTP handler (API + ops endpoints).
func (d *Dispatcher) Handler() http.Handler { return d.mux }

// Close flushes and closes every campaign's result log.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, c := range d.campaigns {
		if c.log == nil {
			continue
		}
		if err := c.log.Close(); err != nil && first == nil {
			first = err
		}
		c.log = nil
	}
	return first
}

// load replays the state directory: campaign definitions and their
// result logs. Completed campaigns come back done (their summary is
// recomputed — Summarize is deterministic, so the bytes are the ones
// the pre-restart dispatcher would have served); incomplete ones
// re-enter the queue with exactly their missing trials pending.
func (d *Dispatcher) load() error {
	entries, err := os.ReadDir(d.opts.StateDir)
	if err != nil {
		return fmt.Errorf("dispatch: read state dir: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".spec.json"); ok {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		raw, err := os.ReadFile(d.specPath(id))
		if err != nil {
			return fmt.Errorf("dispatch: read spec %s: %w", id, err)
		}
		var doc specDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("dispatch: spec %s corrupt: %w", id, err)
		}
		c, err := d.newCampaignState(id, doc.Spec)
		if err != nil {
			return err
		}
		replayed, err := campaign.ReadResultLog(d.logPath(id), c.checkpointID())
		if err != nil {
			return err
		}
		for _, r := range replayed {
			if r.Trial < 0 || r.Trial >= len(c.done) || c.done[r.Trial] {
				continue
			}
			c.results[r.Trial] = r
			c.done[r.Trial] = true
			c.doneCount++
		}
		c.tracker.RecordReplayed(c.doneCount)
		c.rebuildPending(d.opts.Chunk)
		if c.doneCount == len(c.done) {
			c.finish()
		} else {
			if c.doneCount > 0 {
				c.state = "running"
			}
			if _, ok := d.adm.Admit(); ok {
				c.admitted = true
			}
		}
		if c.state != "done" && d.opts.StateDir != "" {
			log, err := campaign.NewResultLog(d.logPath(id), c.checkpointID())
			if err != nil {
				return err
			}
			c.log = log
		}
		d.campaigns[id] = c
		d.order = append(d.order, id)
		d.installTracker(c)
		var n int
		if _, err := fmt.Sscanf(id, "c%d", &n); err == nil && n > d.seq {
			d.seq = n
		}
	}
	return nil
}

func (d *Dispatcher) specPath(id string) string {
	return filepath.Join(d.opts.StateDir, id+".spec.json")
}

func (d *Dispatcher) logPath(id string) string {
	return filepath.Join(d.opts.StateDir, id+".jsonl")
}

// newCampaignState validates sp and builds the in-memory record.
func (d *Dispatcher) newCampaignState(id string, sp Spec) (*campaignState, error) {
	sp = sp.Normalized()
	if err := sp.Validate(true); err != nil {
		return nil, err
	}
	c := &campaignState{
		id:          id,
		spec:        sp,
		name:        sp.Name(),
		fingerprint: sp.Fingerprint(),
		state:       "queued",
		results:     make([]campaign.TrialResult, sp.Trials),
		done:        make([]bool, sp.Trials),
		leased:      make(map[int]string),
		tracker:     campaign.NewProgressTracker(sp.Name(), sp.Trials),
	}
	c.rebuildPending(d.opts.Chunk)
	return c, nil
}

func (c *campaignState) checkpointID() campaign.CheckpointID {
	return campaign.CheckpointID{
		Campaign: c.name, Seed: c.spec.Seed, Trials: c.spec.Trials,
		Fingerprint: c.fingerprint,
	}
}

// chunkRange returns chunk i's trial range [lo, hi).
func (c *campaignState) chunkRange(i, chunk int) (lo, hi int) {
	lo = i * chunk
	hi = lo + chunk
	if hi > len(c.done) {
		hi = len(c.done)
	}
	return lo, hi
}

// rebuildPending recomputes the pending chunk queue from the done
// bitmap: every chunk with at least one missing trial is pending.
func (c *campaignState) rebuildPending(chunk int) {
	c.pending = c.pending[:0]
	n := (len(c.done) + chunk - 1) / chunk
	for i := 0; i < n; i++ {
		if _, held := c.leased[i]; held {
			continue
		}
		lo, hi := c.chunkRange(i, chunk)
		for t := lo; t < hi; t++ {
			if !c.done[t] {
				c.pending = append(c.pending, i)
				break
			}
		}
	}
}

// finish seals a fully recorded campaign: merge, store the
// deterministic summary bytes, close the log.
func (c *campaignState) finish() {
	sum := campaign.Summarize(c.name, c.spec.Seed, c.results)
	b, err := sum.MarshalDeterministic()
	if err != nil {
		// Summary is a plain struct; marshalling cannot fail outside a
		// programming error. Record it as a campaign failure.
		c.state = "failed"
		c.failure = err.Error()
		return
	}
	c.summary = append(b, '\n')
	c.state = "done"
	c.pending = nil
	if c.log != nil {
		// Close errors would have surfaced on the per-record flushes.
		c.log.Close()
		c.log = nil
	}
}

// installTracker exposes the campaign's live progress (rate, ETA,
// Wilson interval) under its id on /progress.
func (d *Dispatcher) installTracker(c *campaignState) {
	d.progress.Set(c.id, func() any { return c.tracker.Snapshot() })
}

// fleetSnapshot is the "dispatcher" entry of the /progress payload.
func (d *Dispatcher) fleetSnapshot() any {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reapLocked()
	states := map[string]int{}
	for _, c := range d.campaigns {
		states[c.state]++
	}
	return map[string]any{
		"campaigns":    len(d.campaigns),
		"by_state":     states,
		"leases":       len(d.leases),
		"workers":      len(d.workers),
		"admitted":     d.adm.Pending(),
		"max_admitted": d.adm.Limit(),
	}
}

// reapLocked expires overdue leases and returns their chunks to the
// pending queue. Callers hold d.mu. Expiry is lazy — every API
// request reaps first — which is enough because workers poll: a live
// fleet generates a steady stream of requests, and with no workers
// there is nobody to hand a re-issued chunk to anyway.
func (d *Dispatcher) reapLocked() {
	now := d.now()
	for id, l := range d.leases {
		if now.Before(l.expires) {
			continue
		}
		delete(d.leases, id)
		d.reg.Counter("dispatch.leases_expired").Inc()
		c := d.campaigns[l.campaign]
		if c == nil || c.state == "done" || c.state == "failed" {
			continue
		}
		if c.leased[l.chunk] == id {
			delete(c.leased, l.chunk)
			lo, hi := c.chunkRange(l.chunk, d.opts.Chunk)
			for t := lo; t < hi; t++ {
				if !c.done[t] {
					c.pending = append(c.pending, l.chunk)
					break
				}
			}
		}
	}
}

// ---- wire types ----

// SubmitResponse answers POST /v1/campaigns.
type SubmitResponse struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Trials int    `json:"trials"`
	State  string `json:"state"`
}

// StatusResponse answers GET /v1/campaigns/{id} and, in brief form,
// GET /v1/campaigns. ElapsedMS is the only wall-clock field; all
// others are deterministic once the campaign completes.
type StatusResponse struct {
	ID            string          `json:"id"`
	Name          string          `json:"name"`
	Spec          Spec            `json:"spec"`
	Fingerprint   string          `json:"fingerprint"`
	State         string          `json:"state"`
	Trials        int             `json:"trials"`
	Done          int             `json:"done"`
	Survived      int             `json:"survived"`
	Errors        int             `json:"errors"`
	Chunk         int             `json:"chunk"`
	PendingChunks int             `json:"pending_chunks"`
	LeasedChunks  int             `json:"leased_chunks"`
	Failure       string          `json:"failure,omitempty"`
	Summary       json.RawMessage `json:"summary,omitempty"`
	ElapsedMS     float64         `json:"elapsed_ms"`
}

// RegisterRequest announces a worker to POST /v1/workers.
type RegisterRequest struct {
	Worker string `json:"worker"`
	Cores  int    `json:"cores,omitempty"`
}

// RegisterResponse tells the worker how to behave.
type RegisterResponse struct {
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
	PollMS     int64 `json:"poll_ms"`
}

// LeaseRequest asks POST /v1/lease for work.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a trial range; the worker must heartbeat
// before TTLMS elapses or the chunk is re-issued.
type LeaseResponse struct {
	LeaseID    string `json:"lease_id"`
	CampaignID string `json:"campaign_id"`
	Name       string `json:"name"`
	Spec       Spec   `json:"spec"`
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
	TTLMS      int64  `json:"ttl_ms"`
}

// ResultsRequest streams completed trials to POST /v1/results. Results
// may arrive in any number of batches; Complete marks the lease's
// range fully reported, and Error reports a worker-side build failure
// that fails the whole campaign (it is deterministic — every worker
// would hit it).
type ResultsRequest struct {
	CampaignID string                 `json:"campaign_id"`
	LeaseID    string                 `json:"lease_id,omitempty"`
	Results    []campaign.TrialResult `json:"results,omitempty"`
	Complete   bool                   `json:"complete,omitempty"`
	Error      string                 `json:"error,omitempty"`
}

// ResultsResponse acknowledges a results batch.
type ResultsResponse struct {
	Accepted int    `json:"accepted"`
	State    string `json:"state"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// ---- handlers ----

func (d *Dispatcher) handleSubmit(w http.ResponseWriter, r *http.Request) {
	d.reg.Counter("dispatch.requests").Inc()
	var sp Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		d.fail(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
		return
	}
	if err := sp.Normalized().Validate(true); err != nil {
		d.fail(w, http.StatusBadRequest, err)
		return
	}
	if n, ok := d.adm.Admit(); !ok {
		d.reg.Counter("dispatch.rejected").Inc()
		d.fail(w, http.StatusTooManyRequests,
			fmt.Errorf("dispatcher busy: %d campaigns unfinished", n))
		return
	}

	d.mu.Lock()
	d.seq++
	id := fmt.Sprintf("c%06d", d.seq)
	c, err := d.newCampaignState(id, sp)
	if err != nil {
		d.mu.Unlock()
		d.adm.Release()
		d.fail(w, http.StatusBadRequest, err)
		return
	}
	c.admitted = true
	if d.opts.StateDir != "" {
		if err := d.persistNewLocked(c); err != nil {
			d.mu.Unlock()
			d.adm.Release()
			d.fail(w, http.StatusInternalServerError, err)
			return
		}
	}
	d.campaigns[id] = c
	d.order = append(d.order, id)
	d.installTracker(c)
	d.reg.Counter("dispatch.campaigns_submitted").Inc()
	resp := SubmitResponse{ID: id, Name: c.name, Trials: c.spec.Trials, State: c.state}
	d.mu.Unlock()
	d.writeJSON(w, http.StatusCreated, resp)
}

// persistNewLocked writes the spec document and opens the result log.
func (d *Dispatcher) persistNewLocked(c *campaignState) error {
	raw, err := json.MarshalIndent(specDoc{ID: c.id, Spec: c.spec}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(d.specPath(c.id), append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("dispatch: persist spec: %w", err)
	}
	log, err := campaign.NewResultLog(d.logPath(c.id), c.checkpointID())
	if err != nil {
		return err
	}
	c.log = log
	return nil
}

func (d *Dispatcher) handleList(w http.ResponseWriter, _ *http.Request) {
	d.mu.Lock()
	d.reapLocked()
	out := make([]StatusResponse, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.statusLocked(d.campaigns[id], false))
	}
	d.mu.Unlock()
	d.writeJSON(w, http.StatusOK, out)
}

func (d *Dispatcher) handleStatus(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	d.reapLocked()
	c := d.campaigns[r.PathValue("id")]
	if c == nil {
		d.mu.Unlock()
		d.fail(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	resp := d.statusLocked(c, true)
	d.mu.Unlock()
	d.writeJSON(w, http.StatusOK, resp)
}

// statusLocked renders a campaign's status; callers hold d.mu.
func (d *Dispatcher) statusLocked(c *campaignState, detailed bool) StatusResponse {
	survived, errs := 0, 0
	for i, r := range c.results {
		if !c.done[i] {
			continue
		}
		switch {
		case r.Err != "":
			errs++
		case r.Survived:
			survived++
		}
	}
	s := StatusResponse{
		ID: c.id, Name: c.name, Spec: c.spec, Fingerprint: c.fingerprint,
		State: c.state, Trials: c.spec.Trials, Done: c.doneCount,
		Survived: survived, Errors: errs,
		Chunk: d.opts.Chunk, PendingChunks: len(c.pending), LeasedChunks: len(c.leased),
		Failure:   c.failure,
		ElapsedMS: c.tracker.Snapshot().ElapsedMS,
	}
	if detailed && c.summary != nil {
		// The stored bytes end with '\n'; the raw message must not.
		s.Summary = json.RawMessage(c.summary[:len(c.summary)-1])
	}
	return s
}

func (d *Dispatcher) handleSummary(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	c := d.campaigns[r.PathValue("id")]
	var summary []byte
	var state string
	if c != nil {
		summary, state = c.summary, c.state
	}
	d.mu.Unlock()
	if c == nil {
		d.fail(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	if summary == nil {
		d.fail(w, http.StatusConflict, fmt.Errorf("campaign %s is %s; summary exists only once done", c.id, state))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(summary); err != nil {
		return // client went away
	}
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		d.fail(w, http.StatusBadRequest, fmt.Errorf("decode register: %w", err))
		return
	}
	if req.Worker == "" {
		d.fail(w, http.StatusBadRequest, errors.New("register: worker name required"))
		return
	}
	d.mu.Lock()
	d.workers[req.Worker] = &workerInfo{cores: req.Cores, lastSeen: d.now()}
	d.reg.Counter("dispatch.workers_registered").Inc()
	d.mu.Unlock()
	d.writeJSON(w, http.StatusOK, RegisterResponse{
		LeaseTTLMS: d.opts.LeaseTTL.Milliseconds(),
		PollMS:     (d.opts.LeaseTTL / 20).Milliseconds(),
	})
}

func (d *Dispatcher) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		d.fail(w, http.StatusBadRequest, fmt.Errorf("decode lease request: %w", err))
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reapLocked()
	if wi := d.workers[req.Worker]; wi != nil {
		wi.lastSeen = d.now()
	}
	// Oldest campaign with pending work wins — FIFO fairness across
	// campaigns, contiguous ranges within one.
	for _, id := range d.order {
		c := d.campaigns[id]
		if c.state == "done" || c.state == "failed" || len(c.pending) == 0 {
			continue
		}
		chunk := c.pending[0]
		c.pending = c.pending[1:]
		d.leaseSeq++
		l := &lease{
			id:       fmt.Sprintf("l%06d", d.leaseSeq),
			worker:   req.Worker,
			campaign: c.id,
			chunk:    chunk,
			expires:  d.now().Add(d.opts.LeaseTTL),
		}
		l.lo, l.hi = c.chunkRange(chunk, d.opts.Chunk)
		d.leases[l.id] = l
		c.leased[chunk] = l.id
		if c.state == "queued" {
			c.state = "running"
		}
		d.reg.Counter("dispatch.leases_issued").Inc()
		d.writeJSON(w, http.StatusOK, LeaseResponse{
			LeaseID: l.id, CampaignID: c.id, Name: c.name, Spec: c.spec,
			Lo: l.lo, Hi: l.hi, TTLMS: d.opts.LeaseTTL.Milliseconds(),
		})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	d.reapLocked()
	l := d.leases[r.PathValue("id")]
	if l != nil {
		l.expires = d.now().Add(d.opts.LeaseTTL)
		if wi := d.workers[l.worker]; wi != nil {
			wi.lastSeen = d.now()
		}
	}
	d.mu.Unlock()
	if l == nil {
		// 410: the lease expired and its chunk may already be re-issued
		// — the worker should abandon the range.
		d.fail(w, http.StatusGone, fmt.Errorf("lease %q expired or unknown", r.PathValue("id")))
		return
	}
	d.writeJSON(w, http.StatusOK, RegisterResponse{
		LeaseTTLMS: d.opts.LeaseTTL.Milliseconds(),
		PollMS:     (d.opts.LeaseTTL / 20).Milliseconds(),
	})
}

func (d *Dispatcher) handleResults(w http.ResponseWriter, r *http.Request) {
	var req ResultsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		d.fail(w, http.StatusBadRequest, fmt.Errorf("decode results: %w", err))
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reapLocked()
	c := d.campaigns[req.CampaignID]
	if c == nil {
		d.fail(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", req.CampaignID))
		return
	}
	// Check the whole batch before applying any of it: a rejected batch
	// leaves the lease, the log, the counters and the campaign as they were.
	for _, res := range req.Results {
		if res.Trial < 0 || res.Trial >= len(c.done) {
			d.fail(w, http.StatusBadRequest,
				fmt.Errorf("trial %d outside campaign %s [0,%d)", res.Trial, c.id, len(c.done)))
			return
		}
	}
	l := d.leases[req.LeaseID]
	if l != nil {
		l.expires = d.now().Add(d.opts.LeaseTTL) // a results batch is a heartbeat
		if wi := d.workers[l.worker]; wi != nil {
			wi.lastSeen = d.now()
		}
	}
	if req.Error != "" && c.state != "done" && c.state != "failed" {
		// Build failures are deterministic properties of the spec —
		// every worker would fail the same way, so fail the campaign.
		c.state = "failed"
		c.failure = req.Error
		c.pending = nil
		if c.admitted {
			c.admitted = false
			d.adm.Release()
		}
		d.reg.Counter("dispatch.campaigns_failed").Inc()
	}
	accepted := 0
	if c.state != "failed" {
		for _, res := range req.Results {
			if c.done[res.Trial] {
				continue // duplicate from an expired-then-revived lease; identical by construction
			}
			c.results[res.Trial] = res
			c.done[res.Trial] = true
			c.doneCount++
			accepted++
			c.tracker.Record(res.Survived, res.Err != "", res.Value)
			if c.log != nil {
				if err := c.log.Append(res); err != nil {
					d.fail(w, http.StatusInternalServerError, err)
					return
				}
			}
		}
	}
	d.reg.Counter("dispatch.results_recorded").Add(int64(accepted))
	if req.Complete && l != nil {
		delete(d.leases, req.LeaseID)
		if c.leased[l.chunk] == req.LeaseID {
			delete(c.leased, l.chunk)
			lo, hi := c.chunkRange(l.chunk, d.opts.Chunk)
			for t := lo; t < hi; t++ {
				if !c.done[t] {
					// Completed lease with holes (a partial batch was
					// lost in flight): re-queue the chunk.
					c.pending = append(c.pending, l.chunk)
					break
				}
			}
		}
	}
	if c.state != "failed" && c.doneCount == len(c.done) {
		c.finish()
		if c.admitted {
			c.admitted = false
			d.adm.Release()
		}
		d.reg.Counter("dispatch.campaigns_completed").Inc()
	}
	d.writeJSON(w, http.StatusOK, ResultsResponse{Accepted: accepted, State: c.state})
}

func (d *Dispatcher) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		d.fail(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(append(b, '\n')); err != nil {
		return // client went away
	}
}

func (d *Dispatcher) fail(w http.ResponseWriter, status int, err error) {
	d.reg.Counter("dispatch.errors").Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	b, merr := json.Marshal(errorResponse{Error: err.Error()})
	if merr != nil {
		b = []byte(`{"error":"internal"}`)
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return
	}
}
