package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/core"
	"dmfb/internal/format"
	"dmfb/internal/invitro"
	"dmfb/internal/pcache"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
	"dmfb/internal/server"
	"dmfb/internal/telemetry"
)

const (
	// serveMissPeriod makes every serveMissPeriod-th request a cache
	// miss (a fresh-seed `sa` anneal of PCR, ~85 ms); the rest are hits
	// on the warmed bodies (~0.2 ms). A 25 s run makes about 130
	// misses, so the tail percentile (10 requests beyond it) falls well
	// inside the miss class instead of on the hit/miss boundary, and
	// miss_p50_ms is a median of many fresh seeds.
	serveMissPeriod = 500
	// serveProbeEvery spaces the client's host-speed probes (see
	// probe.go), taken between requests.
	serveProbeEvery = 100 * time.Millisecond

	hdrReq  = "X-Bench-Req"  // request sequence number
	hdrSpan = "X-Bench-Span" // client span id, the parent of the handler span
)

// serveBody is one request of the warmed hit set.
type serveBody struct {
	kind   string // "compile" or "simulate"
	req    server.SimulateRequest
	weight int    // its share of the hit sequence, see serveOrder
	body   []byte // the request body
	want   []byte // the warming miss's response body
}

// serveBodies generates the warmed hit set: compiles and simulates of
// PCR and a 2×2 in-vitro diagnostic, so every hit runs the per-request
// synthesis → cache lookup → FTI path and the simulates add the chip
// simulator. The set is the same for every workload seed, which draws
// only the request order and the misses: the designs' annealing seeds
// are fixed, so fti_mean and area_cells_mean compare across workload
// seeds (PCR's area-only FTI ranges 0.21–0.29 between annealing seeds),
// and so is the injected fault, since where it lands sets the cost of
// every simulate of that body (0.23–0.53 ms a hit between faults).
//
// The weights give the compiles (~0.15 ms a hit) three quarters of the
// hits and the simulates (~0.2–0.5 ms) one quarter, so hit_p50_ms lies
// inside the compile class, well away from the boundary between the
// two.
func serveBodies() ([]serveBody, error) {
	pcrSA := func(s int64) server.CompileRequest {
		return server.CompileRequest{Assay: "pcr", Placer: "sa", Seed: s}
	}
	bodies := []serveBody{
		{kind: "compile", weight: 12, req: server.SimulateRequest{CompileRequest: pcrSA(1)}},
		{kind: "compile", weight: 12, req: server.SimulateRequest{CompileRequest: pcrSA(2)}},
		{kind: "compile", weight: 12, req: server.SimulateRequest{CompileRequest: server.CompileRequest{Assay: "pcr", Placer: "greedy"}}},
		{kind: "compile", weight: 12, req: server.SimulateRequest{CompileRequest: server.CompileRequest{
			Assay: "invitro", Samples: 2, Assays: 2, Placer: "greedy"}}},
		{kind: "simulate", weight: 8, req: server.SimulateRequest{CompileRequest: pcrSA(3), Recovery: "l1",
			Faults: []server.FaultRequest{{TimeSec: 5, X: 2, Y: 1}}}},
		{kind: "simulate", weight: 8, req: server.SimulateRequest{CompileRequest: pcrSA(4)}},
	}
	for i := range bodies {
		b, err := json.Marshal(bodies[i].req)
		if err != nil {
			return nil, err
		}
		bodies[i].body = b
	}
	return bodies, nil
}

// serveOrder is the hit sequence the requests cycle through: body i
// appears weight times, in an order shuffled by the seed. Every seed
// thus sends the same mix of hits, and only their order differs.
func serveOrder(seed int64, bodies []serveBody) []int {
	var order []int
	for i, b := range bodies {
		for r := 0; r < b.weight; r++ {
			order = append(order, i)
		}
	}
	rng := rand.New(rand.NewSource(campaign.DeriveSeed(seed, 100)))
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}

// serveMiss reports whether request i of the sequence is a miss.
func serveMiss(i int64) bool { return i%serveMissPeriod == serveMissPeriod-1 }

// serveMissBody is the body of miss request i: PCR annealed with a
// seed no other request uses.
func serveMissBody(seed, i int64) []byte {
	return []byte(fmt.Sprintf(`{"assay":"pcr","placer":"sa","seed":%d}`, campaign.DeriveSeed(seed, 1<<32+uint64(i))))
}

// serveMix serves an in-process server.New(...).Handler() on a real
// loopback listener to a closed loop of one client, which sends its
// next request when the previous reply has arrived, as a CLI or CI
// caller does. One client rather than one per CPU: with two clients
// and their handlers sharing two CPUs, a hit's latency included waiting
// for a CPU, and hit_p50_ms and op_tail_ms spread twice as far from run
// to run (0.15 and 0.22 of the median over four seeds, against 0.07
// and 0.08 with one client). The server keeps one worker per CPU, so a
// miss's anneal and the client's next request do not queue behind each
// other's goroutines. Set-up builds the server and warms the cache with
// one miss per hit body.
type serveMix struct {
	seed     int64
	reg      *telemetry.Registry
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	base     string
	client   *http.Client
	bodies   []serveBody
	order    []int
	designs  []*place.Placement // the warmed bodies' placements
	next     atomic.Int64       // request sequence number
	cur      atomic.Pointer[phase]

	from, to telemetry.Snapshot // server registry around the last phase

	mu      sync.Mutex
	timings map[int64]*reqTiming // traced phase only
}

// reqTiming pairs a request's client round trip with its handler time.
type reqTiming struct {
	clientMS, handlerMS float64
	hit                 bool
}

func (w *serveMix) setup(b *bench) error {
	w.seed = b.seed
	w.reg = telemetry.NewRegistry()
	w.srv = server.New(server.Options{Workers: b.workers, Metrics: w.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.middleware(w.srv.Handler())}
	w.serveErr = make(chan error, 1)
	go func() { w.serveErr <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{
		Transport: &http.Transport{DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	if w.bodies, err = serveBodies(); err != nil {
		return err
	}
	w.order = serveOrder(b.seed, w.bodies)
	w.designs = make([]*place.Placement, len(w.bodies))
	for i := range w.bodies {
		body := &w.bodies[i]
		got, cache, err := w.post(body.kind, body.body, -1, 0)
		if err != nil {
			return fmt.Errorf("warming body %d: %w", i, err)
		}
		if cache != "miss" {
			return fmt.Errorf("warming body %d: cache %q, want miss", i, cache)
		}
		if w.designs[i], err = decodePlacement(got); err != nil {
			return fmt.Errorf("warming body %d: %w", i, err)
		}
		body.want = got
	}
	w.next.Store(0)
	return nil
}

// post sends one request and returns the response body and its
// X-Dmfb-Cache header; any status but 200 is an error.
func (w *serveMix) post(kind string, body []byte, id int64, span telemetry.SpanID) ([]byte, string, error) {
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/"+kind, bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hdrReq, strconv.FormatInt(id, 10))
	if span != 0 {
		req.Header.Set(hdrSpan, strconv.FormatUint(uint64(span), 10))
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(got))
	}
	return got, resp.Header.Get("X-Dmfb-Cache"), nil
}

// decodePlacement extracts and validates the placement of a compile or
// simulate response.
func decodePlacement(body []byte) (*place.Placement, error) {
	var cr server.CompileResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, err
	}
	p, err := format.UnmarshalPlacement(cr.Placement)
	if err != nil {
		return nil, err
	}
	return p, p.Validate()
}

// middleware times the handler of each request of a traced phase and
// records it as a child span of the client's request span.
func (w *serveMix) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		ph := w.cur.Load()
		if ph == nil || ph.tr == nil {
			h.ServeHTTP(rw, r)
			return
		}
		par, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64) // 0 (a root span) if absent
		id, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		sp := ph.tr.StartChild("server.Handler", telemetry.SpanID(par))
		t0 := time.Now()
		h.ServeHTTP(rw, r)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		cache := rw.Header().Get("X-Dmfb-Cache")
		sp.End(telemetry.Fields{"cache": cache})
		w.mu.Lock()
		w.timing(id).handlerMS = ms
		w.mu.Unlock()
	})
}

// timing returns request id's record; w.mu must be held.
func (w *serveMix) timing(id int64) *reqTiming {
	t := w.timings[id]
	if t == nil {
		t = &reqTiming{}
		w.timings[id] = t
	}
	return t
}

func (w *serveMix) run(b *bench, ph *phase) error {
	w.mu.Lock()
	w.timings = make(map[int64]*reqTiming)
	w.mu.Unlock()
	w.from = w.reg.Snapshot()
	w.cur.Store(ph)
	defer w.cur.Store(nil)
	var probed time.Time
	for !ph.expired() {
		if time.Since(probed) >= serveProbeEvery {
			ph.probe.sample()
			probed = time.Now()
		}
		w.request(ph, w.next.Add(1)-1)
	}
	w.to = w.reg.Snapshot()
	return nil
}

// request sends request i of the sequence and checks its reply.
func (w *serveMix) request(ph *phase, i int64) {
	kind, body, want := "compile", serveMissBody(w.seed, i), []byte(nil)
	if !serveMiss(i) {
		hb := w.bodies[w.order[i%int64(len(w.order))]]
		kind, body, want = hb.kind, hb.body, hb.want
	}
	sp := ph.tr.Start("http.request")
	t0 := time.Now()
	got, cache, err := w.post(kind, body, i, sp.ID())
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	sp.End(telemetry.Fields{"cache": cache})
	hit := want != nil
	if err == nil {
		err = checkReply(hit, cache, got, want)
	}
	if err != nil {
		err = fmt.Errorf("request %d: %w", i, err)
	}
	ph.record(ms, hit, err)
	if ph.tr != nil {
		w.mu.Lock()
		t := w.timing(i)
		t.clientMS, t.hit = ms, hit
		w.mu.Unlock()
	}
}

// checkReply requires a hit to be served from the cache byte-identical
// to its warming miss, and a miss to be annealed fresh into a valid
// placement.
func checkReply(hit bool, cache string, got, want []byte) error {
	if hit {
		if cache != "hit" {
			return fmt.Errorf("cache %q, want hit", cache)
		}
		if !bytes.Equal(got, want) {
			return errors.New("hit body differs from the miss body of the same request")
		}
		return nil
	}
	if cache != "miss" {
		return fmt.Errorf("cache %q, want miss", cache)
	}
	_, err := decodePlacement(got)
	return err
}

func (w *serveMix) finish(b *bench) (quality, error) {
	return designQuality(b, w.designs), nil
}

func (w *serveMix) layers(b *bench, ph *phase, spans map[string]spanStat, m metrics) error {
	var hitH, missH, overhead []float64
	w.mu.Lock()
	for _, t := range w.timings {
		if t.clientMS == 0 || t.handlerMS == 0 {
			continue
		}
		if t.hit {
			hitH = append(hitH, t.handlerMS)
		} else {
			missH = append(missH, t.handlerMS)
		}
		overhead = append(overhead, t.clientMS-t.handlerMS)
	}
	w.mu.Unlock()
	m.set("server.handler_hit_ms", median(hitH), "ms")
	m.set("server.handler_miss_ms", median(missH), "ms")
	m.set("http.overhead_ms", median(overhead), "ms")

	d := counterDelta{w.from, w.to}
	m.set("server.rejected", float64(d.counter("server.rejected")), "count")
	if hits, misses := d.counter("pcache.hits"), d.counter("pcache.misses"); hits+misses > 0 {
		m.set("pcache.hit_rate", float64(hits)/float64(hits+misses), "fraction")
	}
	place0, place1 := w.from.Histograms["stage.place_ms"], w.to.Histograms["stage.place_ms"]
	runs := int(place1.Count - place0.Count)
	annealLayers(m, d, "area", "core.stage1", msDuration(place1.Sum-place0.Sum), runs)
	if runs > 0 {
		m.set("anneal.levels", float64(d.counter("anneal.levels"))/float64(runs), "count")
	}
	if err := w.replayHitCalls(m); err != nil {
		return err
	}
	return replayFTILayers(w.designs, m)
}

// replayHitCalls times the public calls a cache hit makes before the
// FTI stage, on the warmed bodies' inputs: synthesis, the cache key
// fingerprint, and decoding the cached placement.
func (w *serveMix) replayHitCalls(m metrics) error {
	var synthD, fpD, unD time.Duration
	n := 0
	for _, body := range w.bodies {
		cr := body.req.CompileRequest
		var s *schedule.Schedule
		var err error
		t0 := time.Now()
		for r := 0; r < replayReps; r++ {
			if cr.Assay == "pcr" {
				s, err = pcr.Schedule()
			} else {
				s, err = invitro.Synthesize(cr.Samples, cr.Assays, cr.Budget)
			}
			if err != nil {
				return err
			}
		}
		synthD += time.Since(t0)
		in := pcache.Input{Schedule: s, Problem: core.FromSchedule(s), Placer: cr.Placer,
			Options: core.Options{Seed: cr.Seed}}
		t0 = time.Now()
		for r := 0; r < replayReps; r++ {
			pcache.Fingerprint(in)
		}
		fpD += time.Since(t0)
		var resp server.CompileResponse
		if err := json.Unmarshal(body.want, &resp); err != nil {
			return err
		}
		t0 = time.Now()
		for r := 0; r < replayReps; r++ {
			if _, err := format.UnmarshalPlacement(resp.Placement); err != nil {
				return err
			}
		}
		unD += time.Since(t0)
		n += replayReps
	}
	m.set("schedule.synth_ms", float64(synthD.Nanoseconds())/1e6/float64(n), "ms")
	m.set("pcache.fingerprint_us", float64(fpD.Nanoseconds())/1e3/float64(n), "us")
	m.set("format.unmarshal_us", float64(unD.Nanoseconds())/1e3/float64(n), "us")
	return nil
}

func (w *serveMix) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Errors here only mean the deadline passed; the process is about
	// to rebuild the server or exit.
	_ = w.hs.Shutdown(ctx)
	<-w.serveErr
	_ = w.srv.Drain(ctx)
	w.client.CloseIdleConnections()
	w.hs = nil
}
