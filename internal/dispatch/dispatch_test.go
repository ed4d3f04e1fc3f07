package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dmfb/internal/campaign"
	"dmfb/internal/telemetry"
)

// syntheticBuild is the test build seam: a cheap deterministic trial
// function (no synthesis, no annealing) that still depends on the
// per-trial RNG stream, so byte-identity claims are meaningful.
func syntheticBuild(_ context.Context, sp Spec) (*Built, error) {
	return &Built{
		Fn: func(_ context.Context, t campaign.Trial) campaign.Outcome {
			v := t.RNG.Float64()
			return campaign.Outcome{Survived: v < 0.6, Value: float64(t.RNG.Intn(5))}
		},
		Trials: sp.Trials,
	}, nil
}

// testSpec is the campaign the unit tests submit.
func testSpec(trials int) Spec {
	return Spec{Mode: "assay", K: 1, Trials: trials, Seed: 5, Recovery: "l1"}
}

// referenceSummary is the single-process engine's deterministic bytes
// for sp under the synthetic trial function.
func referenceSummary(t *testing.T, sp Spec) []byte {
	t.Helper()
	b, err := syntheticBuild(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(context.Background(), campaign.Config{
		Name: sp.Name(), Trials: sp.Trials, Seed: sp.Seed, Workers: 1,
	}, b.Fn)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.Summary.MarshalDeterministic()
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// testClock is the injectable lease clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	return &testClock{t: time.Unix(1000, 0)}
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestDispatcher builds a dispatcher + HTTP server + client wired
// to a manual clock.
func newTestDispatcher(t *testing.T, opts Options) (*Dispatcher, *Client, *testClock) {
	t.Helper()
	d, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	clock := newTestClock()
	d.now = clock.now
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return d, NewClient(srv.URL, srv.Client()), clock
}

// drainCampaign plays a minimal worker by hand: lease, run, report,
// until the dispatcher has no work left. Returns how many leases it
// served.
func drainCampaign(t *testing.T, c *Client, worker string) int {
	t.Helper()
	ctx := context.Background()
	served := 0
	for {
		l, ok, err := c.Lease(ctx, worker)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if !ok {
			return served
		}
		served++
		b, err := syntheticBuild(ctx, l.Spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.RunRange(ctx, campaign.Config{
			Name: l.Name, Trials: b.Trials, Seed: l.Spec.Seed, Workers: 1,
		}, b.Fn, l.Lo, l.Hi)
		if err != nil {
			t.Fatalf("run range: %v", err)
		}
		if _, err := c.Results(ctx, ResultsRequest{
			CampaignID: l.CampaignID, LeaseID: l.LeaseID, Results: res, Complete: true,
		}); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
}

func TestDispatchLifecycleByteIdentity(t *testing.T) {
	_, client, _ := newTestDispatcher(t, Options{Chunk: 16})
	ctx := context.Background()
	sp := testSpec(100)

	sub, err := client.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if sub.ID == "" || sub.Name != "assay-k1-l1" || sub.Trials != 100 || sub.State != "queued" {
		t.Fatalf("unexpected submit response: %+v", sub)
	}

	if _, err := client.Summary(ctx, sub.ID); !IsStatus(err, http.StatusConflict) {
		t.Errorf("summary before completion: want 409, got %v", err)
	}

	if served := drainCampaign(t, client, "w1"); served != 7 { // ceil(100/16)
		t.Errorf("served %d leases, want 7", served)
	}

	st, err := client.Status(ctx, sub.ID)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	if st.State != "done" || st.Done != 100 || st.PendingChunks != 0 || st.LeasedChunks != 0 {
		t.Fatalf("unexpected final status: %+v", st)
	}
	if st.Summary == nil {
		t.Fatal("final status has no summary")
	}

	got, err := client.Summary(ctx, sub.ID)
	if err != nil {
		t.Fatalf("summary: %v", err)
	}
	if want := referenceSummary(t, sp); string(got) != string(want) {
		t.Errorf("distributed summary differs from single-process:\n got %s\nwant %s", got, want)
	}
}

func TestDispatchLeaseExpiryReissue(t *testing.T) {
	d, client, clock := newTestDispatcher(t, Options{Chunk: 32, LeaseTTL: 10 * time.Second})
	ctx := context.Background()
	sub, err := client.Submit(ctx, testSpec(64))
	if err != nil {
		t.Fatal(err)
	}

	// Worker w1 takes a lease and dies silently.
	l1, ok, err := client.Lease(ctx, "w1")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}

	// Before the TTL, the chunk is not re-issued to others: w2 gets the
	// second chunk, then nothing.
	l2, ok, err := client.Lease(ctx, "w2")
	if err != nil || !ok {
		t.Fatalf("second lease: ok=%v err=%v", ok, err)
	}
	if l2.Lo == l1.Lo {
		t.Fatalf("chunk [%d,%d) double-leased while live", l1.Lo, l1.Hi)
	}
	if _, ok, _ := client.Lease(ctx, "w2"); ok {
		t.Fatal("third lease granted but only two chunks exist")
	}

	// Heartbeats keep l2 alive across the TTL; l1 expires.
	clock.advance(6 * time.Second)
	if err := client.Heartbeat(ctx, l2.LeaseID); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	clock.advance(6 * time.Second)

	l3, ok, err := client.Lease(ctx, "w2")
	if err != nil || !ok {
		t.Fatalf("re-issued lease: ok=%v err=%v", ok, err)
	}
	if l3.Lo != l1.Lo || l3.Hi != l1.Hi {
		t.Fatalf("re-issued [%d,%d), want w1's [%d,%d)", l3.Lo, l3.Hi, l1.Lo, l1.Hi)
	}
	if err := client.Heartbeat(ctx, l1.LeaseID); !IsStatus(err, http.StatusGone) {
		t.Errorf("heartbeat on expired lease: want 410, got %v", err)
	}
	if n := d.reg.Counter("dispatch.leases_expired").Value(); n != 1 {
		t.Errorf("leases_expired = %d, want 1", n)
	}

	// The zombie w1 still reports its range — accepted (identical bytes
	// by determinism), and the campaign completes without w2's copy.
	b, _ := syntheticBuild(ctx, l1.Spec)
	res, err := campaign.RunRange(ctx, campaign.Config{
		Name: l1.Name, Trials: b.Trials, Seed: l1.Spec.Seed, Workers: 1,
	}, b.Fn, l1.Lo, l1.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Results(ctx, ResultsRequest{
		CampaignID: l1.CampaignID, LeaseID: l1.LeaseID, Results: res, Complete: true,
	}); err != nil {
		t.Fatalf("zombie report: %v", err)
	}
	// w2 finishes its live lease; everything is now recorded.
	b2, _ := syntheticBuild(ctx, l2.Spec)
	res2, err := campaign.RunRange(ctx, campaign.Config{
		Name: l2.Name, Trials: b2.Trials, Seed: l2.Spec.Seed, Workers: 1,
	}, b2.Fn, l2.Lo, l2.Hi)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Results(ctx, ResultsRequest{
		CampaignID: l2.CampaignID, LeaseID: l2.LeaseID, Results: res2, Complete: true,
	})
	if err != nil {
		t.Fatalf("w2 report: %v", err)
	}
	if resp.State != "done" {
		t.Fatalf("state %q after all ranges reported, want done", resp.State)
	}
	got, err := client.Summary(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceSummary(t, testSpec(64)); string(got) != string(want) {
		t.Errorf("summary after expiry/re-issue differs:\n got %s\nwant %s", got, want)
	}
}

func TestDispatchAdmissionControl(t *testing.T) {
	_, client, _ := newTestDispatcher(t, Options{Chunk: 16, MaxCampaigns: 1})
	ctx := context.Background()
	if _, err := client.Submit(ctx, testSpec(32)); err != nil {
		t.Fatal(err)
	}
	_, err := client.Submit(ctx, testSpec(32))
	if !IsStatus(err, http.StatusTooManyRequests) {
		t.Fatalf("second submit: want 429, got %v", err)
	}
	drainCampaign(t, client, "w1")
	if _, err := client.Submit(ctx, testSpec(32)); err != nil {
		t.Fatalf("submit after completion: %v", err)
	}
}

func TestDispatchRejectsBadSpecs(t *testing.T) {
	_, client, _ := newTestDispatcher(t, Options{})
	ctx := context.Background()
	cases := []Spec{
		{Mode: "exhaustive", Trials: 10, Seed: 1},
		{Mode: "nonsense", Trials: 10, Seed: 1},
		{Mode: "assay", Trials: 0, Seed: 1},
		{Mode: "assay", Trials: 10, Seed: 1, Recovery: "bogus"},
	}
	for _, sp := range cases {
		if _, err := client.Submit(ctx, sp); !IsStatus(err, http.StatusBadRequest) {
			t.Errorf("spec %+v: want 400, got %v", sp, err)
		}
	}
	if _, err := client.Status(ctx, "c999999"); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("unknown campaign: want 404, got %v", err)
	}
}

// TestDispatchRejectsOverCapSpec: a spec past the trial cap (or with
// a transient probability outside [0,1]) is a 400 before the
// dispatcher allocates its per-trial table, and the dispatcher keeps
// serving. Without the cap the 2^40-trial POST exhausts memory.
func TestDispatchRejectsOverCapSpec(t *testing.T) {
	d, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := d.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	for _, body := range []string{
		`{"mode":"multi","trials":1099511627776}`,
		fmt.Sprintf(`{"mode":"multi","trials":%d}`, MaxTrials+1),
		`{"mode":"assay","trials":8,"transient":7}`,
	} {
		resp, err := srv.Client().Post(srv.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	all, err := NewClient(srv.URL, srv.Client()).List(context.Background())
	if err != nil || len(all) != 0 {
		t.Errorf("GET /v1/campaigns after rejections: %v, %d campaigns", err, len(all))
	}
}

func TestDispatchWorkerBuildFailureFailsCampaign(t *testing.T) {
	_, client, _ := newTestDispatcher(t, Options{Chunk: 16})
	ctx := context.Background()
	sub, err := client.Submit(ctx, testSpec(32))
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := client.Lease(ctx, "w1")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	if _, err := client.Results(ctx, ResultsRequest{
		CampaignID: l.CampaignID, LeaseID: l.LeaseID,
		Error: "worker w1: build campaign: synthesis exploded",
	}); err != nil {
		t.Fatal(err)
	}
	st, err := client.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Failure, "synthesis exploded") {
		t.Fatalf("status after build failure: %+v", st)
	}
	if _, ok, _ := client.Lease(ctx, "w2"); ok {
		t.Error("failed campaign still leasing work")
	}
	// Admission slot was released: a replacement campaign fits.
	if _, err := client.Submit(ctx, testSpec(16)); err != nil {
		t.Fatalf("submit after failure: %v", err)
	}
}

// A results batch is applied all or nothing: one out-of-range trial
// rejects the whole batch with 400 before any of its in-range trials
// is recorded, logged, counted or allowed to finish the campaign.
func TestDispatchResultsBatchAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	d, client, _ := newTestDispatcher(t, Options{StateDir: dir, Chunk: 16})
	ctx := context.Background()
	sp := testSpec(16)
	sub, err := client.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	l, ok, err := client.Lease(ctx, "w1")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	b, _ := syntheticBuild(ctx, l.Spec)
	res, err := campaign.RunRange(ctx, campaign.Config{
		Name: l.Name, Trials: b.Trials, Seed: l.Spec.Seed, Workers: 1,
	}, b.Fn, l.Lo, l.Hi)
	if err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, sub.ID+".jsonl")
	logBefore, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Every trial of the campaign, then one past its end.
	mixed := append(append([]campaign.TrialResult(nil), res...), campaign.TrialResult{Trial: sp.Trials})
	_, err = client.Results(ctx, ResultsRequest{
		CampaignID: l.CampaignID, LeaseID: l.LeaseID, Results: mixed, Complete: true,
	})
	if !IsStatus(err, http.StatusBadRequest) {
		t.Fatalf("mixed batch: want 400, got %v", err)
	}
	st, err := client.Status(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 0 || st.State != "running" || st.Summary != nil {
		t.Errorf("rejected batch changed the campaign: done %d, state %q", st.Done, st.State)
	}
	if logAfter, err := os.ReadFile(logPath); err != nil || string(logAfter) != string(logBefore) {
		t.Errorf("rejected batch reached the result log (err %v):\n%s", err, logAfter)
	}
	for _, name := range []string{"dispatch.results_recorded", "dispatch.campaigns_completed"} {
		if n := d.reg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d after a rejected batch, want 0", name, n)
		}
	}

	// The valid part alone is accepted and finishes the campaign.
	resp, err := client.Results(ctx, ResultsRequest{
		CampaignID: l.CampaignID, LeaseID: l.LeaseID, Results: res, Complete: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != sp.Trials || resp.State != "done" {
		t.Fatalf("valid batch: %+v", resp)
	}
	got, err := client.Summary(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceSummary(t, sp); string(got) != string(want) {
		t.Errorf("summary differs:\n got %s\nwant %s", got, want)
	}
}

func TestDispatchPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	d1, err := New(Options{StateDir: dir, Chunk: 16, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(d1.Handler())
	client1 := NewClient(srv1.URL, srv1.Client())
	ctx := context.Background()
	sp := testSpec(64)
	sub, err := client1.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}

	// Record the first chunk only, then kill the dispatcher.
	l, ok, err := client1.Lease(ctx, "w1")
	if err != nil || !ok {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	b, _ := syntheticBuild(ctx, l.Spec)
	res, err := campaign.RunRange(ctx, campaign.Config{
		Name: l.Name, Trials: b.Trials, Seed: l.Spec.Seed, Workers: 1,
	}, b.Fn, l.Lo, l.Hi)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client1.Results(ctx, ResultsRequest{
		CampaignID: l.CampaignID, LeaseID: l.LeaseID, Results: res, Complete: true,
	}); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same state dir: the campaign resumes with
	// exactly the unrecorded chunks pending.
	d2, err := New(Options{StateDir: dir, Chunk: 16})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	defer d2.Close()
	client2 := NewClient(srv2.URL, srv2.Client())

	st, err := client2.Status(ctx, sub.ID)
	if err != nil {
		t.Fatalf("status after restart: %v", err)
	}
	if st.State != "running" || st.Done != 16 || st.PendingChunks != 3 {
		t.Fatalf("restarted status: %+v", st)
	}
	if served := drainCampaign(t, client2, "w2"); served != 3 {
		t.Errorf("served %d leases after restart, want 3", served)
	}
	got, err := client2.Summary(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceSummary(t, sp); string(got) != string(want) {
		t.Errorf("summary after restart differs:\n got %s\nwant %s", got, want)
	}

	// A second campaign gets a fresh id, not a recycled one.
	sub2, err := client2.Submit(ctx, testSpec(16))
	if err != nil {
		t.Fatal(err)
	}
	if sub2.ID == sub.ID {
		t.Errorf("campaign id %s reused after restart", sub2.ID)
	}
}

func TestDispatchRestartCompletedCampaignServesSameBytes(t *testing.T) {
	dir := t.TempDir()
	d1, err := New(Options{StateDir: dir, Chunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(d1.Handler())
	client1 := NewClient(srv1.URL, srv1.Client())
	ctx := context.Background()
	sp := testSpec(48)
	sub, err := client1.Submit(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	drainCampaign(t, client1, "w1")
	want, err := client1.Summary(ctx, sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := New(Options{StateDir: dir, Chunk: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(d2.Handler())
	defer srv2.Close()
	defer d2.Close()
	got, err := NewClient(srv2.URL, srv2.Client()).Summary(ctx, sub.ID)
	if err != nil {
		t.Fatalf("summary after restart: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("restarted dispatcher serves different summary bytes:\n got %s\nwant %s", got, want)
	}
}
