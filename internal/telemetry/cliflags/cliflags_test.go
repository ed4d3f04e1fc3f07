package cliflags

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dmfb/internal/telemetry"
)

func TestRegisterOnAndStartInert(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := RegisterOn(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	ts, err := cfg.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Tracer != nil || ts.Metrics != nil {
		t.Error("inert session has live sinks")
	}
	ts.Tracer.Start("noop").End(nil) // must not panic with nil sinks
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionWritesTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	metricsPath := filepath.Join(dir, "metrics.json")

	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := RegisterOn(fs)
	if err := fs.Parse([]string{"-trace", tracePath, "-metrics", metricsPath}); err != nil {
		t.Fatal(err)
	}
	ts, err := cfg.Start("dmfb-test")
	if err != nil {
		t.Fatal(err)
	}
	if ts.Tracer == nil || ts.Metrics == nil {
		t.Fatal("sinks not opened")
	}
	ts.Metrics.Counter("work.items").Add(3)
	span := ts.Tracer.Start("stage.work")
	time.Sleep(time.Millisecond)
	span.End(nil)
	ts.Metrics.Histogram("stage.work_ms", telemetry.LatencyBuckets...).Observe(1)
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid trace line %q: %v", line, err)
		}
	}
	text := string(raw)
	for _, want := range []string{`"tool.start"`, `"stage.work"`, `"tool.run"`} {
		if !strings.Contains(text, want) {
			t.Errorf("trace missing %s:\n%s", want, text)
		}
	}

	mraw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Histograms map[string]map[string]any `json:"histograms"`
		Spans      map[string]any            `json:"spans"`
	}
	if err := json.Unmarshal(mraw, &snap); err != nil {
		t.Fatalf("invalid metrics JSON: %v\n%s", err, mraw)
	}
	if snap.Counters["work.items"] != 3 {
		t.Errorf("work.items = %d, want 3", snap.Counters["work.items"])
	}
	if _, ok := snap.Histograms["stage.work_ms"]; !ok {
		t.Errorf("no stage.work_ms histogram: %s", mraw)
	}
	if _, ok := snap.Spans["stage.work"]; !ok {
		t.Errorf("no stage.work span summary: %s", mraw)
	}
}

func TestSessionProfileCapture(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := RegisterOn(fs)
	if err := fs.Parse([]string{"-profile", filepath.Join(dir, "prof")}); err != nil {
		t.Fatal(err)
	}
	ts, err := cfg.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		fi, err := os.Stat(filepath.Join(dir, "prof", name))
		if err != nil {
			t.Errorf("%s not written: %v", name, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

func TestStartFailsOnBadTracePath(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := RegisterOn(fs)
	bad := filepath.Join(t.TempDir(), "missing-dir", "trace.jsonl")
	if err := fs.Parse([]string{"-trace", bad}); err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Start("tool"); err == nil {
		t.Error("Start succeeded with an uncreatable trace path")
	}
}

func TestNilSessionSafe(t *testing.T) {
	var ts *Session
	ts.SetProgress(func() any { return nil })
	if ts.Ops() != nil {
		t.Error("nil session has an ops server")
	}
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFlagMatrix drives Start across the flag combination space and
// checks exactly the requested sinks come up.
func TestFlagMatrix(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name             string
		args             func(i int) []string
		tracer, registry bool
		ops              bool
	}{
		{"none", func(int) []string { return nil }, false, false, false},
		{"trace only", func(i int) []string {
			return []string{"-trace", filepath.Join(dir, fmt.Sprintf("t%d.jsonl", i))}
		}, true, false, false},
		{"metrics only", func(i int) []string {
			return []string{"-metrics", filepath.Join(dir, fmt.Sprintf("m%d.json", i))}
		}, false, true, false},
		{"ops only", func(int) []string {
			return []string{"-ops", "127.0.0.1:0"}
		}, false, true, true}, // -ops implies a registry
		{"empty values are off", func(int) []string {
			return []string{"-trace", "", "-metrics", "", "-ops", ""}
		}, false, false, false},
		{"everything", func(i int) []string {
			return []string{
				"-trace", filepath.Join(dir, fmt.Sprintf("at%d.jsonl", i)),
				"-metrics", filepath.Join(dir, fmt.Sprintf("am%d.json", i)),
				"-ops", "127.0.0.1:0",
			}
		}, true, true, true},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			cfg := RegisterOn(fs)
			if err := fs.Parse(tc.args(i)); err != nil {
				t.Fatal(err)
			}
			ts, err := cfg.Start("tool")
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := ts.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			if got := ts.Tracer != nil; got != tc.tracer {
				t.Errorf("tracer live = %v, want %v", got, tc.tracer)
			}
			if got := ts.Metrics != nil; got != tc.registry {
				t.Errorf("registry live = %v, want %v", got, tc.registry)
			}
			if got := ts.Ops() != nil; got != tc.ops {
				t.Errorf("ops server live = %v, want %v", got, tc.ops)
			}
		})
	}
}

// TestStartFailsOnBadOpsAddr covers malformed and unbindable -ops
// values; Start must fail cleanly rather than serve nothing.
func TestStartFailsOnBadOpsAddr(t *testing.T) {
	for _, addr := range []string{"not an address", "256.0.0.1:80", "127.0.0.1:99999"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		cfg := RegisterOn(fs)
		if err := fs.Parse([]string{"-ops", addr}); err != nil {
			t.Fatal(err)
		}
		if _, err := cfg.Start("tool"); err == nil {
			t.Errorf("Start succeeded with -ops %q", addr)
		}
	}
}

func TestSessionOpsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := RegisterOn(fs)
	if err := fs.Parse([]string{"-ops", "127.0.0.1:0", "-metrics", filepath.Join(dir, "m.json")}); err != nil {
		t.Fatal(err)
	}
	ts, err := cfg.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	ts.Metrics.Counter("work.items").Add(9)
	ts.SetProgress(func() any { return map[string]int{"done": 1} })

	url := ts.Ops().URL()
	for path, want := range map[string]string{
		"/healthz":  "ok",
		"/metrics":  "dmfb_work_items 9",
		"/progress": `"done": 1`,
	} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s = %d, missing %q:\n%s", path, resp.StatusCode, want, body)
		}
	}

	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Error("ops server still serving after Close")
	}
	if _, err := os.Stat(filepath.Join(dir, "m.json")); err != nil {
		t.Errorf("metrics snapshot not written on Close: %v", err)
	}
}

// TestFlushPersistsMidRun checks a Flush mid-session leaves a readable
// metrics snapshot and a synced trace without ending the session.
func TestFlushPersistsMidRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "m.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg := RegisterOn(fs)
	if err := fs.Parse([]string{"-trace", tracePath, "-metrics", metricsPath}); err != nil {
		t.Fatal(err)
	}
	ts, err := cfg.Start("tool")
	if err != nil {
		t.Fatal(err)
	}
	ts.Metrics.Counter("work.items").Add(4)
	ts.Tracer.Event("work.tick", nil)
	if err := ts.Flush(); err != nil {
		t.Fatal(err)
	}

	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("flushed metrics invalid: %v\n%s", err, data)
	}
	if snap.Counters["work.items"] != 4 {
		t.Errorf("flushed work.items = %d, want 4", snap.Counters["work.items"])
	}
	traced, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(traced), "work.tick") {
		t.Errorf("flushed trace missing work.tick:\n%s", traced)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
}
