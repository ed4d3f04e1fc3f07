package dmfb

// End-to-end tests of the command-line tools: the binaries are built
// once into a temporary directory and driven the way a user would,
// including the JSON hand-offs between dmfb-synth, dmfb-place,
// dmfb-fti, dmfb-sim and dmfb-test.

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var cliTools = []string{
	"dmfb-synth", "dmfb-place", "dmfb-fti", "dmfb-sim", "dmfb-bench", "dmfb-test", "dmfb-route",
	"dmfb-campaign", "dmfb-report", "dmfb-dispatch", "dmfb-simd",
}

// buildCLI compiles every tool once per test binary invocation.
func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI integration in -short mode")
	}
	dir := t.TempDir()
	for _, tool := range cliTools {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Dir = mustModuleRoot(t)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, msg)
		}
	}
	return dir
}

func mustModuleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func run(t *testing.T, bin string, wantOK bool, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if wantOK && err != nil {
		t.Fatalf("%s %v failed: %v\n%s", filepath.Base(bin), args, err, out)
	}
	if !wantOK && err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", filepath.Base(bin), args, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	schedFile := filepath.Join(work, "schedule.json")
	placeFile := filepath.Join(work, "placement.json")
	svgFile := filepath.Join(work, "placement.svg")

	// synth -> schedule.json
	out := run(t, filepath.Join(bin, "dmfb-synth"), true, "-assay", "pcr", "-o", schedFile)
	if !strings.Contains(out, "makespan 19s") {
		t.Errorf("synth output missing makespan:\n%s", out)
	}
	if _, err := os.Stat(schedFile); err != nil {
		t.Fatal(err)
	}

	// place (two-stage) -> placement.json + svg
	out = run(t, filepath.Join(bin, "dmfb-place"), true,
		"-schedule", schedFile, "-placer", "twostage", "-beta", "40",
		"-o", placeFile, "-svg", svgFile, "-coverage")
	if !strings.Contains(out, "FTI") || !strings.Contains(out, "mm2") {
		t.Errorf("place output missing metrics:\n%s", out)
	}
	svg, err := os.ReadFile(svgFile)
	if err != nil || !strings.HasPrefix(string(svg), "<svg") {
		t.Errorf("SVG not written: %v", err)
	}

	// fti on the produced placement, with verification.
	out = run(t, filepath.Join(bin, "dmfb-fti"), true,
		"-placement", placeFile, "-verify", "-montecarlo", "500")
	if !strings.Contains(out, "exhaustive fault injection") {
		t.Errorf("fti output missing verification:\n%s", out)
	}

	// sim with a fault on the placed design.
	out = run(t, filepath.Join(bin, "dmfb-sim"), true,
		"-schedule", schedFile, "-placement", placeFile, "-fault", "2,1,1")
	if !strings.Contains(out, "assay completed") {
		t.Errorf("sim did not complete:\n%s", out)
	}

	// test a healthy and a faulty array (the latter exits non-zero).
	out = run(t, filepath.Join(bin, "dmfb-test"), true, "-w", "7", "-h", "5")
	if !strings.Contains(out, "PASS") {
		t.Errorf("test output missing PASS:\n%s", out)
	}
	out = run(t, filepath.Join(bin, "dmfb-test"), false, "-w", "7", "-h", "5", "-fault", "3,2")
	if !strings.Contains(out, "FAULT at (3,2)") {
		t.Errorf("fault not localised:\n%s", out)
	}

	// route two droplets around a dead cell.
	out = run(t, filepath.Join(bin, "dmfb-route"), true,
		"-w", "10", "-h", "6", "-d", "0,0:9,0", "-d", "9,5:0,5", "-fault", "5,0")
	if !strings.Contains(out, "actuation program") {
		t.Errorf("route output missing actuation:\n%s", out)
	}
}

func TestCLIBenchSmoke(t *testing.T) {
	bin := buildCLI(t)
	// A fast single experiment; the full suite runs in CI time budgets.
	out := run(t, filepath.Join(bin, "dmfb-bench"), true, "-exp", "fig7")
	if !strings.Contains(out, "141.75 mm2") && !strings.Contains(out, "cells") {
		t.Errorf("bench fig7 output unexpected:\n%s", out)
	}
	out = run(t, filepath.Join(bin, "dmfb-bench"), false, "-exp", "no-such-experiment")
	if !strings.Contains(out, "unknown experiment") {
		t.Errorf("unknown experiment not rejected:\n%s", out)
	}
}

func TestCLICampaign(t *testing.T) {
	bin := buildCLI(t)
	tool := filepath.Join(bin, "dmfb-campaign")
	dir := t.TempDir()

	// Same seed at different worker counts -> identical summary JSON.
	var sums []string
	for _, w := range []string{"1", "4"} {
		jsonPath := filepath.Join(dir, "w"+w+".json")
		out := run(t, tool, true, "-trials", "500", "-seed", "7", "-workers", w,
			"-quiet", "-json", jsonPath)
		if !strings.Contains(out, "Wilson CI") {
			t.Errorf("campaign output missing Wilson interval:\n%s", out)
		}
		var got struct {
			Summary      json.RawMessage `json:"summary"`
			PredictedFTI float64         `json:"predicted_fti"`
			Workers      int             `json:"workers"`
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("campaign JSON invalid: %v\n%s", err, data)
		}
		if got.PredictedFTI <= 0 || got.PredictedFTI > 1 {
			t.Errorf("predicted FTI %v out of range", got.PredictedFTI)
		}
		sums = append(sums, string(got.Summary))
	}
	if sums[0] != sums[1] {
		t.Errorf("summaries differ across worker counts:\n%s\nvs\n%s", sums[0], sums[1])
	}

	// Checkpointed run, then resume over the finished checkpoint:
	// resumed summary must match.
	ckpt := filepath.Join(dir, "run.jsonl")
	jsonA := filepath.Join(dir, "a.json")
	jsonB := filepath.Join(dir, "b.json")
	run(t, tool, true, "-trials", "300", "-seed", "3", "-quiet", "-checkpoint", ckpt, "-json", jsonA)
	out := run(t, tool, true, "-trials", "300", "-seed", "3", "-quiet",
		"-checkpoint", ckpt, "-resume", "-json", jsonB)
	if !strings.Contains(out, "replayed from checkpoint") {
		t.Errorf("resume did not replay the checkpoint:\n%s", out)
	}
	var a, b struct {
		Summary json.RawMessage `json:"summary"`
	}
	da, _ := os.ReadFile(jsonA)
	db, _ := os.ReadFile(jsonB)
	if err := json.Unmarshal(da, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(db, &b); err != nil {
		t.Fatal(err)
	}
	if string(a.Summary) != string(b.Summary) {
		t.Errorf("resumed summary differs:\n%s\nvs\n%s", a.Summary, b.Summary)
	}

	// Error paths: unknown mode, resume without checkpoint.
	run(t, tool, false, "-mode", "bogus")
	run(t, tool, false, "-resume", "-trials", "10")
}

// TestCLICampaignYield drives the defect-map yield surface end to
// end: bad flag combinations exit 2 with a usage hint, from
// dmfb-campaign and from dmfb-dispatch submit alike, and a clustered
// run with spare insertion stays byte-identical across worker counts.
func TestCLICampaignYield(t *testing.T) {
	bin := buildCLI(t)
	tool := filepath.Join(bin, "dmfb-campaign")
	dir := t.TempDir()

	// reject runs one tool and wants exit 2 with the usage hint.
	reject := func(bin string, args ...string) {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "usage:") {
			t.Errorf("%s %v: want exit 2 with a usage hint, got %v:\n%s", filepath.Base(bin), args, err, out)
		}
	}
	// Flag validation: each bad combination must fail before any work
	// starts, or before submit contacts a dispatcher (nothing listens
	// on the -to address), and point the user at the yield usage line.
	badMap := filepath.Join(dir, "bad.map")
	if err := os.WriteFile(badMap, []byte("..?.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := [][]string{
		{"-mode", "yield", "-defect-prob", "0", "-trials", "10"},
		{"-mode", "yield", "-defect-prob", "1", "-trials", "10"},
		{"-mode", "yield", "-defect-model", "bogus", "-trials", "10"},
		{"-mode", "yield", "-defect-model", "file", "-trials", "10"},
		{"-mode", "yield", "-defect-file", "nope.map", "-trials", "10"},
		{"-mode", "yield", "-defect-model", "clustered", "-cluster-size", "999", "-trials", "10"},
		// Zeros that would silently run the defaults (radius 2, place seed 2).
		{"-mode", "yield", "-defect-model", "clustered", "-cluster-radius", "0", "-trials", "10"},
		{"-mode", "yield", "-place-seed", "0", "-trials", "10"},
		// A malformed defect map file.
		{"-mode", "yield", "-defect-model", "file", "-defect-file", badMap, "-trials", "10"},
	}
	for _, args := range bad {
		reject(tool, args...)
		reject(filepath.Join(bin, "dmfb-dispatch"), append([]string{"submit", "-to", "http://127.0.0.1:1"}, args...)...)
	}

	// Clustered defects with a 2-line spare budget: worker counts must
	// not change the summary bytes.
	var sums []string
	for _, w := range []string{"1", "4"} {
		jsonPath := filepath.Join(dir, "yield-w"+w+".json")
		out := run(t, tool, true, "-mode", "yield", "-defect-model", "clustered",
			"-defect-prob", "0.03", "-spares", "2", "-trials", "96", "-seed", "11",
			"-workers", w, "-quiet", "-json", jsonPath)
		if !strings.Contains(out, "yield-clustered-q0.03-s2") {
			t.Errorf("campaign name missing the defect model and spares:\n%s", out)
		}
		var got struct {
			Summary json.RawMessage `json:"summary"`
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("campaign JSON invalid: %v\n%s", err, data)
		}
		sums = append(sums, string(got.Summary))
	}
	if sums[0] != sums[1] {
		t.Errorf("clustered yield summaries differ across worker counts:\n%s\nvs\n%s", sums[0], sums[1])
	}

	// File model: a fixed map makes every trial identical.
	goodMap := filepath.Join(dir, "die.map")
	if err := os.WriteFile(goodMap, []byte("..........\n....X.....\n..........\n..........\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, tool, true, "-mode", "yield", "-defect-model", "file",
		"-defect-file", goodMap, "-trials", "16", "-quiet")
	if !strings.Contains(out, "yield-file") {
		t.Errorf("file-model campaign not named yield-file:\n%s", out)
	}
}

func TestCLIErrorPaths(t *testing.T) {
	bin := buildCLI(t)
	if out := run(t, filepath.Join(bin, "dmfb-synth"), false, "-assay", "warp"); !strings.Contains(out, "unknown assay") {
		t.Errorf("bad assay not rejected:\n%s", out)
	}
	if out := run(t, filepath.Join(bin, "dmfb-place"), false, "-placer", "magic"); !strings.Contains(out, "unknown placer") {
		t.Errorf("bad placer not rejected:\n%s", out)
	}
	run(t, filepath.Join(bin, "dmfb-fti"), false) // missing -placement
	if out := run(t, filepath.Join(bin, "dmfb-route"), false, "-d", "0,0:99,99"); !strings.Contains(out, "off array") {
		t.Errorf("bad endpoint not rejected:\n%s", out)
	}
}

// TestCLITelemetryFlags exercises the shared -trace/-metrics/-profile
// observability surface end to end: the trace must be valid JSONL
// with at least one span per annealing temperature level, and the
// span count must agree with the anneal.levels counter in the metrics
// snapshot.
func TestCLITelemetryFlags(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	tracePath := filepath.Join(work, "trace.jsonl")
	metricsPath := filepath.Join(work, "metrics.json")
	profileDir := filepath.Join(work, "prof")

	run(t, filepath.Join(bin, "dmfb-place"), true,
		"-trace", tracePath, "-metrics", metricsPath, "-profile", profileDir)

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	levelSpans := 0
	lastSeq := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Seq  int    `json:"seq"`
			Kind string `json:"kind"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace is not valid JSONL at %q: %v", line, err)
		}
		if rec.Seq != lastSeq+1 {
			t.Fatalf("seq jumped from %d to %d", lastSeq, rec.Seq)
		}
		lastSeq = rec.Seq
		if rec.Kind == "span" && rec.Name == "anneal.level" {
			levelSpans++
		}
	}
	if levelSpans == 0 {
		t.Fatal("no anneal.level spans in trace")
	}

	mraw, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64   `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(mraw, &snap); err != nil {
		t.Fatalf("metrics not valid JSON: %v\n%s", err, mraw)
	}
	if got := snap.Counters["anneal.levels"]; got != int64(levelSpans) {
		t.Errorf("anneal.levels counter %d != %d anneal.level spans", got, levelSpans)
	}
	if snap.Gauges["place.array_cells"] <= 0 {
		t.Errorf("place.array_cells gauge = %v, want > 0", snap.Gauges["place.array_cells"])
	}
	u := snap.Gauges["place.utilization"]
	if u <= 0 || u > 1 {
		t.Errorf("place.utilization gauge = %v, want in (0,1]", u)
	}

	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(profileDir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", name, err)
		}
	}
}

// TestCLIOpsEndpoints starts a campaign with -ops :0, reads the
// resolved address off stderr and polls the live endpoints mid-run;
// it then checks enabling -ops left the deterministic summary
// untouched.
func TestCLIOpsEndpoints(t *testing.T) {
	bin := buildCLI(t)
	tool := filepath.Join(bin, "dmfb-campaign")
	dir := t.TempDir()
	jsonOps := filepath.Join(dir, "ops.json")
	jsonPlain := filepath.Join(dir, "plain.json")

	cmd := exec.Command(tool, "-mode", "assay", "-trials", "3000", "-seed", "5",
		"-quiet", "-ops", "127.0.0.1:0", "-json", jsonOps)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The listening line is the session's first stderr output, printed
	// before the (slow) placement anneal, so the server is pollable
	// for the whole run.
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		if _, rest, ok := strings.Cut(sc.Text(), "ops listening on http://"); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatalf("no ops listening line on stderr (scan err: %v)", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	httpGet := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := httpGet("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	// The progress source is wired once the campaign engine starts,
	// after the placement anneal — poll until it appears.
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body := httpGet("/progress")
		if code != 200 || !strings.Contains(body, `"tool": "dmfb-campaign"`) {
			t.Fatalf("/progress = %d:\n%s", code, body)
		}
		if strings.Contains(body, `"total": 3000`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/progress never exposed the campaign tracker:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if code, body := httpGet("/metrics"); code != 200 ||
		!strings.Contains(body, "dmfb_process_goroutines") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}

	if err := cmd.Wait(); err != nil {
		t.Fatalf("campaign with -ops failed: %v", err)
	}

	// Same seed without -ops: the summary must be byte-identical.
	run(t, tool, true, "-mode", "assay", "-trials", "3000", "-seed", "5",
		"-quiet", "-json", jsonPlain)
	var withOps, plain struct {
		Summary json.RawMessage `json:"summary"`
	}
	da, err := os.ReadFile(jsonOps)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(jsonPlain)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(da, &withOps); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(db, &plain); err != nil {
		t.Fatal(err)
	}
	if string(withOps.Summary) != string(plain.Summary) {
		t.Errorf("-ops changed the summary:\n%s\nvs\n%s", withOps.Summary, plain.Summary)
	}
}

// TestCLIReport runs a campaign with every observability sink on and
// feeds the artefacts to dmfb-report.
func TestCLIReport(t *testing.T) {
	bin := buildCLI(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	metricsPath := filepath.Join(dir, "m.json")
	ckptPath := filepath.Join(dir, "c.jsonl")

	run(t, filepath.Join(bin, "dmfb-campaign"), true, "-mode", "assay", "-recovery", "ladder",
		"-trials", "200", "-quiet",
		"-trace", tracePath, "-metrics", metricsPath, "-checkpoint", ckptPath)
	out := run(t, filepath.Join(bin, "dmfb-report"), true,
		"-trace", tracePath, "-metrics", metricsPath, "-checkpoint", ckptPath)
	for _, want := range []string{
		"== stage timing",
		"tool.run",
		"campaign.trial",
		"sim.run",
		"top counters:",
		"campaign.trial_ms",
		"== campaign checkpoint",
		"200/200 trials recorded",
		"Wilson CI",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The trace tree must show the campaign hierarchy nested, i.e.
	// campaign.trial indented under campaign.run. Only the stage
	// timing section counts — the metrics tables list the same span
	// names flat.
	tree, _, _ := strings.Cut(out, "== metrics")
	var trialIndent, runIndent int
	for _, line := range strings.Split(tree, "\n") {
		trimmed := strings.TrimLeft(line, " ")
		if strings.HasPrefix(trimmed, "campaign.trial ") {
			trialIndent = len(line) - len(trimmed)
		}
		if strings.HasPrefix(trimmed, "campaign.run ") {
			runIndent = len(line) - len(trimmed)
		}
	}
	if trialIndent <= runIndent {
		t.Errorf("campaign.trial (indent %d) not nested under campaign.run (indent %d):\n%s",
			trialIndent, runIndent, out)
	}

	run(t, filepath.Join(bin, "dmfb-report"), false) // no inputs
}

// TestCLIBenchJSON checks the machine-readable benchmark output.
func TestCLIBenchJSON(t *testing.T) {
	bin := buildCLI(t)
	jsonPath := filepath.Join(t.TempDir(), "results.json")
	run(t, filepath.Join(bin, "dmfb-bench"), true, "-exp", "table1", "-json", jsonPath)

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Experiment   string  `json:"experiment"`
		DurationMS   float64 `json:"duration_ms"`
		Measurements []struct {
			Name     string  `json:"name"`
			Measured float64 `json:"measured"`
			Paper    float64 `json:"paper"`
		} `json:"measurements"`
	}
	if err := json.Unmarshal(raw, &results); err != nil {
		t.Fatalf("bench JSON invalid: %v\n%s", err, raw)
	}
	if len(results) != 1 || results[0].Experiment != "table1" {
		t.Fatalf("results = %+v, want one table1 entry", results)
	}
	if results[0].DurationMS <= 0 {
		t.Error("duration_ms not positive")
	}
	found := false
	for _, m := range results[0].Measurements {
		if m.Name == "bound_operations" && m.Measured == 7 && m.Paper == 7 {
			found = true
		}
	}
	if !found {
		t.Errorf("bound_operations measurement missing: %+v", results[0].Measurements)
	}
}

// TestCLISimTrace cross-checks dmfb-sim's trace against its printed
// event log: every printed event line must have a sim.* trace record.
func TestCLISimTrace(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	tracePath := filepath.Join(work, "trace.jsonl")

	out := run(t, filepath.Join(bin, "dmfb-sim"), true, "-trace", tracePath)
	printed := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "  t=") {
			printed++
		}
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	traced := 0
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("invalid trace line %q: %v", line, err)
		}
		if rec.Kind == "event" && strings.HasPrefix(rec.Name, "sim.") {
			traced++
		}
	}
	if printed == 0 || traced != printed {
		t.Errorf("printed %d event lines but traced %d sim events", printed, traced)
	}
	if !strings.Contains(string(raw), `"name":"sim.run"`) {
		t.Error("no sim.run span in trace")
	}
}
