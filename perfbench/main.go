// Command perfbench is the repository's end-to-end benchmark. It drives
// the placement, fault-tolerance, campaign and serving layers through
// their public functions, generates every input from the workload seed,
// checks the outputs, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload pcr-table2 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, taken from spans the
// benchmark records around each call into a layer (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run repeats its workload's set-up;
// setup_s is the median, so the first, cold repetition and one or two
// slow ones cannot move it.
const setupReps = 7

// traceDir holds the traced runs' span files, relative to the working
// directory (the repository root).
const traceDir = ".bench_build/perfbench"

// workload is one benchmark traffic shape.
type workload interface {
	// setup does the deterministic work that precedes the timed phase.
	// It is called setupReps times; each call starts from scratch and
	// the last call's state is what the timed phase uses.
	setup(b *bench) error
	// run executes ops until the phase's deadline has passed and every
	// input of the workload's pool has run at least once.
	run(b *bench, ph *phase) error
	// finish runs the correctness gate on the pool's outputs and
	// returns the design-quality figures.
	finish(b *bench) (quality, error)
	// layers adds the per-layer metrics of a traced phase, whose spans
	// are summarised by name in spans, to m.
	layers(b *bench, ph *phase, spans map[string]spanStat, m metrics) error
	// close releases what setup acquired (servers, listeners).
	close()
}

// quality holds the seed-determined output figures of a workload's
// pool: they repeat exactly for a fixed seed.
type quality struct {
	FTIMean      float64
	AreaMean     float64
	SurvivalRate float64
}

// bench is the state shared by every phase of one run.
type bench struct {
	seed    int64
	workers int // campaign workers, server workers and HTTP clients
	gate    gate
	details map[string]any // printed on the line before the result
}

// gate counts the correctness checks made outside the timed ops.
type gate struct {
	checks   int
	failures []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.checks++
	if !ok {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func() workload{
	"pcr-table2":     func() workload { return &pcrTable2{} },
	"invitro-area":   func() workload { return &invitroArea{} },
	"assay-campaign": func() workload { return &assayCampaign{} },
	"serve-mix":      func() workload { return &serveMix{} },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: pcr-table2, invitro-area, assay-campaign or serve-mix")
	seed := fs.Int64("seed", 1, "workload seed; every input derives from it")
	seconds := fs.Float64("seconds", 30, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newWL, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload (one of %v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := execute(*name, newWL(), *seed, *seconds, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", *name, f)
	}
	ctxLine, err := json.Marshal(res.details)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", ctxLine, out)
	if !res.result.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type outcome struct {
	result   result
	details  map[string]any
	failures []string
}

func execute(name string, wl workload, seed int64, seconds float64, traced bool, stderr io.Writer) (outcome, error) {
	b := &bench{seed: seed, workers: runtime.NumCPU(), details: map[string]any{
		"context":  hardwareContext(runtime.NumCPU()),
		"workload": name,
		"seed":     seed,
		"seconds":  seconds,
	}}
	details := b.details
	defer wl.close()

	setup := make([]float64, setupReps)
	var setupProbe hostProbe
	for r := range setup {
		wl.close()
		setupProbe.sampleAll(b.workers)
		t0 := time.Now()
		if err := wl.setup(b); err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setup[r] = time.Since(t0).Seconds()
	}
	setupProbe.sampleAll(b.workers)

	details["setup_s_values"] = setup
	m := metrics{}
	var phases []*phase
	if !traced {
		ph := newPhase(seconds, false)
		if err := ph.measure(func() error { return wl.run(b, ph) }); err != nil {
			return outcome{}, err
		}
		phases = append(phases, ph)
		q, err := wl.finish(b)
		if err != nil {
			return outcome{}, err
		}
		if err := endToEnd(m, ph, q, median(setup), setupProbe.slowdown(), details); err != nil {
			return outcome{}, err
		}
	} else {
		// The untraced half is the baseline of trace.overhead_frac.
		base := newPhase(seconds/2, false)
		if err := base.measure(func() error { return wl.run(b, base) }); err != nil {
			return outcome{}, err
		}
		ph := newPhase(seconds/2, true)
		if err := ph.measure(func() error { return wl.run(b, ph) }); err != nil {
			return outcome{}, err
		}
		phases = append(phases, base, ph)
		if _, err := wl.finish(b); err != nil {
			return outcome{}, err
		}
		spans, err := ph.spanTable()
		if err != nil {
			return outcome{}, err
		}
		details["spans"] = spans
		for _, l := range perLayerNames {
			m.set(l.name, 0, l.unit)
		}
		if err := wl.layers(b, ph, spans, m); err != nil {
			return outcome{}, err
		}
		ph.runtimeLayers(m)
		m.set("trace.overhead_frac", ph.throughput()*ph.probe.slowdown()/(base.throughput()*base.probe.slowdown()), "fraction")
		path, err := writeTrace(ph, name, seed)
		if err != nil {
			return outcome{}, err
		}
		details["trace_file"] = path
		fmt.Fprintf(stderr, "perfbench: trace written to %s (render with dmfb-report -trace)\n", path)
	}

	res := result{Metrics: m}
	var failures []string
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		failures = append(failures, ph.errs...)
	}
	res.Attempted += b.gate.checks
	res.Failed += len(b.gate.failures)
	failures = append(failures, b.gate.failures...)
	res.Correct = res.Failed == 0
	if !traced {
		m.set("success_rate", 1-float64(res.Failed)/float64(res.Attempted), "fraction")
	}
	return outcome{result: res, details: details, failures: failures}, nil
}

// endToEnd fills the end-to-end metrics of an untraced phase. Times
// and throughput are scaled to the reference host speed (see probe.go):
// setup_s by the probes taken around each set-up (setupSlow), the rest
// by the phase's probes. The context line keeps them unscaled.
func endToEnd(m metrics, ph *phase, q quality, setupS, setupSlow float64, details map[string]any) error {
	lat, hits, misses := ph.latencies()
	tail, err := tailPercentile(lat)
	if err != nil {
		return fmt.Errorf("op_tail_ms: %w", err)
	}
	if len(hits) == 0 || len(misses) == 0 {
		return fmt.Errorf("need both hit and miss ops, got %d and %d", len(hits), len(misses))
	}
	raw := timings{
		SetupS:     setupS,
		Throughput: ph.throughput(),
		OpP50MS:    median(lat),
		OpTailMS:   tail.Value,
		HitP50MS:   median(hits),
		MissP50MS:  median(misses),
	}
	slow := ph.probe.slowdown()
	t := raw.scaled(setupSlow, slow)
	m.set("setup_s", t.SetupS, "s")
	m.set("throughput_per_s", t.Throughput, "1/s")
	m.set("op_p50_ms", t.OpP50MS, "ms")
	m.set("op_tail_ms", t.OpTailMS, "ms")
	m.set("hit_p50_ms", t.HitP50MS, "ms")
	m.set("miss_p50_ms", t.MissP50MS, "ms")
	m.set("fti_mean", q.FTIMean, "fraction")
	m.set("area_cells_mean", q.AreaMean, "cells")
	m.set("survival_rate", q.SurvivalRate, "fraction")
	m.set("rss_median_mb", ph.rssMedianMB(), "MB")
	details["op_tail"] = tail
	details["ops"] = map[string]int{"total": len(lat), "hits": len(hits), "misses": len(misses)}
	details["unscaled"] = raw
	details["host_slowdown"] = map[string]any{"setup": setupSlow, "phase": slow, "phase_probes": len(ph.probe.ms)}
	return nil
}

// timings are a run's time metrics.
type timings struct {
	SetupS     float64 `json:"setup_s"`
	Throughput float64 `json:"throughput_per_s"`
	OpP50MS    float64 `json:"op_p50_ms"`
	OpTailMS   float64 `json:"op_tail_ms"`
	HitP50MS   float64 `json:"hit_p50_ms"`
	MissP50MS  float64 `json:"miss_p50_ms"`
}

// scaled converts timings measured on a host running setupSlow times
// slower than the reference in set-up, and slow times slower in the
// timed phase (see hostProbe.slowdown), to the reference speed: times
// divide by the slowdown, throughput multiplies.
func (t timings) scaled(setupSlow, slow float64) timings {
	return timings{
		SetupS:     t.SetupS / setupSlow,
		Throughput: t.Throughput * slow,
		OpP50MS:    t.OpP50MS / slow,
		OpTailMS:   t.OpTailMS / slow,
		HitP50MS:   t.HitP50MS / slow,
		MissP50MS:  t.MissP50MS / slow,
	}
}

// writeTrace flushes the traced phase's spans, held in memory during
// the run, as telemetry JSONL.
func writeTrace(ph *phase, name string, seed int64) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
	if err := os.WriteFile(path, ph.spans.Bytes(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// layerName is one per-layer metric of BENCHMARK.json.
type layerName struct{ name, unit string }

// perLayerNames lists every per-layer metric. A traced run reports all
// of them; a layer the workload does not exercise reads 0.
var perLayerNames = []layerName{
	{"core.stage1_ms", "ms"}, {"core.stage1_moves", "count"},
	{"core.stage1_ns_per_move", "ns"}, {"core.stage1_accept_rate", "fraction"},
	{"core.stage2_ms", "ms"}, {"core.stage2_moves", "count"},
	{"core.stage2_ns_per_move", "ns"}, {"core.stage2_accept_rate", "fraction"},
	{"anneal.levels", "count"},
	{"fti.module_evals_per_move", "count"}, {"fti.cache_hit_rate", "fraction"},
	{"fti.compute_us", "us"}, {"emptyrect.maximal_us", "us"}, {"grid.occupancy_us", "us"},
	{"schedule.synth_ms", "ms"}, {"pcache.fingerprint_us", "us"},
	{"format.unmarshal_us", "us"}, {"pcache.hit_rate", "fraction"},
	{"server.handler_hit_ms", "ms"}, {"server.handler_miss_ms", "ms"},
	{"http.overhead_ms", "ms"}, {"server.rejected", "count"},
	{"campaign.busy_frac", "fraction"}, {"sim.shallow_trial_ms", "ms"},
	{"recovery.deep_share", "fraction"}, {"recovery.deep_trial_ms", "ms"},
	{"goruntime.alloc_bytes_per_op", "B"}, {"goruntime.gc_cycles_per_op", "count"},
	{"goruntime.gc_cpu_frac", "fraction"}, {"trace.overhead_frac", "fraction"},
}
