// dmfb-report turns the observability artefacts of a finished (or
// interrupted) run into a human-readable report: the JSONL trace and
// JSON metrics snapshot that every tool writes with -trace/-metrics,
// plus, for campaigns, the JSONL checkpoint file.
//
// Sections (each present only when its input is given):
//
//   - stage timing tree — spans aggregated by their id/par hierarchy
//     path, so "recovery.ladder under sim.run under campaign.trial"
//     and the same span name elsewhere stay distinct lines
//   - top counters and gauges from the metrics snapshot
//   - per-trial latency quantiles estimated from the
//     campaign.trial_ms histogram buckets
//   - recovery outcomes from the checkpoint (survival, errors, the
//     recorded value distribution) and the recovery.* counters
//
// Usage:
//
//	dmfb-campaign -trials 100000 -trace t.jsonl -metrics m.json -checkpoint c.jsonl
//	dmfb-report -trace t.jsonl -metrics m.json -checkpoint c.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dmfb/internal/campaign"
	"dmfb/internal/stats"
	"dmfb/internal/telemetry"
)

func main() { os.Exit(run(os.Stdout, os.Args[1:])) }

func run(w io.Writer, argv []string) int {
	fs := flag.NewFlagSet("dmfb-report", flag.ContinueOnError)
	trace := fs.String("trace", "", "JSONL trace `file` written with -trace")
	metrics := fs.String("metrics", "", "JSON metrics snapshot `file` written with -metrics")
	ckpt := fs.String("checkpoint", "", "campaign checkpoint `file` written with -checkpoint")
	top := fs.Int("top", 12, "counters/gauges shown per metrics table")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *trace == "" && *metrics == "" && *ckpt == "" {
		fmt.Fprintln(os.Stderr, "dmfb-report: nothing to report; give -trace, -metrics and/or -checkpoint")
		fs.Usage()
		return 2
	}

	if *trace != "" {
		if err := reportTrace(w, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-report:", err)
			return 1
		}
	}
	if *metrics != "" {
		if err := reportMetrics(w, *metrics, *top); err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-report:", err)
			return 1
		}
	}
	if *ckpt != "" {
		if err := reportCheckpoint(w, *ckpt); err != nil {
			fmt.Fprintln(os.Stderr, "dmfb-report:", err)
			return 1
		}
	}
	return 0
}

// traceRecord mirrors the telemetry wire format (package telemetry
// doc); only the fields the report needs are decoded.
type traceRecord struct {
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	ID    uint64 `json:"id"`
	Par   uint64 `json:"par"`
	DurUS int64  `json:"dur_us"`
}

// pathStat aggregates every span that shares one hierarchy path.
type pathStat struct {
	path  []string // name chain from root
	n     int
	durUS int64
}

// reportTrace renders the span hierarchy as an aggregated timing
// tree: spans with the same root→leaf name chain collapse into one
// line carrying the invocation count and summed duration.
func reportTrace(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	spans := make(map[uint64]traceRecord)
	events := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec traceRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // tolerate a torn final line
		}
		switch rec.Kind {
		case "span":
			spans[rec.ID] = rec
		case "event":
			events++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}

	// Name chain per span id, memoised; a dangling parent (span never
	// ended, e.g. after a kill) truncates the chain at the orphan.
	chains := make(map[uint64][]string)
	var chainOf func(id uint64) []string
	chainOf = func(id uint64) []string {
		if c, ok := chains[id]; ok {
			return c
		}
		rec, ok := spans[id]
		if !ok {
			return nil
		}
		chains[id] = nil // break cycles from corrupt input
		c := append(append([]string(nil), chainOf(rec.Par)...), rec.Name)
		chains[id] = c
		return c
	}

	agg := make(map[string]*pathStat)
	for id, rec := range spans {
		chain := chainOf(id)
		key := strings.Join(chain, "\x00")
		st, ok := agg[key]
		if !ok {
			st = &pathStat{path: chain}
			agg[key] = st
		}
		st.n++
		st.durUS += rec.DurUS
	}

	fmt.Fprintf(w, "== stage timing (%s: %d spans, %d events) ==\n", path, len(spans), events)
	printTree(w, agg, nil, 0)
	fmt.Fprintln(w)
	return nil
}

// printTree prints the children of the given path prefix, longest
// total duration first, then recurses.
func printTree(w io.Writer, agg map[string]*pathStat, prefix []string, depth int) {
	var kids []*pathStat
	for _, st := range agg {
		if len(st.path) == len(prefix)+1 && hasPrefix(st.path, prefix) {
			kids = append(kids, st)
		}
	}
	sort.Slice(kids, func(i, j int) bool {
		if kids[i].durUS != kids[j].durUS {
			return kids[i].durUS > kids[j].durUS
		}
		return kids[i].path[len(kids[i].path)-1] < kids[j].path[len(kids[j].path)-1]
	})
	for _, st := range kids {
		name := st.path[len(st.path)-1]
		fmt.Fprintf(w, "  %-*s%-*s %7d× %12.1f ms\n",
			2*depth, "", 36-2*depth, name, st.n, float64(st.durUS)/1000)
		printTree(w, agg, st.path, depth+1)
	}
}

func hasPrefix(path, prefix []string) bool {
	for i := range prefix {
		if path[i] != prefix[i] {
			return false
		}
	}
	return true
}

// reportMetrics renders the top counters and gauges plus quantile
// estimates for every histogram in the snapshot (campaign.trial_ms is
// the per-trial latency one).
func reportMetrics(w io.Writer, path string, top int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}

	fmt.Fprintf(w, "== metrics (%s) ==\n", path)
	if len(snap.Counters) > 0 {
		fmt.Fprintf(w, "top counters:\n")
		for _, kv := range topN(snap.Counters, top) {
			fmt.Fprintf(w, "  %-36s %12d\n", kv.name, kv.value)
		}
	}
	if len(snap.Gauges) > 0 {
		names := make([]string, 0, len(snap.Gauges))
		for name := range snap.Gauges {
			names = append(names, name)
		}
		sort.Strings(names)
		if len(names) > top {
			names = names[:top]
		}
		fmt.Fprintf(w, "gauges:\n")
		for _, name := range names {
			fmt.Fprintf(w, "  %-36s %12g\n", name, snap.Gauges[name])
		}
	}
	if len(snap.Histograms) > 0 {
		names := make([]string, 0, len(snap.Histograms))
		for name := range snap.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "histograms (bucket-estimated quantiles):\n")
		fmt.Fprintf(w, "  %-30s %9s %9s %9s %9s %9s %9s\n",
			"name", "count", "mean", "p50", "p95", "p99", "max")
		for _, name := range names {
			h := snap.Histograms[name]
			if h.Count == 0 {
				fmt.Fprintf(w, "  %-30s %9d\n", name, 0)
				continue
			}
			fmt.Fprintf(w, "  %-30s %9d %9.3f %9.3f %9.3f %9.3f %9.3f\n",
				name, h.Count, h.Mean, h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max)
		}
	}
	if len(snap.Spans) > 0 {
		names := make([]string, 0, len(snap.Spans))
		for name := range snap.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "span durations (ms):\n")
		for _, name := range names {
			s := snap.Spans[name]
			fmt.Fprintf(w, "  %-30s %9d %9.3f %9.3f %9.3f %9.3f %9.3f\n",
				name, s.N, s.Mean, s.Median, s.P95, s.P99, s.Max)
		}
	}
	fmt.Fprintln(w)
	return nil
}

type kv struct {
	name  string
	value int64
}

// topN returns the n largest counters, value-descending then
// name-ascending for determinism.
func topN(m map[string]int64, n int) []kv {
	out := make([]kv, 0, len(m))
	for name, v := range m {
		out = append(out, kv{name, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].value != out[j].value {
			return out[i].value > out[j].value
		}
		return out[i].name < out[j].name
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// reportCheckpoint summarises the recorded trial outcomes of a
// campaign checkpoint: completion, survival with a Wilson interval,
// error breakdown and the recorded value (for assay campaigns: ladder
// depth) distribution.
func reportCheckpoint(w io.Writer, path string) error {
	info, err := campaign.ReadCheckpoint(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== campaign checkpoint (%s) ==\n", path)
	fmt.Fprintf(w, "campaign %q, seed %d: %d/%d trials recorded\n",
		info.Campaign, info.Seed, info.Done, info.Trials)
	if info.Done > 0 {
		lo, hi := stats.Wilson95(info.Survived, info.Done)
		fmt.Fprintf(w, "survival %d/%d = %.4f, 95%% Wilson CI [%.4f, %.4f]\n",
			info.Survived, info.Done, float64(info.Survived)/float64(info.Done), lo, hi)
		vs := stats.Describe(info.Values)
		fmt.Fprintf(w, "values: mean %.3f, median %.1f, p95 %.1f, p99 %.1f, max %.1f\n",
			vs.Mean, vs.Median, vs.P95, vs.P99, vs.Max)
	}
	if strings.HasPrefix(info.Campaign, "yield") && info.Done > 0 {
		reportYieldBuckets(w, info.Results)
	}
	if info.Errors > 0 {
		fmt.Fprintf(w, "errors: %d\n", info.Errors)
		msgs := make([]string, 0, len(info.ErrorCounts))
		for msg := range info.ErrorCounts {
			msgs = append(msgs, msg)
		}
		sort.Strings(msgs)
		for _, msg := range msgs {
			fmt.Fprintf(w, "  %4d× %s\n", info.ErrorCounts[msg], msg)
		}
	}
	fmt.Fprintln(w)
	return nil
}

// yieldBuckets are the defect-count-per-die bands of the yield
// breakdown. A yield trial records the die's defect count as its
// value, so bucketing by value is bucketing by defect density on a
// fixed-size array.
var yieldBuckets = []struct {
	label  string
	lo, hi float64 // inclusive bounds on defects per die
}{
	{"0 defects", 0, 0},
	{"1 defect", 1, 1},
	{"2 defects", 2, 2},
	{"3-4 defects", 3, 4},
	{"5-8 defects", 5, 8},
	{"9+ defects", 9, 1e18},
}

// reportYieldBuckets prints the survival rate of each defect-density
// band of a yield campaign, with a Wilson 95% interval per band — the
// yield-vs-density checkpoints of the space-redundancy analysis.
func reportYieldBuckets(w io.Writer, results []campaign.TrialResult) {
	fmt.Fprintf(w, "yield by defects per die (Wilson 95%%):\n")
	for _, b := range yieldBuckets {
		trials, survived := 0, 0
		for _, r := range results {
			if r.Value >= b.lo && r.Value <= b.hi {
				trials++
				if r.Survived {
					survived++
				}
			}
		}
		if trials == 0 {
			continue
		}
		lo, hi := stats.Wilson95(survived, trials)
		fmt.Fprintf(w, "  %-12s %6d trials  yield %.4f  [%.4f, %.4f]\n",
			b.label, trials, float64(survived)/float64(trials), lo, hi)
	}
}
