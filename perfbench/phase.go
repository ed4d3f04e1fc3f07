package main

import (
	"bytes"
	"fmt"
	"os"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmfb/internal/telemetry"
)

// maxErrs bounds the failure messages a phase keeps for the report.
const maxErrs = 20

// phase is one timed stretch of ops. Workloads record every op with
// record; a traced phase also carries a tracer that keeps its spans in
// memory until the run ends.
type phase struct {
	seconds  float64
	deadline time.Time
	start    time.Time
	end      time.Time

	tr    *telemetry.Tracer // nil when the phase is untraced
	spans bytes.Buffer      // the tracer's JSONL output
	reg   *telemetry.Registry

	mu        sync.Mutex
	lat       []float64 // op latencies in ms, in completion order
	hit       []bool    // op was a cache hit (serve-mix) or repeated an input (see runOps)
	attempted int
	failed    int
	errs      []string

	probe  hostProbe            // host-speed probes taken between ops
	rss    []float64            // resident set samples in MB
	series map[string][]float64 // workload-specific samples, see observe

	rt0, rt1 []rtmetrics.Sample
}

func newPhase(seconds float64, traced bool) *phase {
	ph := &phase{seconds: seconds, reg: telemetry.NewRegistry(), series: map[string][]float64{}}
	if traced {
		ph.tr = telemetry.New(&ph.spans)
	}
	return ph
}

// expired reports whether the phase's deadline has passed.
func (ph *phase) expired() bool { return time.Now().After(ph.deadline) }

// record counts one op. A non-nil err marks it failed; its latency is
// still kept, since a failed op is a served op to the caller.
func (ph *phase) record(ms float64, hit bool, err error) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.attempted++
	ph.lat = append(ph.lat, ms)
	ph.hit = append(ph.hit, hit)
	if err != nil {
		ph.failed++
		if len(ph.errs) < maxErrs {
			ph.errs = append(ph.errs, err.Error())
		}
	}
}

// observe appends v to the named series of per-layer samples.
func (ph *phase) observe(name string, v float64) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.series[name] = append(ph.series[name], v)
}

// failures returns the number of failed ops and checks so far.
func (ph *phase) failures() int {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	return ph.failed
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s
}

// measure runs fn as the phase's body, sampling the resident set every
// 50 ms and the Go runtime's counters at both ends.
func (ph *phase) measure(fn func() error) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				ph.mu.Lock()
				ph.rss = append(ph.rss, mb)
				ph.mu.Unlock()
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	ph.rt0 = readRuntime()
	ph.start = time.Now()
	ph.deadline = ph.start.Add(time.Duration(ph.seconds * float64(time.Second)))
	err := fn()
	ph.end = time.Now()
	ph.rt1 = readRuntime()
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	if ph.attempted == 0 {
		return fmt.Errorf("phase completed no ops")
	}
	return ph.tr.Err()
}

// throughput is ops completed per second of the phase.
func (ph *phase) throughput() float64 {
	return float64(len(ph.lat)) / ph.end.Sub(ph.start).Seconds()
}

// latencies returns every op latency, then the hit and miss subsets.
func (ph *phase) latencies() (all, hits, misses []float64) {
	for i, v := range ph.lat {
		if ph.hit[i] {
			hits = append(hits, v)
		} else {
			misses = append(misses, v)
		}
	}
	return ph.lat, hits, misses
}

func (ph *phase) rssMedianMB() float64 { return median(ph.rss) }

// runtimeLayers sets the goruntime.* per-layer metrics.
func (ph *phase) runtimeLayers(m metrics) {
	d := func(i int) float64 {
		a, b := ph.rt0[i].Value, ph.rt1[i].Value
		if a.Kind() == rtmetrics.KindUint64 {
			return float64(b.Uint64() - a.Uint64())
		}
		return b.Float64() - a.Float64()
	}
	ops := float64(len(ph.lat))
	m.set("goruntime.alloc_bytes_per_op", d(0)/ops, "B")
	m.set("goruntime.gc_cycles_per_op", d(1)/ops, "count")
	if cpu := d(3); cpu > 0 {
		m.set("goruntime.gc_cpu_frac", d(2)/cpu, "fraction")
	}
}

// rssMB reads the process's resident set size from /proc.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, err
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// spanTable parses the phase's spans and summarises them by name.
func (ph *phase) spanTable() (map[string]spanStat, error) {
	recs, err := parseSpans(ph.spans.Bytes())
	if err != nil {
		return nil, err
	}
	return spanStats(recs), nil
}
