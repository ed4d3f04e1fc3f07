package main

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmfb/internal/fti"
	"dmfb/internal/pcr"
	"dmfb/internal/telemetry"
)

// generated collects every input a workload derives from its seed.
type generated struct {
	table2      []table2Point
	table2Seeds []int64
	invitro     []int
	order       []int
	misses      [][]byte
}

func generate(t *testing.T, seed int64) generated {
	t.Helper()
	bodies, err := serveBodies()
	if err != nil {
		t.Fatal(err)
	}
	g := generated{
		table2:      table2Pool(seed),
		table2Seeds: table2Stage1Seeds(seed),
		invitro:     invitroOrder(seed),
		order:       serveOrder(seed, bodies),
	}
	for i := int64(0); i < 3*serveMissPeriod; i++ {
		if serveMiss(i) {
			g.misses = append(g.misses, serveMissBody(seed, i))
		}
	}
	return g
}

func TestInputsDeriveFromSeed(t *testing.T) {
	a, b, c := generate(t, 7), generate(t, 7), generate(t, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	for name, differ := range map[string]bool{
		"table2 order":       !reflect.DeepEqual(a.table2, c.table2),
		"table2 seeds":       !reflect.DeepEqual(a.table2Seeds, c.table2Seeds),
		"invitro order":      !reflect.DeepEqual(a.invitro, c.invitro),
		"serve hit sequence": !reflect.DeepEqual(a.order, c.order),
		"serve misses":       !reflect.DeepEqual(a.misses, c.misses),
	} {
		if !differ {
			t.Errorf("%s: seeds 7 and 8 generated the same input", name)
		}
	}
}

func TestServeMixClassesMatchDeclaredMix(t *testing.T) {
	const n = 25 * serveMissPeriod
	misses := 0
	seen := map[string]bool{}
	for i := int64(0); i < n; i++ {
		if serveMiss(i) {
			misses++
			body := string(serveMissBody(3, i))
			if seen[body] {
				t.Fatalf("miss %d repeats an earlier miss body", i)
			}
			seen[body] = true
		}
	}
	if want := n / serveMissPeriod; misses != want {
		t.Fatalf("%d misses in %d requests, want %d", misses, n, want)
	}
	bodies, err := serveBodies()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{3, 4} {
		count := make([]int, len(bodies))
		for _, i := range serveOrder(seed, bodies) {
			count[i]++
		}
		hits, compiles := 0, 0
		for i, b := range bodies {
			if count[i] != b.weight {
				t.Errorf("seed %d: body %d appears %d times in the hit sequence, want %d", seed, i, count[i], b.weight)
			}
			hits += count[i]
			if b.kind == "compile" {
				compiles += count[i]
			}
		}
		if 4*compiles != 3*hits {
			t.Errorf("seed %d: %d of %d hits are compiles, want three quarters", seed, compiles, hits)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, n := range []int{11, 12, 40, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[(i*7)%n] = float64(i + 1) // 1..n, shuffled when gcd(7, n) = 1
		}
		got, err := tailPercentile(xs)
		if err != nil {
			t.Fatal(err)
		}
		beyond := 0
		for _, x := range xs {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond %v, want %d", n, beyond, got.Value, tailBeyond)
		}
		if got.Samples != n {
			t.Errorf("n=%d: reported %d samples", n, got.Samples)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); got.Percentile != want {
			t.Errorf("n=%d: percentile %v, want %v", n, got.Percentile, want)
		}
	}
	if _, err := tailPercentile(make([]float64, tailBeyond)); err == nil {
		t.Error("10 samples leave none with 10 beyond it, want an error")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd count: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even count: %v", got)
	}
}

func TestSelfTimeNestedSpans(t *testing.T) {
	// root [0,100) holds a [10,40) and b [30,60), which overlap; a holds
	// leaf [15,25); c [90,120) runs past the end of root.
	recs := []spanRec{
		{Kind: "span", Name: "root", ID: 1, TUS: 0, DurUS: 100},
		{Kind: "span", Name: "a", ID: 2, Par: 1, TUS: 10, DurUS: 30},
		{Kind: "span", Name: "leaf", ID: 3, Par: 2, TUS: 15, DurUS: 10},
		{Kind: "span", Name: "b", ID: 4, Par: 1, TUS: 30, DurUS: 30},
		{Kind: "span", Name: "c", ID: 5, Par: 1, TUS: 90, DurUS: 30},
	}
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 20, 3: 10, 4: 30, 5: 30}
	if got := selfUS(recs); !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	st := spanStats(recs)
	if s := st["root"]; s.Count != 1 || s.TotalMS != 0.1 || s.SelfMS != 0.04 {
		t.Fatalf("root stat %+v", s)
	}
}

func TestSpansUseTelemetrySchema(t *testing.T) {
	var now time.Duration
	var buf bytes.Buffer
	tr := telemetry.NewWithClock(&buf, func() time.Duration { return now })
	op := tr.Start("bench.op")
	now = 2 * time.Millisecond
	child := op.StartChild("core.AnnealArea")
	now = 5 * time.Millisecond
	child.End(nil)
	now = 6 * time.Millisecond
	op.End(nil)

	recs, err := parseSpans(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	st := spanStats(recs)
	if s := st["bench.op"]; s.Count != 1 || s.TotalMS != 6 || s.SelfMS != 3 {
		t.Fatalf("bench.op %+v, want 6 ms total, 3 ms self", s)
	}
	if s := st["core.AnnealArea"]; s.TotalMS != 3 || s.SelfMS != 3 {
		t.Fatalf("core.AnnealArea %+v", s)
	}
}

func TestCampaignChipIndependentOfWorkers(t *testing.T) {
	s, err := pcr.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	one, err := campaignChip(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := campaignChip(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !samePlacement(one.Final, two.Final) {
		t.Fatal("the campaign chip differs between 1 and 2 start workers")
	}
	if cells, f := one.Final.ArrayCells(), fti.Compute(one.Final).FTI(); cells != 80 || f != 1 {
		t.Errorf("campaign chip has %d cells and FTI %v, want 80 and 1", cells, f)
	}
}

func TestRunOpsEndsOnWholePass(t *testing.T) {
	const pool = 7
	for _, c := range []struct {
		workers, minPasses int
		seconds            float64
	}{{1, 1, 0.03}, {2, 1, 0.03}, {2, 3, 0.001}} {
		workers := c.workers
		b := &bench{workers: workers}
		ph := newPhase(c.seconds, false)
		var next atomic.Int64
		var mu sync.Mutex
		runs := map[int]int{}
		err := ph.measure(func() error {
			runOps(b, ph, &next, pool, c.minPasses, func(k int, repeat bool) {
				time.Sleep(time.Millisecond)
				mu.Lock()
				runs[k%pool]++
				mu.Unlock()
				ph.record(1, repeat, nil)
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		passes := len(ph.lat) / (2 * pool)
		if passes < c.minPasses || len(ph.lat) != 2*pool*passes {
			t.Fatalf("workers %d: %d ops, want at least %d whole passes of %d pairs", workers, len(ph.lat), c.minPasses, pool)
		}
		if c.seconds == 0.001 && passes != c.minPasses {
			t.Errorf("a 1 ms phase ran %d passes, want the minimum, %d", passes, c.minPasses)
		}
		for i := 0; i < pool; i++ {
			if runs[i] != 2*passes {
				t.Errorf("workers %d: input %d ran %d times, want %d", workers, i, runs[i], 2*passes)
			}
		}
		if got := len(ph.probe.ms); got != len(ph.lat) {
			t.Errorf("workers %d: %d host probes, want one per op (%d)", workers, got, len(ph.lat))
		}
	}
}

func TestTimingsScaled(t *testing.T) {
	raw := timings{SetupS: 0.5, Throughput: 10, OpP50MS: 100, OpTailMS: 300, HitP50MS: 80, MissP50MS: 120}
	got := raw.scaled(4, 2)
	want := timings{SetupS: 0.125, Throughput: 20, OpP50MS: 50, OpTailMS: 150, HitP50MS: 40, MissP50MS: 60}
	if got != want {
		t.Fatalf("scaled by a 4x set-up and 2x phase slowdown: %+v, want %+v", got, want)
	}
	if raw.scaled(1, 1) != raw {
		t.Fatal("a host at the reference speed changed the figures")
	}
	var p hostProbe
	p.ms = []float64{3 * probeRefMS, probeRefMS, 2 * probeRefMS}
	if s := p.slowdown(); s != 2 {
		t.Fatalf("slowdown %v, want the median probe over the reference, 2", s)
	}
}
