package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// Concurrent writers hammer a shared registry; run with -race. Totals
// must be exact: every atomic update must land.
func TestRegistryConcurrentHammering(t *testing.T) {
	const goroutines = 16
	const perG = 2000

	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Metric creation races with updates on purpose.
				r.Counter("ops").Inc()
				r.Gauge("last").Set(float64(i))
				r.Histogram("lat", 1, 4, 16, 64).Observe(float64(i % 100))
				if i%64 == 0 {
					r.Snapshot() // concurrent readers
				}
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if v := r.Counter("ops").Value(); v != total {
		t.Errorf("counter = %d, want %d", v, total)
	}
	h := r.Snapshot().Histograms["lat"]
	if h.Count != total {
		t.Errorf("histogram count = %d, want %d", h.Count, total)
	}
	var bucketSum int64
	for _, b := range h.Buckets {
		bucketSum += b.N
	}
	if bucketSum != total {
		t.Errorf("bucket sum = %d, want %d", bucketSum, total)
	}
	// Each goroutine observes 0..99 repeatedly: min 0, max 99, and the
	// CAS-looped sum must equal the exact arithmetic total.
	if h.Min != 0 || h.Max != 99 {
		t.Errorf("min/max = %v/%v, want 0/99", h.Min, h.Max)
	}
	perCycle := 0.0
	for i := 0; i < 100; i++ {
		perCycle += float64(i)
	}
	if want := perCycle * total / 100; h.Sum != want {
		t.Errorf("sum = %v, want %v", h.Sum, want)
	}
}

// Concurrent span and event emission must keep seq contiguous, one
// record per line, and every record under its own goroutine's spans:
// views made by Under never share a parent.
func TestTracerConcurrentEmission(t *testing.T) {
	var mu sync.Mutex
	var buf strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	tr := New(w)

	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			root := tr.Start("root")
			in := tr.Under(root.ID())
			for i := 0; i < perG; i++ {
				sp := in.Start("work")
				in.Under(sp.ID()).Event("tick", Fields{"g": g})
				sp.End(Fields{"g": g})
			}
			root.End(Fields{"g": g})
		}(g)
	}
	wg.Wait()

	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	mu.Unlock()
	if len(lines) != goroutines*(perG*2+1) {
		t.Fatalf("%d lines, want %d", len(lines), goroutines*(perG*2+1))
	}
	type rec struct {
		Name   string `json:"name"`
		ID     uint64 `json:"id"`
		Par    uint64 `json:"par"`
		Fields struct {
			G int `json:"g"`
		} `json:"fields"`
	}
	recs := make([]rec, len(lines))
	byID := map[uint64]rec{}
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &recs[i]); err != nil {
			t.Fatalf("bad line %q: %v", l, err)
		}
		if recs[i].ID != 0 {
			byID[recs[i].ID] = recs[i]
		}
	}
	want := map[string]string{"tick": "work", "work": "root"}
	for _, r := range recs {
		if r.Name == "root" {
			if r.Par != 0 {
				t.Errorf("root span of goroutine %d has par %d", r.Fields.G, r.Par)
			}
			continue
		}
		p, ok := byID[r.Par]
		if !ok || p.Name != want[r.Name] || p.Fields.G != r.Fields.G {
			t.Fatalf("%s of goroutine %d has parent %+v, want its own goroutine's %s", r.Name, r.Fields.G, p, want[r.Name])
		}
	}
	sums := tr.Summaries()
	if s := sums["work"]; s.N != goroutines*perG {
		t.Errorf("work summary N = %d, want %d", s.N, goroutines*perG)
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// StartStage must tolerate concurrent use and Stop must be callable
// more than once.
func TestStageClockConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := StartStage("stage")
			time.Sleep(time.Millisecond)
			st1 := c.Stop()
			st2 := c.Stop()
			if st1.Wall <= 0 {
				t.Errorf("wall = %v, want > 0", st1.Wall)
			}
			if st2.Wall < st1.Wall {
				t.Errorf("second Stop went backwards: %v < %v", st2.Wall, st1.Wall)
			}
		}()
	}
	wg.Wait()
}
