package telemetry

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a clock advancing by step on every reading.
func fakeClock(step time.Duration) func() time.Duration {
	var now time.Duration
	return func() time.Duration {
		now += step
		return now
	}
}

// The golden JSONL output for a fixed clock: the full wire format is
// part of the tool contract (external consumers parse it).
func TestTracerGoldenOutput(t *testing.T) {
	var buf strings.Builder
	tr := NewWithClock(&buf, fakeClock(100*time.Microsecond))

	tr.Event("sim.fault", Fields{"t_sec": 1, "cell": "(3,4)"})
	sp := tr.Start("anneal.level")                 // reads clock: 200us
	sp.End(Fields{"level": 0})                     // reads clock: 300us -> dur 100us
	tr.EmitSpan("route", 50*time.Microsecond, nil) // reads clock: 400us -> start 350us
	tr.Event("done", nil)

	want := strings.Join([]string{
		`{"seq":1,"t_us":100,"kind":"event","name":"sim.fault","fields":{"cell":"(3,4)","t_sec":1}}`,
		`{"seq":2,"t_us":200,"kind":"span","name":"anneal.level","id":1,"dur_us":100,"fields":{"level":0}}`,
		`{"seq":3,"t_us":350,"kind":"span","name":"route","id":2,"dur_us":50}`,
		`{"seq":4,"t_us":500,"kind":"event","name":"done"}`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("trace output mismatch:\ngot:\n%swant:\n%s", got, want)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Event("x", Fields{"a": 1}) // must not panic
	sp := tr.Start("y")
	sp.End(nil)
	tr.EmitSpan("z", time.Second, nil)
	in := tr.Under(3)
	if in != nil {
		t.Error("Under on a nil tracer returned a live view")
	}
	in.Event("w", nil)
	in.EmitSpan("v", time.Second, nil)
	in.StartChild("u", 0).End(nil)
	child := sp.StartChild("grandchild") // zero Span: child is inert too
	child.End(nil)
	if sp.ID() != 0 {
		t.Error("zero span has an id")
	}
	if tr.Err() != nil {
		t.Error("nil tracer reports an error")
	}
	if tr.Summaries() != nil {
		t.Error("nil tracer reports summaries")
	}
}

// TestNilTracerZeroAlloc pins the disabled-telemetry hot path: span
// bookkeeping on a nil tracer must not allocate, because it runs
// inside the annealing and campaign inner loops.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start("hot")
		c := sp.StartChild("hotter")
		c.End(nil)
		sp.End(nil)
		tr.Under(sp.ID()).EmitSpan("loop", time.Microsecond, nil)
	})
	if allocs != 0 {
		t.Errorf("nil-tracer span path allocated %.1f times per run, want 0", allocs)
	}
}

// TestSpanHierarchy checks that Under views, StartChild's explicit
// and zero parents and Span.StartChild reconstruct into one tree whose
// ids are unique across views.
func TestSpanHierarchy(t *testing.T) {
	var buf strings.Builder
	tr := NewWithClock(&buf, fakeClock(time.Microsecond))

	root := tr.Start("tool.run")
	run := tr.Under(root.ID())
	stage := run.Start("stage.place") // the view's parent -> root
	inStage := run.Under(stage.ID())
	inStage.EmitSpan("anneal.level", time.Microsecond, nil)
	inStage.Event("anneal.best", nil)
	trial := stage.StartChild("campaign.trial")
	tr.Under(trial.ID()).Event("sim.fault", nil)
	trial.End(nil)
	run.StartChild("stage.fti", 0).End(nil)           // zero: the view's parent
	run.StartChild("exhaustive", stage.ID()).End(nil) // explicit parent wins
	stage.End(nil)
	root.End(nil)
	tr.Event("tool.done", nil) // the original tracer still emits roots

	type rec struct {
		Kind string `json:"kind"`
		Name string `json:"name"`
		ID   uint64 `json:"id"`
		Par  uint64 `json:"par"`
	}
	parentOf := map[string]uint64{}
	idOf := map[string]uint64{}
	seen := map[uint64]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		parentOf[r.Name] = r.Par
		idOf[r.Name] = r.ID
		if r.Kind == "span" {
			if other, dup := seen[r.ID]; dup {
				t.Errorf("span id %d used by %s and %s", r.ID, other, r.Name)
			}
			seen[r.ID] = r.Name
		}
	}
	if idOf["tool.run"] == 0 || parentOf["tool.run"] != 0 {
		t.Errorf("root span: id=%d par=%d, want id>0 par=0", idOf["tool.run"], parentOf["tool.run"])
	}
	if parentOf["tool.done"] != 0 {
		t.Errorf("tool.done has par=%d, want a root", parentOf["tool.done"])
	}
	for child, parent := range map[string]string{
		"stage.place":    "tool.run",
		"anneal.level":   "stage.place",
		"anneal.best":    "stage.place",
		"campaign.trial": "stage.place",
		"sim.fault":      "campaign.trial",
		"stage.fti":      "tool.run",
		"exhaustive":     "stage.place",
	} {
		if parentOf[child] != idOf[parent] {
			t.Errorf("%s has par=%d, want %s's id %d", child, parentOf[child], parent, idOf[parent])
		}
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

func TestTracerErrSticky(t *testing.T) {
	wantErr := errors.New("disk full")
	tr := NewWithClock(failWriter{wantErr}, fakeClock(time.Microsecond))
	tr.Event("a", nil)
	tr.Event("b", nil)
	if !errors.Is(tr.Err(), wantErr) {
		t.Errorf("Err() = %v, want %v", tr.Err(), wantErr)
	}
}

func TestTracerEmitSpanClampsNegativeStart(t *testing.T) {
	var buf strings.Builder
	tr := NewWithClock(&buf, fakeClock(10*time.Microsecond))
	tr.EmitSpan("long", time.Hour, nil) // dur exceeds elapsed time
	if !strings.Contains(buf.String(), `"t_us":0`) {
		t.Errorf("span start not clamped to 0: %s", buf.String())
	}
}

func TestTracerSummaries(t *testing.T) {
	var buf strings.Builder
	tr := NewWithClock(&buf, fakeClock(time.Microsecond))
	for i := 0; i < 5; i++ {
		tr.EmitSpan("stage.place", 2*time.Millisecond, nil)
	}
	tr.EmitSpan("stage.route", 4*time.Millisecond, nil)

	sums := tr.Summaries()
	if len(sums) != 2 {
		t.Fatalf("summaries for %d names, want 2", len(sums))
	}
	if s := sums["stage.place"]; s.N != 5 || s.Mean != 2 {
		t.Errorf("stage.place summary = %+v, want N=5 Mean=2ms", s)
	}
	if s := sums["stage.route"]; s.N != 1 || s.Max != 4 {
		t.Errorf("stage.route summary = %+v, want N=1 Max=4ms", s)
	}
}

func TestTracerSeqStrictlyIncreasing(t *testing.T) {
	var buf strings.Builder
	tr := NewWithClock(&buf, fakeClock(time.Microsecond))
	for i := 0; i < 10; i++ {
		tr.Event("tick", nil)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines, want 10", len(lines))
	}
	for i, l := range lines {
		if !strings.Contains(l, `"seq":`+strconv.Itoa(i+1)+`,`) {
			t.Errorf("line %d missing seq %d: %s", i, i+1, l)
		}
	}
}
