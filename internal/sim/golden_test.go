package sim

// Seeded digests of whole simulator runs. Every scenario below runs
// the PCR schedule on the assay-campaign chip (two-stage placement,
// seed 1, β 40, two starts) with Trace on, so every dispense, route,
// merge, park and collect event — with its cells and step counts — is
// in the log. The digest covers the events, transport steps, outcome,
// failure reason, product fluids and relocations; any change to a
// routing decision changes it. Regenerate (only for an intended
// behaviour change) with:
//
//	DMFB_UPDATE_GOLDEN=1 go test -run TestScenarioDigestsGolden ./internal/sim/

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/geom"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
)

var (
	campaignChipOnce  sync.Once
	campaignChipSched *schedule.Schedule
	campaignChipPlace *place.Placement
	campaignChipErr   error
)

// campaignChip returns the assay-campaign chip: PCR placed by the
// two-stage annealer at seed 1, β 40, best of two starts.
func campaignChip(tb testing.TB) (*schedule.Schedule, *place.Placement) {
	tb.Helper()
	campaignChipOnce.Do(func() {
		s := pcr.MustSchedule()
		res, err := core.TwoStage(core.FromSchedule(s),
			core.Options{Seed: 1, Search: place.SearchOptions{Starts: 2}}, core.FTOptions{Beta: 40})
		campaignChipSched, campaignChipPlace, campaignChipErr = s, res.Final, err
	})
	if campaignChipErr != nil {
		tb.Fatal(campaignChipErr)
	}
	return campaignChipSched, campaignChipPlace
}

// digestScenario is one seeded run: k faults at random cells and
// seconds, each transient with probability transient. With ring set
// the fault cells are drawn over the whole chip, transport ring
// included, so dispense and collection have to route around them.
type digestScenario struct {
	k         int
	mode      RecoveryMode
	transient float64
	seed      int64
	ring      bool
}

func (sc digestScenario) name() string {
	where := "array"
	if sc.ring {
		where = "chip"
	}
	return fmt.Sprintf("k%d_%s_tr%.2f_%s_seed%d", sc.k, sc.mode, sc.transient, where, sc.seed)
}

func digestScenarios() []digestScenario {
	var out []digestScenario
	for _, k := range []int{1, 2, 3} {
		for _, mode := range []RecoveryMode{RecoveryL1, RecoveryLadder} {
			for _, tr := range []float64{0, 0.15} {
				for seed := int64(1); seed <= 5; seed++ {
					out = append(out, digestScenario{k: k, mode: mode, transient: tr, seed: seed})
				}
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		out = append(out, digestScenario{k: 2, mode: RecoveryLadder, transient: 0.15, seed: seed, ring: true})
	}
	return out
}

// faults draws the scenario's fault injections the way the assay
// campaign does: distinct cells, times in [0, makespan).
func (sc digestScenario) faults(s *schedule.Schedule, p *place.Placement, opts Options) []FaultInjection {
	rng := rand.New(rand.NewSource(sc.seed*1000 + int64(sc.k)))
	area := p.BoundingBox()
	if sc.ring {
		b := opts.withDefaults().Border
		area = geom.Rect{X: -b, Y: -b, W: area.W + 2*b, H: area.H + 2*b}
	}
	horizon := max(s.Makespan, 1)
	var out []FaultInjection
	var cells []geom.Point
	for len(out) < sc.k {
		cell := geom.Point{X: area.X + rng.Intn(area.W), Y: area.Y + rng.Intn(area.H)}
		dup := false
		for _, c := range cells {
			dup = dup || c == cell
		}
		if dup {
			continue
		}
		cells = append(cells, cell)
		f := FaultInjection{TimeSec: rng.Intn(horizon), Cell: ArrayCell(opts, cell)}
		if sc.transient > 0 && rng.Float64() < sc.transient {
			f.TransientProbes = 1 + rng.Intn(2)
		}
		out = append(out, f)
	}
	return out
}

// resultDigest hashes everything a routing decision can change.
func resultDigest(r Result) string {
	h := sha256.New()
	for _, e := range r.Events {
		fmt.Fprintf(h, "E %d|%s|%s\n", e.TimeSec, e.Kind, e.Detail)
	}
	fmt.Fprintf(h, "T %d\nO %d\nF %s\n", r.TransportSteps, r.Outcome, r.FailReason)
	for _, f := range r.ProductFluids {
		fmt.Fprintf(h, "P %s\n", f)
	}
	for _, rel := range r.Relocations {
		fmt.Fprintf(h, "R %d %v %v %v\n", rel.Module, rel.From, rel.To, rel.Fault)
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func TestScenarioDigestsGolden(t *testing.T) {
	s, p := campaignChip(t)
	kinds := map[string]int{}
	var b strings.Builder
	for _, sc := range digestScenarios() {
		opts := Options{Trace: true, Recovery: sc.mode, RecoverySeed: sc.seed}
		res := Run(s, p, opts, sc.faults(s, p, opts)...)
		for _, e := range res.Events {
			kinds[e.Kind]++
		}
		fmt.Fprintf(&b, "%s %s %s %d\n", sc.name(), resultDigest(res), res.Outcome, res.TransportSteps)
	}
	// The digests only pin the router if the scenarios exercise every
	// routing decision the simulator makes.
	for _, k := range []string{"route", "merge", "park", "collect", "reconfig", "fault-healed"} {
		if kinds[k] == 0 {
			t.Errorf("no %q event in any scenario; the digests do not cover it", k)
		}
	}
	path := filepath.Join("testdata", "scenario_digests.golden")
	if os.Getenv("DMFB_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with DMFB_UPDATE_GOLDEN=1): %v", err)
	}
	got := strings.Split(b.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) || got[i] != w {
			g := ""
			if i < len(got) {
				g = got[i]
			}
			t.Errorf("scenario %d diverged:\n got  %s\n want %s", i, g, w)
		}
	}
	if len(got) != len(strings.Split(string(want), "\n")) {
		t.Errorf("scenario count %d, golden has %d", len(got), len(strings.Split(string(want), "\n")))
	}
}
