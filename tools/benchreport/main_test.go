package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain re-executes the test binary as benchreport itself when
// BENCHREPORT_RUN_MAIN is set, so the tests drive the real flag
// parsing and os.Exit paths without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHREPORT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fixture is one set of benchreport inputs written to a temp dir.
type fixture struct {
	fig8FTI, fig8Area float64
	l1, ladder        campaignFixture
	yield             [][3]float64 // spares, area cells, yield
}

type campaignFixture struct {
	mode                     string
	trials, survived, errors int
}

// consistent is a report every gate accepts.
func consistent() fixture {
	return fixture{
		fig8FTI: 0.6571, fig8Area: 70,
		l1:     campaignFixture{"l1", 512, 400, 0},
		ladder: campaignFixture{"ladder", 512, 480, 0},
		yield:  [][3]float64{{0, 70, 0.50}, {2, 90, 0.70}, {4, 110, 0.80}},
	}
}

const goBenchOut = `BenchmarkStage2IterClone-2   200000   2400.0 ns/op   512 B/op   4 allocs/op
BenchmarkStage2IterMove-2   200000   700.0 ns/op   0 B/op   0 allocs/op
BenchmarkLTSARun-2   5   371664612 ns/op   1200.0 ns/move   100 B/op   1 allocs/op
`

func writeJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

type meas struct {
	Name     string  `json:"name"`
	Measured float64 `json:"measured"`
}

type exp struct {
	Experiment   string `json:"experiment"`
	Measurements []meas `json:"measurements"`
}

// write lays the fixture out in dir and returns benchreport's
// arguments for it, writing the report to dir/out.json.
func (f fixture) write(t *testing.T, dir string) []string {
	t.Helper()
	path := func(name string) string { return filepath.Join(dir, name) }
	if err := os.WriteFile(path("go.out"), []byte(goBenchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	writeJSON(t, path("exp.json"), []exp{{"fig8", []meas{
		{"twostage_area", f.fig8Area}, {"twostage_fti", f.fig8FTI}}}})
	for name, c := range map[string]campaignFixture{"l1.json": f.l1, "ladder.json": f.ladder} {
		writeJSON(t, path(name), map[string]any{
			"recovery_mode": c.mode,
			"summary": map[string]any{
				"trials": c.trials, "survived": c.survived, "errors": c.errors,
				"survival_rate": float64(c.survived) / float64(c.trials),
			},
		})
	}
	ys := []meas{{"defect_prob", 0.02}, {"trials", 512}}
	for _, p := range f.yield {
		ys = append(ys,
			meas{fmt.Sprintf("spares%.0f_area_cells", p[0]), p[1]},
			meas{fmt.Sprintf("spares%.0f_yield", p[0]), p[2]})
	}
	writeJSON(t, path("yield.json"), []exp{{"yieldsweep", ys}})
	return []string{
		"-go", path("go.out"), "-exp", path("exp.json"),
		"-assay-l1", path("l1.json"), "-assay-ladder", path("ladder.json"),
		"-yield", path("yield.json"), "-out", path("out.json"),
	}
}

// run executes benchreport with args and returns its combined output
// and whether it exited zero.
func run(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHREPORT_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatal(err)
		}
	}
	return string(out), err == nil
}

func TestConsistentReportPasses(t *testing.T) {
	dir := t.TempDir()
	args := consistent().write(t, dir)
	out, ok := run(t, append(args, "-prev", filepath.Join(dir, "missing.json"))...)
	if !ok {
		t.Fatalf("consistent inputs refused:\n%s", out)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "out.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"stage2_move_ns_per_op", "ltsa_run_ns_per_move",
		"experiments", "survival_l1", "survival_ladder", "yield_curve"} {
		if _, ok := rep[key]; !ok {
			t.Errorf("report lacks %q", key)
		}
	}
	for key := range rep {
		for _, gone := range []string{"campaign_", "serve_", "multistart_", "wallclock_to_target"} {
			if strings.HasPrefix(key, gone) {
				t.Errorf("report carries %q, a section perfbench measures", key)
			}
		}
	}

	// The written report is its own -prev baseline.
	prev := filepath.Join(t.TempDir(), "prev.json")
	if err := os.WriteFile(prev, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, ok := run(t, append(consistent().write(t, t.TempDir()), "-prev", prev)...); !ok {
		t.Fatalf("identical rerun refused against its own report:\n%s", out)
	}
}

func TestRefusals(t *testing.T) {
	base := t.TempDir()
	if out, ok := run(t, consistent().write(t, base)...); !ok {
		t.Fatalf("baseline refused:\n%s", out)
	}
	prev := filepath.Join(base, "out.json")

	cases := []struct {
		name   string
		mutate func(*fixture)
		want   string
	}{
		{"fig8 FTI drop", func(f *fixture) { f.fig8FTI = 0.6 }, "fig8 FTI regressed"},
		{"fig8 area rise", func(f *fixture) { f.fig8Area = 71 }, "fig8 area regressed"},
		{"ladder equals L1", func(f *fixture) { f.ladder.survived = f.l1.survived }, "not strictly better"},
		{"errored trials", func(f *fixture) { f.ladder.errors = 1 }, "errored trials"},
		{"area not increasing", func(f *fixture) { f.yield[2][1] = 90 }, "area not increasing"},
		{"yield falls", func(f *fixture) {
			f.yield = [][3]float64{{0, 70, 0.50}, {2, 90, 0.45}, {4, 110, 0.40}}
		}, "yield fell"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := consistent()
			c.mutate(&f)
			out, ok := run(t, append(f.write(t, t.TempDir()), "-prev", prev)...)
			if ok {
				t.Fatalf("accepted:\n%s", out)
			}
			if !strings.Contains(out, c.want) {
				t.Errorf("refusal does not mention %q:\n%s", c.want, out)
			}
		})
	}
}
