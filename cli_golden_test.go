package dmfb

// Byte-level golden tests of the command-line tools. Every seeded,
// deterministic invocation below must keep producing exactly the
// output recorded in testdata/cli_golden — the contract that the
// internal/pipeline port (and any later refactor of the CLI wiring)
// does not change what users see. Regenerate with:
//
//	DMFB_UPDATE_GOLDEN=1 go test -run TestCLIGolden
//
// Wall-clock lines (bench experiment timings, campaign elapsed) are
// normalised away; everything else is compared verbatim.

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchTiming matches dmfb-bench's per-experiment wall-clock footer
// and the measured-time fragments some experiments print inline.
var benchTiming = regexp.MustCompile(`^\(\w+ in [^)]+\)$`)

// goldenCase is one deterministic CLI invocation.
type goldenCase struct {
	name     string
	tool     string
	args     []string
	wantExit int
	// normalise strips nondeterministic fragments before comparison.
	normalise func(string) string
}

func stripBenchTimings(out string) string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if benchTiming.MatchString(line) {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

func goldenCases(work string) []goldenCase {
	fixture := filepath.Join("testdata", "cli_golden", "placement_sa.json")
	return []goldenCase{
		{name: "synth_pcr", tool: "dmfb-synth", args: []string{"-assay", "pcr"}},
		{name: "synth_invitro", tool: "dmfb-synth",
			args: []string{"-assay", "invitro", "-samples", "2", "-assays", "2"}},
		{name: "place_greedy", tool: "dmfb-place", args: []string{"-placer", "greedy"}},
		{name: "place_sa", tool: "dmfb-place", args: []string{"-placer", "sa"}},
		{name: "place_twostage", tool: "dmfb-place",
			args: []string{"-placer", "twostage", "-beta", "30", "-coverage"}},
		{name: "fti_verify", tool: "dmfb-fti",
			args: []string{"-placement", fixture, "-verify", "-montecarlo", "500"}},
		{name: "sim_fault", tool: "dmfb-sim",
			args: []string{"-placer", "twostage", "-beta", "40", "-fault", "2,1,1"}},
		{name: "sim_ladder", tool: "dmfb-sim",
			args: []string{"-recovery", "ladder", "-fault", "0,2,3"}, wantExit: 2},
		{name: "test_fault", tool: "dmfb-test",
			args: []string{"-w", "9", "-h", "7", "-fault", "3,4"}, wantExit: 1},
		{name: "route_pair", tool: "dmfb-route",
			args: []string{"-w", "12", "-h", "8", "-d", "0,0:11,7", "-d", "11,0:0,7"}},
		{name: "bench_baseline", tool: "dmfb-bench",
			args: []string{"-exp", "baseline"}, normalise: stripBenchTimings},
		{name: "bench_table1", tool: "dmfb-bench",
			args: []string{"-exp", "table1"}, normalise: stripBenchTimings},
	}
}

func TestCLIGolden(t *testing.T) {
	bin := buildCLI(t)
	work := t.TempDir()
	update := os.Getenv("DMFB_UPDATE_GOLDEN") != ""

	for _, tc := range goldenCases(work) {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(bin, tc.tool), tc.args...)
			out, err := cmd.Output()
			exit := 0
			if ee, ok := err.(*exec.ExitError); ok {
				exit = ee.ExitCode()
			} else if err != nil {
				t.Fatalf("%s %v: %v", tc.tool, tc.args, err)
			}
			if exit != tc.wantExit {
				t.Fatalf("%s %v exited %d, want %d\n%s", tc.tool, tc.args, exit, tc.wantExit, out)
			}
			got := string(out)
			if tc.normalise != nil {
				got = tc.normalise(got)
			}
			compareGolden(t, tc.name+".golden", got, update)
		})
	}
}

// TestCLIGoldenCampaign pins the deterministic slice of a campaign
// run: the summary and predicted FTI from -json (the human output ends
// with wall-clock timings, which are not stable).
func TestCLIGoldenCampaign(t *testing.T) {
	bin := buildCLI(t)
	update := os.Getenv("DMFB_UPDATE_GOLDEN") != ""
	jsonPath := filepath.Join(t.TempDir(), "campaign.json")
	cmd := exec.Command(filepath.Join(bin, "dmfb-campaign"),
		"-trials", "300", "-seed", "7", "-quiet", "-json", jsonPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dmfb-campaign: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Summary      json.RawMessage `json:"summary"`
		PredictedFTI float64         `json:"predicted_fti"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("campaign JSON invalid: %v\n%s", err, raw)
	}
	stable, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "campaign_summary.golden", string(stable)+"\n", update)
}

// TestCLIGoldenAssayCampaign pins the deterministic summary of an
// end-to-end assay campaign: every trial runs the whole schedule on the
// chip simulator under the recovery ladder, with transient faults.
func TestCLIGoldenAssayCampaign(t *testing.T) {
	bin := buildCLI(t)
	update := os.Getenv("DMFB_UPDATE_GOLDEN") != ""
	sumPath := filepath.Join(t.TempDir(), "summary.json")
	cmd := exec.Command(filepath.Join(bin, "dmfb-campaign"),
		"-mode", "assay", "-recovery", "ladder", "-transient", "0.15",
		"-trials", "300", "-seed", "7", "-quiet", "-summary", sumPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dmfb-campaign: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(sumPath)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "campaign_assay_summary.golden", string(raw), update)
}

func compareGolden(t *testing.T, name, got string, update bool) {
	t.Helper()
	path := filepath.Join("testdata", "cli_golden", name)
	if update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with DMFB_UPDATE_GOLDEN=1): %v", name, err)
	}
	if got != string(want) {
		t.Errorf("%s: output diverged from golden.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
