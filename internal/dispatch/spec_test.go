package dispatch

import (
	"math"
	"strings"
	"testing"

	"dmfb/internal/campaign"
	"dmfb/internal/defect"
)

func TestSpecNameYieldVariants(t *testing.T) {
	cases := []struct {
		sp   Spec
		want string
	}{
		{Spec{Mode: "yield", Q: 0.02}, "yield-q0.02"},
		{Spec{Mode: "yield", Q: 0.02, DefectModel: defect.ModelClustered}, "yield-clustered-q0.02"},
		{Spec{Mode: "yield", DefectModel: defect.ModelFile, DefectMap: "X.\n..\n"}, "yield-file"},
		{Spec{Mode: "yield", Q: 0.02, Spares: 2}, "yield-q0.02-s2"},
		{Spec{Mode: "yield", Q: 0.02, Ladder: true}, "yield-q0.02-ladder"},
		{Spec{Mode: "yield", Q: 0.02, DefectModel: defect.ModelClustered, Spares: 4, Ladder: true},
			"yield-clustered-q0.02-s4-ladder"},
	}
	for _, c := range cases {
		if got := c.sp.Name(); got != c.want {
			t.Errorf("Name(%+v) = %q, want %q", c.sp, got, c.want)
		}
	}
}

func TestSpecValidateDefectExtensions(t *testing.T) {
	cases := []struct {
		name string
		sp   Spec
		want string // substring of the error; "" means valid
	}{
		{"clustered ok", Spec{Mode: "yield", Trials: 8, Q: 0.02, DefectModel: defect.ModelClustered}, ""},
		{"file ok", Spec{Mode: "yield", Trials: 8, DefectModel: defect.ModelFile, DefectMap: "..X.\n....\n"}, ""},
		{"unknown model", Spec{Mode: "yield", Trials: 8, DefectModel: "salt"}, "unknown model"},
		{"file without map", Spec{Mode: "yield", Trials: 8, DefectModel: defect.ModelFile}, "map"},
		{"bad cluster size", Spec{Mode: "yield", Trials: 8, DefectModel: defect.ModelClustered, ClusterSize: 999}, "cluster"},
		{"spares too big", Spec{Mode: "yield", Trials: 8, Q: 0.02, Spares: 9}, "spare budget"},
		{"spares negative", Spec{Mode: "yield", Trials: 8, Q: 0.02, Spares: -1}, "spare budget"},
		{"spares on multi ok", Spec{Mode: "multi", Trials: 8, Spares: 2}, ""},
		// Non-yield modes never touch the defect params, so a stale
		// defect field cannot invalidate them.
		{"multi ignores defect model", Spec{Mode: "multi", Trials: 8, DefectModel: "salt"}, ""},
		{"map without file model", Spec{Mode: "yield", Trials: 8, DefectMap: "X.\n"}, "file model"},
		// The trust-boundary bounds.
		{"trials at cap", Spec{Mode: "multi", Trials: MaxTrials}, ""},
		{"trials over cap", Spec{Mode: "multi", Trials: MaxTrials + 1}, "trial count"},
		{"trials 2^40", Spec{Mode: "multi", Trials: 1 << 40}, "trial count"},
		{"no trials", Spec{Mode: "multi"}, "trial count"},
		{"transient 1", Spec{Mode: "assay", Trials: 8, Transient: 1}, ""},
		{"transient 7", Spec{Mode: "assay", Trials: 8, Transient: 7}, "transient"},
		{"transient negative", Spec{Mode: "assay", Trials: 8, Transient: -0.1}, "transient"},
		{"transient NaN", Spec{Mode: "assay", Trials: 8, Transient: math.NaN()}, "transient"},
	}
	for _, c := range cases {
		err := c.sp.Normalized().Validate(false)
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestSpecValidateRaw: Validate judges the values as given, so a zero
// the wire reads as "default" is an error when it comes from a flag.
func TestSpecValidateRaw(t *testing.T) {
	for _, c := range []struct {
		name string
		sp   Spec
		want string
	}{
		{"zero q", Spec{Mode: "yield", Trials: 8, K: 2, DefectModel: defect.ModelUniform}, "q=0"},
		{"zero k", Spec{Mode: "multi", Trials: 8, Q: 0.01}, "k=0"},
		{"empty defect model", Spec{Mode: "yield", Trials: 8, K: 2, Q: 0.01}, "unknown model"},
		{"empty mode", Spec{Trials: 8, K: 2, Q: 0.01}, "unknown mode"},
		// Zero normalizes to place seed 2 and cluster radius 2, so an
		// explicit zero would silently run the default.
		{"zero place seed", Spec{Mode: "multi", Trials: 8, K: 2, Q: 0.01, Recovery: "l1"}, "place seed 0"},
		{"zero cluster radius", Spec{Mode: "yield", Trials: 8, K: 2, Q: 0.01, Recovery: "l1", PlaceSeed: 2,
			DefectModel: defect.ModelClustered, ClusterSize: 4}, "cluster radius 0"},
	} {
		if err := c.sp.Validate(false); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.want)
		}
		if err := c.sp.Normalized().Validate(false); err != nil {
			t.Errorf("%s: normalized spec rejected: %v", c.name, err)
		}
	}
}

// TestSpecFingerprintLegacyStability pins the fingerprint of a plain
// uniform yield spec to the pre-defect-model formula: recorded
// checkpoints from before the generalization must still resume. A
// Full spec must not: its trials now re-place inside the fabricated
// array (the ladder's L3), so its old checkpoints refuse to resume.
func TestSpecFingerprintLegacyStability(t *testing.T) {
	sp := Spec{Mode: "yield", Trials: 512, Q: 0.05}.Normalized()
	legacy := campaign.ConfigFingerprint("dmfb-campaign",
		sp.Mode, sp.K, sp.Q, sp.Full, sp.Recovery, sp.Transient, sp.PlaceSeed)
	if got := sp.Fingerprint(); got != legacy {
		t.Errorf("uniform yield fingerprint %s drifted from legacy %s", got, legacy)
	}
	sp.Full = true
	legacyFull := campaign.ConfigFingerprint("dmfb-campaign",
		sp.Mode, sp.K, sp.Q, sp.Full, sp.Recovery, sp.Transient, sp.PlaceSeed)
	if got := sp.Fingerprint(); got == legacyFull {
		t.Errorf("full yield fingerprint %s still equals the bounding-box fallback's", got)
	}
	// Same for the other modes, which never carry defect extensions.
	for _, mode := range []string{"single", "multi", "assay", "exhaustive"} {
		sp := Spec{Mode: mode, Trials: 16}.Normalized()
		legacy := campaign.ConfigFingerprint("dmfb-campaign",
			sp.Mode, sp.K, sp.Q, sp.Full, sp.Recovery, sp.Transient, sp.PlaceSeed)
		if got := sp.Fingerprint(); got != legacy {
			t.Errorf("%s fingerprint %s drifted from legacy %s", mode, got, legacy)
		}
	}
}

// TestSpecFingerprintGolden pins literal fingerprints of a multi and a
// yield spec: recorded checkpoints of these campaigns must keep
// resuming.
func TestSpecFingerprintGolden(t *testing.T) {
	for _, c := range []struct {
		sp   Spec
		want string
	}{
		{Spec{Mode: "multi", K: 3}, "fa9954cf1c954114"},
		{Spec{Mode: "yield", Q: 0.02}, "b64863ff273dd2f4"},
	} {
		if got := c.sp.Fingerprint(); got != c.want {
			t.Errorf("Fingerprint(%+v) = %s, golden %s", c.sp, got, c.want)
		}
	}
}

func TestSpecFingerprintDistinguishesDefectExtensions(t *testing.T) {
	base := Spec{Mode: "yield", Trials: 64, Q: 0.02}
	variants := []Spec{
		base,
		{Mode: "yield", Trials: 64, Q: 0.02, DefectModel: defect.ModelClustered},
		{Mode: "yield", Trials: 64, Q: 0.02, DefectModel: defect.ModelClustered, ClusterSize: 8},
		{Mode: "yield", Trials: 64, Q: 0.02, DefectModel: defect.ModelClustered, ClusterRadius: 4},
		{Mode: "yield", Trials: 64, DefectModel: defect.ModelFile, DefectMap: "X.\n..\n"},
		{Mode: "yield", Trials: 64, DefectModel: defect.ModelFile, DefectMap: ".X\n..\n"},
		{Mode: "yield", Trials: 64, Q: 0.02, Spares: 2},
		{Mode: "yield", Trials: 64, Q: 0.02, Spares: 4},
		{Mode: "yield", Trials: 64, Q: 0.02, Ladder: true},
	}
	seen := map[string]Spec{}
	for _, sp := range variants {
		fp := sp.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("specs %+v and %+v share fingerprint %s", prev, sp, fp)
		}
		seen[fp] = sp
	}
	// Trials and Seed stay outside the fingerprint (the checkpoint
	// header pins them), even with extensions present.
	a := Spec{Mode: "yield", Trials: 64, Q: 0.02, Spares: 2, Seed: 1}
	b := Spec{Mode: "yield", Trials: 128, Q: 0.02, Spares: 2, Seed: 9}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("trials/seed leaked into the extended fingerprint")
	}
}
