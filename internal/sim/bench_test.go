package sim

import (
	"testing"

	"dmfb/internal/reconfig"
)

// BenchmarkSimRun times one fault-free run of the PCR schedule on the
// assay-campaign chip under the recovery ladder: the simulator cost of
// a campaign trial that needs no recovery (dispense, route, merge, park
// and collect decisions only).
func BenchmarkSimRun(b *testing.B) {
	s, p := campaignChip(b)
	opts := Options{Recovery: RecoveryLadder}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Run(s, p, opts); !res.Completed {
			b.Fatalf("fault-free run failed: %s", res.FailReason)
		}
	}
}

// BenchmarkPlanSweep times partial-reconfiguration planning for a
// fault at every cell of the assay-campaign chip, one op per sweep:
// the relocation-site search each L1 recovery runs.
func BenchmarkPlanSweep(b *testing.B) {
	_, p := campaignChip(b)
	array := p.BoundingBox()
	cells := array.Points()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			reconfig.Plan(nil, p, array, c)
		}
	}
}
