package sim

import "testing"

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
