package core_test

import (
	"fmt"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/pcr"
)

// The golden values below were captured from the clone-and-recompute
// placer immediately BEFORE the incremental move/delta/revert kernel
// replaced it. The move-based engine must replay those runs bit for
// bit: same RNG consumption, same floating-point cost values, same
// accept/reject sequence, hence byte-identical placements and
// identical level/evaluation counts.

func goldenOptions(seed int64) core.Options {
	return core.Options{Seed: seed, ItersPerModule: 150, WindowPatience: 5}
}

func TestGoldenAnnealArea(t *testing.T) {
	cases := []struct {
		seed      int64
		cells     int
		levels    int
		evals     int
		cost      float64
		placement string
	}{
		{
			seed: 1, cells: 64, levels: 70, evals: 73501, cost: 64,
			placement: "placement: array 8x8 = 64 cells\n" +
				"  M1   [0,4 4x4] [0,10)\n" +
				"  M3   [0,0 5x4] [0,6)\n" +
				"  M4   [5,0 3x6] [0,5)\n" +
				"  M2   [5,2 3x6] [5,10)\n" +
				"  M6   [1,0 4x4] [6,16)\n" +
				"  M5   [0,5 6x3] [10,15)\n" +
				"  M7   [0,4 6x4] [16,19)\n",
		},
		{
			seed: 7, cells: 80, levels: 70, evals: 73501, cost: 80,
			placement: "placement: array 8x10 = 80 cells\n" +
				"  M1   [0,0 4x4] [0,10)\n" +
				"  M3   [0,6 5x4] [0,6)\n" +
				"  M4   [5,4 3x6] [0,5)\n" +
				"  M2   [5,2 3x6] [5,10)\n" +
				"  M6   [0,6 4x4] [6,16)\n" +
				"  M5   [2,0 6x3] [10,15)\n" +
				"  M7   [4,2 4x6] [16,19)\n",
		},
	}
	prob := core.FromSchedule(pcr.MustSchedule())
	for _, tc := range cases {
		t.Run(fmt.Sprintf("seed%d", tc.seed), func(t *testing.T) {
			p, st, err := core.AnnealArea(prob, goldenOptions(tc.seed))
			if err != nil {
				t.Fatalf("AnnealArea: %v", err)
			}
			if p.ArrayCells() != tc.cells {
				t.Errorf("cells = %d, golden %d", p.ArrayCells(), tc.cells)
			}
			if st.Levels != tc.levels || st.Evaluations != tc.evals {
				t.Errorf("stats = %d levels / %d evals, golden %d / %d",
					st.Levels, st.Evaluations, tc.levels, tc.evals)
			}
			if st.FinalCost != tc.cost {
				t.Errorf("cost = %v, golden %v", st.FinalCost, tc.cost)
			}
			if got := p.String(); got != tc.placement {
				t.Errorf("placement diverged from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, tc.placement)
			}
		})
	}
}

func TestGoldenTwoStage(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())

	t.Run("beta40_seed1", func(t *testing.T) {
		res, err := core.TwoStage(prob, goldenOptions(1), core.FTOptions{Beta: 40})
		if err != nil {
			t.Fatalf("TwoStage: %v", err)
		}
		if res.Stage1.ArrayCells() != 64 {
			t.Errorf("stage-1 cells = %d, golden 64", res.Stage1.ArrayCells())
		}
		if res.Final.ArrayCells() != 72 {
			t.Errorf("final cells = %d, golden 72", res.Final.ArrayCells())
		}
		if got := fmt.Sprintf("%.6f", fti.Compute(res.Final).FTI()); got != "0.625000" {
			t.Errorf("FTI = %s, golden 0.625000", got)
		}
		want := "placement: array 8x9 = 72 cells\n" +
			"  M1   [1,5 4x4] [0,10)\n" +
			"  M3   [0,0 5x4] [0,6)\n" +
			"  M4   [5,0 3x6] [0,5)\n" +
			"  M2   [5,2 3x6] [5,10)\n" +
			"  M6   [0,0 4x4] [6,16)\n" +
			"  M5   [0,5 6x3] [10,15)\n" +
			"  M7   [0,4 6x4] [16,19)\n"
		if got := res.Final.String(); got != want {
			t.Errorf("final placement diverged from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})

	t.Run("beta30_seed3", func(t *testing.T) {
		res, err := core.TwoStage(prob, goldenOptions(3), core.FTOptions{Beta: 30})
		if err != nil {
			t.Fatalf("TwoStage: %v", err)
		}
		if res.Final.ArrayCells() != 77 {
			t.Errorf("final cells = %d, golden 77", res.Final.ArrayCells())
		}
		if got := fmt.Sprintf("%.6f", fti.Compute(res.Final).FTI()); got != "0.857143" {
			t.Errorf("FTI = %s, golden 0.857143", got)
		}
		want := "placement: array 7x11 = 77 cells\n" +
			"  M1   [3,0 4x4] [0,10)\n" +
			"  M3   [2,7 5x4] [0,6)\n" +
			"  M4   [0,0 3x6] [0,5)\n" +
			"  M2   [0,0 3x6] [5,10)\n" +
			"  M6   [0,7 4x4] [6,16)\n" +
			"  M5   [1,3 6x3] [10,15)\n" +
			"  M7   [2,1 4x6] [16,19)\n"
		if got := res.Final.String(); got != want {
			t.Errorf("final placement diverged from pre-refactor golden:\ngot:\n%s\nwant:\n%s", got, want)
		}
	})
}
