// PCR placement study: reproduces the paper's Section 6 comparison on
// the polymerase-chain-reaction mixing stage — greedy baseline versus
// area-only simulated annealing (Figure 7) versus the two-stage
// fault-tolerant placer (Figure 8).
package main

import (
	"fmt"
	"log"

	"dmfb"
)

func main() {
	sched, err := dmfb.PCRSchedule()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("PCR mixing stage:", len(sched.BoundItems()), "mixing modules, makespan", sched.Makespan, "s")
	fmt.Print(dmfb.RenderSchedule(sched))
	fmt.Println()

	prob := dmfb.PlacementProblemOf(sched)

	// Section 6.1 baseline: largest-area-first, bottom-left greedy.
	greedy, err := dmfb.PlaceGreedy(prob, true)
	if err != nil {
		log.Fatal(err)
	}
	report("greedy baseline", greedy)

	// Section 4 / Figure 7: simulated annealing, area as the only cost
	// metric. Paper: 63 cells = 141.75 mm2, 25% below the baseline.
	sa, _, err := dmfb.PlaceAnneal(prob, dmfb.PlacerOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	report("annealing (area only)", sa)
	fmt.Printf("  improvement over greedy: %.1f%%\n\n",
		100*(1-float64(sa.ArrayCells())/float64(greedy.ArrayCells())))

	// Section 6.2 / Figure 8: two-stage fault-tolerant placement.
	// Paper: FTI 0.1270 -> 0.8052 for 22.2% more area.
	two, err := dmfb.PlaceFaultTolerant(prob,
		dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
		dmfb.FTOptions{Beta: 30})
	if err != nil {
		log.Fatal(err)
	}
	report("two-stage (beta=30)", two.Final)
	f1 := dmfb.ComputeFTI(two.Stage1).FTI()
	f2 := dmfb.ComputeFTI(two.Final).FTI()
	fmt.Printf("  FTI %.4f -> %.4f (%.0f%% gain) for %.1f%% more area\n",
		f1, f2, 100*(f2-f1)/f1,
		100*(float64(two.Final.ArrayCells())/float64(two.Stage1.ArrayCells())-1))
	fmt.Println("\ncoverage map of the fault-tolerant placement ('+' = survivable fault):")
	fmt.Print(dmfb.RenderCoverage(dmfb.ComputeFTI(two.Final)))
}

func report(label string, p *dmfb.Placement) {
	r := dmfb.ComputeFTI(p)
	fmt.Printf("%s:\n", label)
	fmt.Print(dmfb.RenderPlacement(p))
	fmt.Printf("  %d cells = %.2f mm2, FTI %.4f\n\n",
		p.ArrayCells(), dmfb.AreaMM2(p.ArrayCells()), r.FTI())
}
