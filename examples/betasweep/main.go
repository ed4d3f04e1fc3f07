// Beta sweep: regenerates the paper's Table 2, the area versus fault
// tolerance trade-off controlled by the weight β. Small β suits
// disposable one-shot devices (area and cost matter); large β suits
// safety-critical chips such as implantable drug-dosing systems, where
// the array must survive any single-cell fault (FTI = 1).
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
	prob := dmfb.PlacementProblemOf(sched)

	betas := []float64{10, 20, 30, 40, 50, 60}
	points, err := dmfb.BetaSweep(prob,
		dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
		dmfb.FTOptions{}, betas)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Table 2: solutions for different values of beta")
	fmt.Printf("%-10s %10s %12s %8s\n", "beta", "cells", "area (mm2)", "FTI")
	for _, p := range points {
		fmt.Printf("%-10.0f %10d %12.2f %8.4f\n",
			p.Beta, p.Cells, dmfb.AreaMM2(p.Cells), p.FTI)
	}
	fmt.Println()
	fmt.Println("paper reference: 141.75..222.75 mm2 and FTI 0.2857..1.0 across the same betas")

	// Characterise the endpoints.
	lo, hi := points[0], points[len(points)-1]
	fmt.Printf("\nbeta=%.0f: %.2f mm2 at FTI %.2f — a disposable-device design point\n",
		lo.Beta, dmfb.AreaMM2(lo.Cells), lo.FTI)
	fmt.Printf("beta=%.0f: %.2f mm2 at FTI %.2f — a safety-critical design point\n",
		hi.Beta, dmfb.AreaMM2(hi.Cells), hi.FTI)
	if hi.FTI == 1 {
		fmt.Println("at FTI = 1.0 the chip tolerates ANY single faulty cell via partial reconfiguration")
	}
}
