// Monte-Carlo validation: the fault tolerance index is defined as the
// fraction of C-covered cells (paper Section 5.2) — so under the
// uniform single-fault model it should equal the probability that a
// random fault is survivable by partial reconfiguration. This example
// validates that empirically across placements of varying FTI, and
// extends the analysis to multiple accumulated faults (beyond the
// paper's single-fault assumption).
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

	// Build placements across the fault-tolerance spectrum.
	minimal, _, err := dmfb.PlaceAnneal(prob, dmfb.PlacerOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	designs := []struct {
		label string
		p     *dmfb.Placement
	}{{"area-minimal", minimal}}
	for _, beta := range []float64{20, 40, 60} {
		two, err := dmfb.PlaceFaultTolerant(prob, dmfb.PlacerOptions{Seed: 1},
			dmfb.FTOptions{Beta: beta, Restarts: 2})
		if err != nil {
			log.Fatal(err)
		}
		designs = append(designs, struct {
			label string
			p     *dmfb.Placement
		}{fmt.Sprintf("two-stage beta=%.0f", beta), two.Final})
	}

	fmt.Printf("%-22s %8s %12s %12s %10s %10s\n",
		"design", "cells", "FTI", "MC(1 fault)", "MC(2)", "MC(3)")
	for _, d := range designs {
		single, err := dmfb.MonteCarloSingleFault(d.p, 20000, 7)
		if err != nil {
			log.Fatal(err)
		}
		two, err := dmfb.MonteCarloMultiFault(d.p, 2, 4000, 7)
		if err != nil {
			log.Fatal(err)
		}
		three, err := dmfb.MonteCarloMultiFault(d.p, 3, 4000, 7)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8d %12.4f %12.4f %10.4f %10.4f\n",
			d.label, d.p.ArrayCells(), single.PredictedFTI,
			single.SurvivalRate(), two.SurvivalRate(), three.SurvivalRate())
	}
	fmt.Println("\nMC(1 fault) converges to the FTI: the index is exactly the")
	fmt.Println("single-fault survival probability. Accumulating faults degrade")
	fmt.Println("survival fastest on compact placements — the motivation for the")
	fmt.Println("paper's frequent test-and-reconfigure regime.")
}
