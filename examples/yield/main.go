// Yield analysis: extends the paper's uniform single-fault model to a
// defect-density model — every cell of the fabricated array fails
// independently with probability q — and measures the fraction of
// chips each design can still operate, with partial reconfiguration
// alone and with full re-placement as a fallback. This quantifies the
// safety-critical argument of Section 6.3: the extra area a large β
// buys is exactly what keeps yield high as defect density rises.
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

	minimal, _, err := dmfb.PlaceAnneal(prob, dmfb.PlacerOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	tolerant, err := dmfb.PlaceFaultTolerant(prob,
		dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
		dmfb.FTOptions{Beta: 60})
	if err != nil {
		log.Fatal(err)
	}

	light := dmfb.PlacerOptions{Seed: 1, ItersPerModule: 60, WindowPatience: 3}
	densities := []float64{0.002, 0.01, 0.03, 0.08}
	const trials = 150

	fmt.Printf("%-28s", "design \\ defect density q")
	for _, q := range densities {
		fmt.Printf("%10.3f", q)
	}
	fmt.Println()
	for _, d := range []struct {
		label string
		p     *dmfb.Placement
	}{
		{"area-minimal, partial", minimal},
		{"fault-tolerant, partial", tolerant.Final},
	} {
		fmt.Printf("%-28s", d.label)
		for _, q := range densities {
			y, err := dmfb.EstimateYield(d.p, q, trials, 11, false, light)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10.3f", y.SurvivalRate())
		}
		fmt.Println()
	}
	for _, d := range []struct {
		label string
		p     *dmfb.Placement
	}{
		{"area-minimal, +full", minimal},
		{"fault-tolerant, +full", tolerant.Final},
	} {
		fmt.Printf("%-28s", d.label)
		for _, q := range densities {
			y, err := dmfb.EstimateYield(d.p, q, trials, 11, true, light)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%10.3f", y.SurvivalRate())
		}
		fmt.Println()
	}
	fmt.Println("\n(yield = fraction of chips that can still run the assay after")
	fmt.Println(" absorbing all of their defects by reconfiguration)")
}
