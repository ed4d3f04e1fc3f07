// Fault recovery: runs the PCR assay on the chip simulator and injects
// a cell fault mid-run. On a fault-tolerant placement the simulator
// performs partial reconfiguration (paper Section 5.1): the module
// using the failed cell is relocated by reprogramming electrodes, its
// droplet is re-routed, and the assay finishes. The same fault aborts
// the assay on the area-minimal placement.
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

	// Two designs for the same assay.
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

	for _, c := range []struct {
		label string
		p     *dmfb.Placement
	}{
		{"area-minimal placement", minimal},
		{"fault-tolerant placement (beta=60)", tolerant.Final},
	} {
		cov := dmfb.ComputeFTI(c.p)
		fmt.Printf("=== %s: %d cells, FTI %.4f ===\n", c.label, c.p.ArrayCells(), cov.FTI())

		// Fail a cell that is actually in use by some module.
		fault, ok := busiestCell(c.p)
		if !ok {
			log.Fatal("no module cell found")
		}
		res := dmfb.Simulate(sched, c.p, dmfb.SimOptions{},
			dmfb.FaultInjection{TimeSec: 2, Cell: dmfb.ArrayCell(dmfb.SimOptions{}, fault)})
		fmt.Printf("fault injected at array cell %v at t=2s\n", fault)
		if res.Completed {
			fmt.Printf("RECOVERED: %d relocation(s), assay finished in %d s (+%d ms transport)\n",
				len(res.Relocations), res.MakespanSec, res.TransportMS)
			for _, r := range res.Relocations {
				fmt.Println("  ", r)
			}
			fmt.Println("  master mix:", res.ProductFluids[0])
		} else {
			fmt.Printf("ABORTED: %s\n", res.FailReason)
		}
		fmt.Println()
	}
}

// busiestCell returns the cell used by the most modules (the most
// disruptive single fault).
func busiestCell(p *dmfb.Placement) (dmfb.Point, bool) {
	array := p.BoundingBox()
	best := dmfb.Point{}
	bestN := 0
	for y := 0; y < array.H; y++ {
		for x := 0; x < array.W; x++ {
			cell := dmfb.Point{X: array.X + x, Y: array.Y + y}
			if n := len(p.ModulesAt(cell)); n > bestN {
				best, bestN = cell, n
			}
		}
	}
	return best, bestN > 0
}
