// On-line testing: demonstrates the test-droplet methodology the paper
// relies on for fault detection (references [13], [14]). A test
// droplet sweeps the array; a faulty electrode cannot pull the droplet
// onto itself, so the droplet sticks and the capacitive sensor at the
// sink never sees it arrive — detecting and localising the defect.
// The located fault then drives partial reconfiguration of the
// placement, closing the detect -> reconfigure -> continue loop.
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
	two, err := dmfb.PlaceFaultTolerant(prob,
		dmfb.PlacerOptions{Seed: 1, Search: dmfb.SearchOptions{Starts: 2}},
		dmfb.FTOptions{Beta: 60})
	if err != nil {
		log.Fatal(err)
	}
	p := two.Final
	array := p.BoundingBox()

	// Manufacture the chip for this placement and run the post-
	// fabrication structural test.
	chip := dmfb.NewChip(array.W, array.H)
	fmt.Println("post-fabrication test:", dmfb.TestArray(chip))

	// A defect appears during field operation.
	defect := dmfb.Point{X: array.X + 2, Y: array.Y + 2}
	chip.InjectFault(defect)

	// Off-assay sweep detects and localises it.
	rep := dmfb.TestArray(chip)
	fmt.Println("field test:", rep)
	if !rep.Faulty {
		log.Fatal("fault not detected")
	}

	// On-line variant: the same sweep skipping currently-active module
	// regions, runnable concurrently with the assay.
	var keepOut []dmfb.Rect
	for i := range p.Modules {
		keepOut = append(keepOut, p.Rect(i))
	}
	fmt.Println("concurrent test (modules masked):", dmfb.TestArrayOnline(chip, keepOut))

	// The localised fault drives partial reconfiguration.
	work := p.Clone()
	rels, err := dmfb.Recover(work, array, rep.FaultCell)
	if err != nil {
		log.Fatalf("reconfiguration failed: %v", err)
	}
	fmt.Printf("reconfigured %d module(s) away from %v:\n", len(rels), rep.FaultCell)
	for _, r := range rels {
		fmt.Println("  ", r)
	}
	fmt.Println("\nplacement after recovery:")
	fmt.Print(dmfb.RenderPlacement(work))

	// Multi-fault localisation: two more defects accumulate.
	chip.InjectFault(dmfb.Point{X: array.X, Y: array.Y})
	chip.InjectFault(dmfb.Point{X: array.X + 4, Y: array.Y + 1})
	fmt.Println("all faults localised by repeated sweeps:", dmfb.LocateAllFaults(chip))
}
