package core

import (
	"testing"

	"dmfb/internal/geom"
	"dmfb/internal/place"
)

func TestObstacleHits(t *testing.T) {
	mods := []place.Module{mod(0, "A", 2, 2, 0, 5), mod(1, "B", 2, 2, 0, 5)}
	p := place.New(mods)
	p.Pos[1] = geom.Point{X: 3, Y: 0}
	prob := Problem{Modules: mods, MaxW: 8, MaxH: 8,
		Obstacles: []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 1}, {X: 7, Y: 7}}}
	if got := prob.obstacleHits(p); got != 2 {
		t.Errorf("obstacleHits = %d, want 2", got)
	}
}

func TestGreedyAvoidsObstacles(t *testing.T) {
	mods := []place.Module{mod(0, "A", 2, 2, 0, 5), mod(1, "B", 3, 2, 0, 5)}
	prob := Problem{Modules: mods, MaxW: 8, MaxH: 8,
		Obstacles: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 4, Y: 0}}}
	p, err := Greedy(prob, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mods {
		for _, o := range prob.Obstacles {
			if p.Rect(i).Contains(o) {
				t.Errorf("module %d covers obstacle %v", i, o)
			}
		}
	}
}

func TestAnnealAreaClearsObstacles(t *testing.T) {
	mods := []place.Module{
		mod(0, "A", 3, 3, 0, 5), mod(1, "B", 2, 4, 0, 5), mod(2, "C", 2, 2, 2, 8),
	}
	prob := Problem{Modules: mods, MaxW: 9, MaxH: 9,
		Obstacles: []geom.Point{{X: 4, Y: 4}, {X: 0, Y: 0}}}
	p, _, err := AnnealArea(prob, Options{Seed: 3, ItersPerModule: 120, WindowPatience: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if hits := prob.obstacleHits(p); hits != 0 {
		t.Fatalf("placement covers %d obstacle cells", hits)
	}
}
