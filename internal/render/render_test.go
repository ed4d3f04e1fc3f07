package render

import (
	"strings"
	"testing"

	"dmfb/internal/core"
	"dmfb/internal/fti"
	"dmfb/internal/geom"
	"dmfb/internal/pcr"
	"dmfb/internal/place"
)

func samplePlacement() *place.Placement {
	mods := []place.Module{
		{ID: 0, Name: "A", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 0, End: 5}},
		{ID: 1, Name: "B", Size: geom.Size{W: 2, H: 2}, Span: geom.Interval{Start: 5, End: 9}},
	}
	p := place.New(mods)
	p.Pos[1] = geom.Point{X: 2, Y: 0}
	return p
}

func TestPlacementASCII(t *testing.T) {
	p := samplePlacement()
	s := PlacementASCII(p)
	if !strings.Contains(s, "array 4x2 = 8 cells") {
		t.Errorf("header missing:\n%s", s)
	}
	if !strings.Contains(s, "1122") {
		t.Errorf("module rows wrong:\n%s", s)
	}
	if !strings.Contains(s, "1 = A") || !strings.Contains(s, "2 = B") {
		t.Errorf("legend missing:\n%s", s)
	}
	// Time-shared cells show the earlier module.
	q := place.New(p.Modules) // both at origin, disjoint spans
	s2 := PlacementASCII(q)
	if !strings.Contains(s2, "11") || strings.Contains(s2, "22") {
		t.Errorf("time-shared cells should show the earlier module:\n%s", s2)
	}
	if PlacementASCII(place.New(nil)) != "(empty placement)" {
		t.Error("empty placement rendering wrong")
	}
}

func TestCoverageASCII(t *testing.T) {
	p := place.New([]place.Module{
		{ID: 0, Name: "A", Size: geom.Size{W: 3, H: 3}, Span: geom.Interval{Start: 0, End: 5}},
	})
	r := fti.ComputeOn(p, geom.Rect{X: 0, Y: 0, W: 3, H: 3})
	s := CoverageASCII(r)
	if !strings.Contains(s, "FTI 0.0000") {
		t.Errorf("FTI header wrong:\n%s", s)
	}
	gridPart := s[strings.Index(s, "\n")+1:] // header contains "3x3"
	if strings.Count(gridPart, "x") != 9 {
		t.Errorf("want 9 uncovered cells:\n%s", s)
	}
}

func TestScheduleASCII(t *testing.T) {
	s := ScheduleASCII(pcr.MustSchedule())
	for _, name := range pcr.MixNames {
		if !strings.Contains(s, name) {
			t.Errorf("missing %s:\n%s", name, s)
		}
	}
	if !strings.Contains(s, "makespan 19s") {
		t.Errorf("makespan missing:\n%s", s)
	}
	// M1 runs 10 of the 19 columns.
	lines := strings.Split(s, "\n")
	var m1 string
	for _, l := range lines {
		if strings.HasPrefix(l, "M1") {
			m1 = l
		}
	}
	bar := m1[strings.Index(m1, "|")+1:]
	if strings.Count(bar, "1") != 10 {
		t.Errorf("M1 row wrong: %q", m1)
	}
}

func TestPlacementSVG(t *testing.T) {
	p := samplePlacement()
	svg := PlacementSVG(p, 0) // default cell size
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Error("not a standalone SVG document")
	}
	if strings.Count(svg, "<rect") != 2 {
		t.Errorf("want 2 module rects:\n%s", svg)
	}
	if !strings.Contains(svg, ">A [0,5)</text>") || !strings.Contains(svg, ">B [5,9)</text>") {
		t.Errorf("labels missing:\n%s", svg)
	}
}

func TestGlyphsStayDistinctOnPCR(t *testing.T) {
	prob := core.FromSchedule(pcr.MustSchedule())
	g, err := core.Greedy(prob, true)
	if err != nil {
		t.Fatal(err)
	}
	s := PlacementASCII(g)
	for i := range g.Modules {
		if !strings.ContainsRune(s, rune(moduleGlyph(i))) {
			t.Errorf("glyph for module %d missing:\n%s", i, s)
		}
	}
	if moduleGlyph(99) != '?' {
		t.Error("overflow glyph wrong")
	}
}

func TestGanttSVG(t *testing.T) {
	s := pcr.MustSchedule()
	svg := GanttSVG(s, 0)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a standalone SVG document")
	}
	if strings.Count(svg, "<rect") != 7 {
		t.Errorf("want 7 module bars, got %d", strings.Count(svg, "<rect"))
	}
	for _, name := range pcr.MixNames {
		if !strings.Contains(svg, ">"+name+"</text>") {
			t.Errorf("label %s missing", name)
		}
	}
	if !strings.Contains(svg, ">15s</text>") {
		t.Error("time axis labels missing")
	}
}
