// Package render draws placements, schedules and coverage maps as
// ASCII pictures (for terminals and golden tests) and standalone SVG
// documents (for reports), reproducing the visual content of the
// paper's Figures 6, 7 and 8.
package render

import (
	"fmt"
	"sort"
	"strings"

	"dmfb/internal/fti"
	"dmfb/internal/place"
	"dmfb/internal/schedule"
)

// moduleGlyph returns the single-character label for module i: digits
// then letters, '?' beyond 61 modules.
func moduleGlyph(i int) byte {
	const glyphs = "1234567890ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
	if i < 0 || i >= len(glyphs) {
		return '?'
	}
	return glyphs[i]
}

// PlacementASCII draws the placement on its bounding array, top row
// first. Cells used by several (time-disjoint) modules show the
// module that starts first; free cells are '.'.
func PlacementASCII(p *place.Placement) string {
	bb := p.BoundingBox()
	if bb.Empty() {
		return "(empty placement)"
	}
	rows := make([][]byte, bb.H)
	for y := range rows {
		rows[y] = []byte(strings.Repeat(".", bb.W))
	}
	order := make([]int, len(p.Modules))
	for i := range order {
		order[i] = i
	}
	// Later-starting modules drawn first so the earliest-starting one
	// ends up visible on shared cells.
	sort.Slice(order, func(a, b int) bool {
		return p.Modules[order[a]].Span.Start > p.Modules[order[b]].Span.Start
	})
	for _, i := range order {
		r := p.Rect(i)
		for _, pt := range r.Points() {
			rows[pt.Y-bb.Y][pt.X-bb.X] = moduleGlyph(i)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "array %dx%d = %d cells\n", bb.W, bb.H, bb.Cells())
	for y := bb.H - 1; y >= 0; y-- {
		b.Write(rows[y])
		b.WriteByte('\n')
	}
	for i, m := range p.Modules {
		fmt.Fprintf(&b, "  %c = %-4s %v %s\n", moduleGlyph(i), m.Name, p.Rect(i), m.Span)
	}
	return b.String()
}

// CoverageASCII draws the C-coverage map of an FTI result: '+' for
// C-covered cells, 'x' for uncovered ones, top row first.
func CoverageASCII(r fti.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.String())
	for y := r.Array.H - 1; y >= 0; y-- {
		for x := 0; x < r.Array.W; x++ {
			if r.CoveredAt(x, y) {
				b.WriteByte('+')
			} else {
				b.WriteByte('x')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ScheduleASCII draws a Gantt chart of the bound operations, one row
// per module, one column per second.
func ScheduleASCII(s *schedule.Schedule) string {
	items := s.BoundItems()
	var b strings.Builder
	fmt.Fprintf(&b, "schedule %q, makespan %ds\n", s.Graph.Name, s.Makespan)
	fmt.Fprintf(&b, "%-8s|", "")
	for t := 0; t < s.Makespan; t++ {
		b.WriteByte("0123456789"[t%10])
	}
	b.WriteString("|\n")
	for i, it := range items {
		fmt.Fprintf(&b, "%-8s|", it.Op.Name)
		for t := 0; t < s.Makespan; t++ {
			if it.Span.Contains(t) {
				b.WriteByte(moduleGlyph(i))
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// svgPalette cycles distinguishable fills for modules.
var svgPalette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// PlacementSVG renders the placement as a standalone SVG document with
// one translucent rectangle per module over the array grid, in the
// style of the paper's Figure 7/8 drawings.
func PlacementSVG(p *place.Placement, cellPx int) string {
	if cellPx <= 0 {
		cellPx = 24
	}
	bb := p.BoundingBox()
	wPx, hPx := bb.W*cellPx, bb.H*cellPx
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		wPx+1, hPx+1, wPx+1, hPx+1)
	b.WriteString("\n")
	// Grid.
	for x := 0; x <= bb.W; x++ {
		fmt.Fprintf(&b, `<line x1="%d" y1="0" x2="%d" y2="%d" stroke="#ccc" stroke-width="1"/>`,
			x*cellPx, x*cellPx, hPx)
		b.WriteString("\n")
	}
	for y := 0; y <= bb.H; y++ {
		fmt.Fprintf(&b, `<line x1="0" y1="%d" x2="%d" y2="%d" stroke="#ccc" stroke-width="1"/>`,
			y*cellPx, wPx, y*cellPx)
		b.WriteString("\n")
	}
	// Modules (SVG y grows downward; flip).
	for i := range p.Modules {
		r := p.Rect(i)
		x := (r.X - bb.X) * cellPx
		y := (bb.MaxY() - r.MaxY()) * cellPx
		fill := svgPalette[i%len(svgPalette)]
		fmt.Fprintf(&b,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="%s" fill-opacity="0.55" stroke="#333"/>`,
			x, y, r.W*cellPx, r.H*cellPx, fill)
		b.WriteString("\n")
		fmt.Fprintf(&b,
			`<text x="%d" y="%d" font-family="monospace" font-size="%d" text-anchor="middle">%s %s</text>`,
			x+r.W*cellPx/2, y+r.H*cellPx/2+cellPx/6, cellPx/2,
			p.Modules[i].Name, p.Modules[i].Span)
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// GanttSVG renders the bound operations of a schedule as a standalone
// SVG Gantt chart (one bar per module over a time axis in seconds) —
// the visual form of the paper's Figure 6.
func GanttSVG(s *schedule.Schedule, secPx int) string {
	if secPx <= 0 {
		secPx = 24
	}
	items := s.BoundItems()
	const rowH, labelW, pad = 28, 64, 4
	wPx := labelW + s.Makespan*secPx + 1
	hPx := (len(items)+1)*rowH + 1
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		wPx, hPx, wPx, hPx)
	b.WriteString("\n")
	// Time grid and axis labels along the bottom.
	for t := 0; t <= s.Makespan; t++ {
		x := labelW + t*secPx
		fmt.Fprintf(&b, `<line x1="%d" y1="0" x2="%d" y2="%d" stroke="#eee"/>`, x, x, hPx-rowH)
		b.WriteString("\n")
		if t%5 == 0 {
			fmt.Fprintf(&b,
				`<text x="%d" y="%d" font-family="monospace" font-size="11" text-anchor="middle">%ds</text>`,
				x, hPx-rowH+14, t)
			b.WriteString("\n")
		}
	}
	for i, it := range items {
		y := i * rowH
		fmt.Fprintf(&b,
			`<text x="%d" y="%d" font-family="monospace" font-size="12">%s</text>`,
			pad, y+rowH/2+4, it.Op.Name)
		b.WriteString("\n")
		fill := svgPalette[i%len(svgPalette)]
		x := labelW + it.Span.Start*secPx
		w := it.Span.Len() * secPx
		fmt.Fprintf(&b,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="%s" fill-opacity="0.7" stroke="#333"/>`,
			x, y+pad, w, rowH-2*pad, fill)
		b.WriteString("\n")
		fmt.Fprintf(&b,
			`<text x="%d" y="%d" font-family="monospace" font-size="10" text-anchor="middle">%s %v</text>`,
			x+w/2, y+rowH/2+4, it.Device.Name, it.Device.Size)
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	return b.String()
}
