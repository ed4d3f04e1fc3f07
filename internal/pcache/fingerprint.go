// Package pcache is the content-addressed placement cache of the
// compile-and-simulate pipeline. Placements are fully deterministic
// given (assay graph, module library, array size, placer, options,
// seed), so a repeated synthesis of a common assay — PCR, a
// multiplexed in-vitro panel — need not re-run the annealer: the
// cache serves a copy of the previously computed placement, which
// marshals byte-identically to a fresh run's.
//
// Keys are canonical SHA-256 fingerprints (see Fingerprint for the
// canonicalization rules); values are the placer's own placements plus
// annealing stats, held under an LRU byte budget. All operations are
// safe for concurrent use and every hit/miss/eviction is counted in
// the telemetry registry (pcache.* metrics).
package pcache

import (
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"strconv"

	"dmfb/internal/core"
	"dmfb/internal/geom"
	"dmfb/internal/modlib"
	"dmfb/internal/schedule"
)

// Key is a content-addressed cache key: the hex SHA-256 of the
// canonical encoding of everything a placement depends on.
type Key string

// Input bundles the placement-determining inputs of one pipeline run.
type Input struct {
	// Schedule is the synthesis result the placement problem was
	// extracted from; its sequencing graph and bound devices are part
	// of the key. Optional for raw placement problems.
	Schedule *schedule.Schedule
	// Library is the module catalogue used for binding. Optional; when
	// present its devices are part of the key, so the same assay bound
	// against a different library never aliases.
	Library *modlib.Library
	// Problem is the placement problem: modules, core area, obstacles.
	Problem core.Problem
	// Placer names the placement algorithm ("greedy",
	// "greedy-oblivious", "sa", "twostage").
	Placer string
	// Options configures the annealing placers. Canonicalized before
	// hashing: defaults are filled in, telemetry sinks are ignored.
	Options core.Options
	// FT configures stage 2. Hashed only for the "twostage" placer —
	// the other placers never read it, so it must not split their keys.
	FT core.FTOptions
}

// Fingerprint computes the content-addressed key of a placement
// request. Canonicalization rules (documented in DESIGN.md §12):
//
//   - The sequencing graph is encoded in operation-ID order with its
//     edge list; the schedule adds each item's time span and bound
//     device name.
//   - Library devices are encoded sorted by name.
//   - Placer options are canonicalized first (zero fields take the
//     paper's defaults, so an explicit default and a zero hash
//     identically); Tracer/Metrics never participate.
//   - Multi-start search participates through Starts and the seed
//     override only; Workers is a concurrency cap that never changes
//     the result, so it must never split (or alias) a key.
//   - FT options participate only when the placer is "twostage".
//   - The encoding is versioned ("pcache/v3"): change the encoding,
//     bump the version, and every old key misses rather than aliasing.
//
// The lines are the ones fmt's %d/%q/%s/%t/%g verbs would print,
// appended with strconv into one buffer and hashed once.
func Fingerprint(in Input) Key {
	b := append(make([]byte, 0, 2048), "dmfb pcache/v3\nplacer "...)
	b = append(append(b, in.Placer...), '\n')

	if s := in.Schedule; s != nil {
		b = appendQuote(append(b, "graph "...), s.Graph.Name)
		b = appendInt(append(b, " makespan="...), s.Makespan, '\n')
		for id := 0; id < s.Graph.NumOps(); id++ {
			op := s.Graph.Op(id)
			b = appendInt(append(b, "op "...), op.ID, ' ')
			b = append(appendQuote(b, op.Name), ' ')
			b = append(append(b, op.Kind.String()...), ' ')
			b = append(appendQuote(b, op.Fluid), '\n')
			for _, succ := range s.Graph.Succ(op.ID) {
				b = appendInt(append(b, "edge "...), op.ID, ' ')
				b = appendInt(b, succ, '\n')
			}
		}
		for i, it := range s.Items {
			dev := ""
			if it.Bound {
				dev = it.Device.Name
			}
			b = appendSpan(appendInt(append(b, "item "...), i, ' '), it.Span)
			b = strconv.AppendBool(append(b, " bound="...), it.Bound)
			b = append(appendQuote(append(b, " dev="...), dev), '\n')
		}
	}
	if in.Library != nil {
		devs := in.Library.Devices()
		sort.Slice(devs, func(a, b int) bool { return devs[a].Name < devs[b].Name })
		for _, d := range devs {
			b = append(appendQuote(append(b, "lib "...), d.Name), ' ')
			b = append(append(b, d.Kind.String()...), ' ')
			b = appendSize(b, d.Size, ' ')
			b = append(appendInt(b, d.Duration, 's'), '\n')
		}
	}

	b = appendSize(append(b, "core "...), geom.Size{W: in.Problem.MaxW, H: in.Problem.MaxH}, '\n')
	for _, m := range in.Problem.Modules {
		b = appendInt(append(b, "module "...), m.ID, ' ')
		b = append(appendQuote(b, m.Name), ' ')
		b = appendSize(b, m.Size, ' ')
		b = append(appendSpan(b, m.Span), '\n')
	}
	for _, o := range in.Problem.Obstacles {
		b = appendInt(append(b, "obstacle "...), o.X, ',')
		b = appendInt(b, o.Y, '\n')
	}

	b = appendOptions(b, in.Options.Canonicalized())
	if in.Placer == "twostage" {
		b = appendFloat(append(b, "ft beta="...), in.FT.Beta, "\n")
	}
	sum := sha256.Sum256(b)
	return Key(hex.EncodeToString(sum[:]))
}

func appendOptions(b []byte, o core.Options) []byte {
	b = appendInt(append(b, "opts seed="...), o.Seed, ' ')
	b = appendFloat(append(b, "alpha="...), o.Alpha, " iters=")
	b = appendInt(b, o.ItersPerModule, ' ')
	b = appendFloat(append(b, "psingle="...), o.PSingle, " wt0=")
	b = appendFloat(b, o.WindowT0, " patience=")
	b = appendInt(b, o.WindowPatience, '\n')
	// o.Search is already Normalized by Canonicalized: Starts ≥ 1 and
	// Workers cleared, so the worker count can never split a key.
	b = appendInt(append(b, "search starts="...), o.Search.Starts, ' ')
	return appendInt(append(b, "seed="...), o.Search.Seed, '\n')
}

// appendQuote is strconv.AppendQuote (fmt's %q) with a fast path for
// the printable-ASCII names every built-in assay uses.
func appendQuote(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] < ' ' || s[i] > '~' || s[i] == '"' || s[i] == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendInt appends v in decimal followed by sep (fmt's %d).
func appendInt[T int | int64](b []byte, v T, sep byte) []byte {
	return append(strconv.AppendInt(b, int64(v), 10), sep)
}

// appendFloat appends v as fmt's %g renders a float64 (shortest
// round-trip 'g' form, "+Inf"/"-Inf"/"NaN"), followed by sep.
func appendFloat(b []byte, v float64, sep string) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), sep...)
}

// appendSize appends "WxH" followed by sep.
func appendSize(b []byte, s geom.Size, sep byte) []byte {
	return appendInt(appendInt(b, s.W, 'x'), s.H, sep)
}

// appendSpan appends the half-open "[start,end)".
func appendSpan(b []byte, iv geom.Interval) []byte {
	return appendInt(appendInt(append(b, '['), iv.Start, ','), iv.End, ')')
}
