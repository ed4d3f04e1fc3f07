// Package defect models fabrication defect maps for yield analysis —
// the companion direction to the source paper ("Yield Enhancement of
// Digital Microfluidics-Based Biochips Using Space Redundancy and
// Local Reconfiguration", arXiv:0710.4672). A defect map is the set of
// cells of a fabricated array that came out of manufacturing dead;
// yield is the fraction of dies whose configuration absorbs all of its
// defects through local reconfiguration.
//
// Three models are provided:
//
//   - uniform: every cell fails independently with probability Prob —
//     the classical single-parameter model the original yield trials
//     used. Draw-for-draw compatible with the historical per-cell
//     scan-order Float64 stream, so existing campaign goldens hold.
//   - clustered: a Poisson-cluster (Neyman–Scott) process. Fabrication
//     defects arrive in spatially correlated clumps, not as salt and
//     pepper: cluster centers fall as a Poisson process over the array
//     with the rate chosen so the mean defect density is Prob, each
//     cluster holds 1 + Poisson(ClusterSize−1) defects, and the extras
//     scatter uniformly within a Chebyshev radius of the center.
//   - file: an explicit map, parsed from the textual grid format of
//     ParseMap ('.' good, 'X' defective, '#' comments).
//
// Determinism contract: Generate draws exclusively from the *rand.Rand
// it is handed and returns cells sorted in scan order (y then x),
// deduplicated and clipped to the array. Campaign trials pass their
// private per-trial stream (campaign.TrialRNG), which makes every
// defect map byte-identical at any worker count, across kill/resume,
// and between single-process and dispatcher/simd runs.
package defect

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dmfb/internal/geom"
)

// Model names accepted by Params.Model and the -defect-model flag.
const (
	ModelUniform   = "uniform"
	ModelClustered = "clustered"
	ModelFile      = "file"
)

// Generator produces one die's defect map. Implementations must be
// pure functions of (array, rng): all randomness comes from rng and
// the returned cells are sorted in scan order, deduplicated, and
// inside the array.
type Generator interface {
	// Name returns the model name ("uniform", "clustered", "file").
	Name() string
	// Generate draws the defect cells of one fabricated die.
	Generate(array geom.Rect, rng *rand.Rand) []geom.Point
}

// Params is the portable, fingerprintable description of a defect
// model — the document that travels inside a campaign spec so a
// distributed fleet generates byte-identical maps. The zero value
// normalizes to the uniform model at the dmfb-campaign default
// density.
type Params struct {
	// Model selects the generator: uniform | clustered | file.
	Model string `json:"model,omitempty"`
	// Prob is the mean per-cell defect probability (uniform and
	// clustered models).
	Prob float64 `json:"prob,omitempty"`
	// ClusterSize is the mean number of defects per cluster
	// (clustered model; >= 1).
	ClusterSize float64 `json:"cluster_size,omitempty"`
	// ClusterRadius is the Chebyshev scatter radius of a cluster's
	// defects around its center, in cells (clustered model).
	ClusterRadius int `json:"cluster_radius,omitempty"`
	// Map is the serialized defect map (file model) in ParseMap
	// format. The content — not a filename — is carried here, so a
	// remote worker needs no shared filesystem.
	Map string `json:"map,omitempty"`
}

// Normalized fills in the defaults: empty model means uniform, and
// zero probability and cluster parameters take the default density,
// cluster size and radius. These are the only copies of the defect
// defaults; dispatch.Spec and the campaign flags derive theirs from
// here.
func (pr Params) Normalized() Params {
	if pr.Model == "" {
		pr.Model = ModelUniform
	}
	if pr.Prob == 0 {
		pr.Prob = 0.01
	}
	if pr.ClusterSize == 0 {
		pr.ClusterSize = 4
	}
	if pr.ClusterRadius == 0 {
		pr.ClusterRadius = 2
	}
	return pr
}

// Validate checks the parameters describe a generatable model, as
// given: it does not normalize first, so an explicit zero probability
// or an empty model is rejected. Wire documents, where zero means
// "default", normalize before validating; command-line values do not,
// which is what makes an explicit "-defect-prob 0" an error.
func (pr Params) Validate() error {
	switch pr.Model {
	case ModelUniform, ModelClustered:
		if pr.Map != "" {
			return fmt.Errorf("defect: a map is only read by the file model, got model %q", pr.Model)
		}
		if !(pr.Prob > 0 && pr.Prob < 1) {
			return fmt.Errorf("defect: probability %g outside (0,1)", pr.Prob)
		}
		if pr.Model == ModelClustered {
			if !(pr.ClusterSize >= 1 && pr.ClusterSize <= 64) {
				return fmt.Errorf("defect: cluster size %g outside [1,64]", pr.ClusterSize)
			}
			// Zero is the wire format's "default radius", so a
			// radius of 0 cannot be asked for.
			if pr.ClusterRadius < 1 || pr.ClusterRadius > 64 {
				return fmt.Errorf("defect: cluster radius %d outside [1,64]", pr.ClusterRadius)
			}
		}
	case ModelFile:
		if pr.Map == "" {
			return fmt.Errorf("defect: file model needs a map (-defect-file)")
		}
		if _, err := ParseMap(pr.Map); err != nil {
			return err
		}
	default:
		return fmt.Errorf("defect: unknown model %q (want uniform, clustered or file)", pr.Model)
	}
	return nil
}

// Generator builds the generator the parameters describe.
func (pr Params) Generator() (Generator, error) {
	pr = pr.Normalized()
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	switch pr.Model {
	case ModelUniform:
		return Uniform{Prob: pr.Prob}, nil
	case ModelClustered:
		return Clustered{Prob: pr.Prob, ClusterSize: pr.ClusterSize, Radius: pr.ClusterRadius}, nil
	default:
		return ParseMap(pr.Map)
	}
}

// FingerprintParts returns the values that must participate in a
// campaign's config fingerprint: everything that changes which defect
// map a trial sees. Passed to campaign.ConfigFingerprint so two specs
// with different defect models never share a checkpoint or a builder
// cache entry.
func (pr Params) FingerprintParts() []any {
	pr = pr.Normalized()
	return []any{pr.Model, pr.Prob, pr.ClusterSize, pr.ClusterRadius, pr.Map}
}

// Uniform is the independent per-cell defect model: every array cell
// fails with probability Prob. The draw order (one Float64 per cell,
// y-major scan) is the historical yield-trial stream and must never
// change — recorded campaigns and determinism goldens pin it.
type Uniform struct {
	Prob float64
}

// Name implements Generator.
func (u Uniform) Name() string { return ModelUniform }

// Generate implements Generator.
func (u Uniform) Generate(array geom.Rect, rng *rand.Rand) []geom.Point {
	var out []geom.Point
	for y := 0; y < array.H; y++ {
		for x := 0; x < array.W; x++ {
			if rng.Float64() < u.Prob {
				out = append(out, geom.Point{X: array.X + x, Y: array.Y + y})
			}
		}
	}
	return out
}

// Clustered is the Poisson-cluster defect model: cluster centers fall
// uniformly with Poisson-distributed count rate Prob·cells/ClusterSize
// (so the mean defect density stays Prob), each cluster holds
// 1 + Poisson(ClusterSize−1) defects, and the extras scatter within
// Chebyshev distance Radius of the center. Defects landing outside the
// array are lost (edge clusters are smaller, as on real wafers).
type Clustered struct {
	// Prob is the mean per-cell defect density.
	Prob float64
	// ClusterSize is the mean defects per cluster (>= 1).
	ClusterSize float64
	// Radius is the Chebyshev scatter radius in cells.
	Radius int
}

// Name implements Generator.
func (c Clustered) Name() string { return ModelClustered }

// Generate implements Generator.
func (c Clustered) Generate(array geom.Rect, rng *rand.Rand) []geom.Point {
	cells := array.Cells()
	if cells == 0 || c.Prob <= 0 {
		return nil
	}
	mean := c.ClusterSize
	if mean < 1 {
		mean = 1
	}
	radius := c.Radius
	if radius < 0 {
		radius = 0
	}
	clusters := poisson(rng, c.Prob*float64(cells)/mean)
	var out []geom.Point
	for i := 0; i < clusters; i++ {
		center := geom.Point{
			X: array.X + rng.Intn(array.W),
			Y: array.Y + rng.Intn(array.H),
		}
		out = append(out, center)
		size := 1 + poisson(rng, mean-1)
		for j := 1; j < size; j++ {
			pt := geom.Point{
				X: center.X + rng.Intn(2*radius+1) - radius,
				Y: center.Y + rng.Intn(2*radius+1) - radius,
			}
			if array.Contains(pt) {
				out = append(out, pt)
			}
		}
	}
	return canonicalize(out)
}

// poisson draws from a Poisson distribution with the given mean, via
// Knuth's product-of-uniforms method. Every draw consumes Float64
// calls from rng only, keeping cluster generation on the trial's
// private stream. The lambdas in play are small (a handful of clusters
// per die), where this method is both exact and fast.
func poisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	limit := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// canonicalize sorts cells in scan order (y then x) and removes
// duplicates, establishing the canonical map representation every
// generator returns.
func canonicalize(cells []geom.Point) []geom.Point {
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Y != cells[j].Y {
			return cells[i].Y < cells[j].Y
		}
		return cells[i].X < cells[j].X
	})
	out := cells[:0]
	for i, c := range cells {
		if i > 0 && c == cells[i-1] {
			continue
		}
		out = append(out, c)
	}
	return out
}
