// Package stats provides the small statistics toolkit behind the
// Monte-Carlo experiments: binomial confidence intervals for survival
// and yield rates, and descriptive summaries for benchmark series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// z95 is the standard normal quantile for 95% two-sided coverage.
const z95 = 1.959963984540054

// WilsonInterval returns the Wilson score interval for k successes in
// n trials at the given z quantile. Unlike the normal approximation it
// behaves sensibly at rates near 0 and 1, which is exactly where the
// fault-tolerance campaigns operate (FTI ≈ 1 designs). It panics on
// invalid inputs — campaign sizes are caller-controlled constants.
func WilsonInterval(k, n int, z float64) (lo, hi float64) {
	if n <= 0 || k < 0 || k > n {
		panic(fmt.Sprintf("stats: invalid binomial sample %d/%d", k, n))
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	centre := (p + z*z/(2*nf)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf))
	lo = centre - half
	hi = centre + half
	// The exact endpoints at k=0 and k=n are 0 and 1; floating-point
	// round-off must not exclude them.
	if lo < 0 || k == 0 {
		lo = 0
	}
	if hi > 1 || k == n {
		hi = 1
	}
	return lo, hi
}

// Wilson95 is WilsonInterval at 95% coverage.
func Wilson95(k, n int) (lo, hi float64) { return WilsonInterval(k, n, z95) }

// Summary holds descriptive statistics of a sample. Median is the
// p50 quantile.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	Median    float64
	P05, P95  float64
	P99       float64
}

// Describe computes descriptive statistics. It panics on an empty
// sample.
func Describe(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs)}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	s.P99 = Quantile(sorted, 0.99)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Quantile returns the linearly interpolated q-quantile of a sorted
// sample (q in [0,1]).
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		panic("stats: empty sample")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f std=%.4f min=%.4f p05=%.4f median=%.4f p95=%.4f p99=%.4f max=%.4f",
		s.N, s.Mean, s.Std, s.Min, s.P05, s.Median, s.P95, s.P99, s.Max)
}
