package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestWilsonIntervalBasics(t *testing.T) {
	lo, hi := Wilson95(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%v,%v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval [%v,%v] too wide for n=100", lo, hi)
	}
	// Extremes stay inside [0,1] and behave sensibly.
	lo, hi = Wilson95(0, 50)
	if lo != 0 || hi < 0.01 || hi > 0.15 {
		t.Errorf("k=0 interval [%v,%v]", lo, hi)
	}
	lo, hi = Wilson95(50, 50)
	if hi != 1 || lo > 0.99 || lo < 0.85 {
		t.Errorf("k=n interval [%v,%v]", lo, hi)
	}
	// Width shrinks with n.
	_, hi1 := Wilson95(10, 20)
	lo1, _ := Wilson95(10, 20)
	lo2, hi2 := Wilson95(500, 1000)
	if hi2-lo2 >= hi1-lo1 {
		t.Error("interval did not shrink with sample size")
	}
}

func TestWilsonPanicsOnGarbage(t *testing.T) {
	for _, c := range [][2]int{{-1, 10}, {11, 10}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Wilson95(%d,%d) did not panic", c[0], c[1])
				}
			}()
			Wilson95(c[0], c[1])
		}()
	}
}

// TestWilsonCoverageProperty: across many binomial draws the 95%
// interval must cover the true rate roughly 95% of the time.
func TestWilsonCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, p := range []float64{0.05, 0.3, 0.5, 0.9, 0.99} {
		covered := 0
		const reps, n = 800, 120
		for r := 0; r < reps; r++ {
			k := 0
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					k++
				}
			}
			if lo, hi := Wilson95(k, n); p >= lo && p <= hi {
				covered++
			}
		}
		rate := float64(covered) / reps
		if rate < 0.90 || rate > 0.995 {
			t.Errorf("p=%v: empirical coverage %.3f outside [0.90, 0.995]", p, rate)
		}
	}
}

func TestDescribe(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s := Describe(xs)
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N/mean wrong: %+v", s)
	}
	if math.Abs(s.Std-2.138) > 0.01 {
		t.Errorf("std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max wrong: %+v", s)
	}
	if s.Median != 4.5 {
		t.Errorf("median = %v", s.Median)
	}
	if !strings.Contains(s.String(), "mean=5.0000") {
		t.Errorf("String = %q", s.String())
	}
	// Single element.
	s1 := Describe([]float64{3})
	if s1.Mean != 3 || s1.Std != 0 || s1.Median != 3 {
		t.Errorf("singleton summary wrong: %+v", s1)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.75, 4}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestDescribePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Describe(nil) did not panic")
		}
	}()
	Describe(nil)
}
