package main

import (
	"errors"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that divide xs into four parts,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so a spread printed here matches the one a
// Python reader recomputes from the same values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, errors.New("quartiles need at least two values")
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tailPercentile picks the highest of p90, p99 and p99.9 that still has at
// least ten samples beyond it; ok is false below forty samples, where no
// percentile above the median describes a tail.
func tailPercentile(n int) (p float64, label string, ok bool) {
	if n < 40 {
		return 0, "", false
	}
	best, name := 0.0, ""
	for _, c := range []struct {
		tail int // 1/tail of the samples lie beyond the percentile
		p    float64
		name string
	}{{10, 0.9, "p90"}, {100, 0.99, "p99"}, {1000, 0.999, "p999"}} {
		if n >= 10*c.tail {
			best, name = c.p, c.name
		}
	}
	if name == "" {
		return 0, "", false
	}
	return best, name, true
}

// geomean is the geometric mean of strictly positive values.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, errors.New("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0, errors.New("geomean needs positive values")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// mustGeomean is geomean for values the benchmark measured itself (wall
// times, byte counts), which are positive by construction.
func mustGeomean(xs []float64) float64 {
	g, err := geomean(xs)
	if err != nil {
		return math.NaN()
	}
	return g
}
