package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100)
// of xs, or 0 for an empty sample. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tailLevels are the percentiles a timing's tail may be reported at,
// highest first.
var tailLevels = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest level with at least ten samples beyond
// it in a sample of n, or 0 when n is too small for any level (fewer
// than 20 samples).
func tailPercentile(n int) float64 {
	for _, p := range tailLevels {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// tail reports xs at tailPercentile(len(xs)), or 0 when the sample is
// too small to have a tail.
func tail(xs []float64) float64 {
	p := tailPercentile(len(xs))
	if p == 0 {
		return 0
	}
	return percentile(xs, p)
}

// ratio divides, returning 0 for an empty base so a ratio is never NaN.
// Every ratio is reported next to its numerator and base.
func ratio(num, base float64) float64 {
	if base == 0 {
		return 0
	}
	return num / base
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects reported figures by name.
type report map[string]metric

func (m report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// timing reports a per-layer timing as its median, its tail (see
// tailPercentile) and its sample count. unit is "ms" or "us"; xs are in
// that unit.
func (m report) timing(name, unit string, xs []float64) {
	m.set(name+"_p50_"+unit, unit, percentile(xs, 50))
	m.set(name+"_tail_"+unit, unit, tail(xs))
	m.set(name+"_n", "count", float64(len(xs)))
}
