package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count) and 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// minSamplesBeyond is how many samples must lie beyond a percentile for it
// to be reported: a p99 over 500 samples rests on 5 values and is noise.
const minSamplesBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of an
// ascending slice. ok is false when fewer than minSamplesBeyond samples lie
// beyond it, in which case the value must not be reported.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minSamplesBeyond
}

// sample is one reported metric: the median of its measurements with their
// range and count, so a reader can tell a median of five from a single
// reading.
type sample struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	Samples int     `json:"samples"`
}

// summarize reports the median of xs with its range.
func summarize(xs []float64, unit string) sample {
	s := sample{Value: median(xs), Unit: unit, Samples: len(xs)}
	for i, x := range xs {
		if i == 0 || x < s.Min {
			s.Min = x
		}
		if i == 0 || x > s.Max {
			s.Max = x
		}
	}
	return s
}

// single reports one reading.
func single(x float64, unit string) sample {
	return sample{Value: x, Unit: unit, Min: x, Max: x, Samples: 1}
}

// ratio returns a/b, or 0 when b is 0 (a bypassed layer has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
