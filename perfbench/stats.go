package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. It does not modify xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// supported reports whether n samples leave at least minBeyond of them
// above the q-quantile.
func supported(n int, q float64) bool {
	// The epsilon absorbs rounding in 1-q (100 × (1-0.9) < 10 in floats).
	return float64(n)*(1-q) >= minBeyond-1e-9
}

// tail returns the q-quantile of xs when the sample supports it, and
// the median otherwise, with the quantile it actually used.
func tail(xs []float64, q float64) (v, used float64) {
	if supported(len(xs), q) {
		return quantile(xs, q), q
	}
	return median(xs), 0.5
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// ms converts nanosecond samples to milliseconds.
func ms(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (an idle layer).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
