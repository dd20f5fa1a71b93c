package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation, or 0 for fewer than
// two points.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// Percentile returns the p-th percentile (0 <= p <= 100) by linear
// interpolation between order statistics. An empty input returns 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// AbsPercentErrors returns per-sample absolute percentage errors as
// fractions, skipping zero actuals.
func AbsPercentErrors(actual, predicted []float64) []float64 {
	out := make([]float64, 0, len(actual))
	for i := range actual {
		if i >= len(predicted) || actual[i] == 0 {
			continue
		}
		out = append(out, math.Abs(actual[i]-predicted[i])/math.Abs(actual[i]))
	}
	return out
}

// Normalize divides every element by the maximum absolute value, matching
// the "normalized w.r.t. max value" convention of the paper's figures. An
// all-zero input is returned unchanged.
func Normalize(xs []float64) []float64 {
	maxAbs := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > maxAbs {
			maxAbs = a
		}
	}
	out := make([]float64, len(xs))
	if maxAbs == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = x / maxAbs
	}
	return out
}
