// Package stats provides the small statistical toolkit used throughout the
// Dike reproduction: means, dispersion measures, the median, percentiles
// and the coefficient of variation that both the Selector's fairness gate
// and the paper's Fairness metric (Eqn 4) are built on.
//
// All functions are pure and operate on float64 slices. Inputs are never
// mutated unless the function name says so (e.g. MedianInPlace).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot produce a meaningful value
// for an empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Min returns the minimum of xs. It returns ErrEmpty for an empty slice.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the maximum of xs. It returns ErrEmpty for an empty slice.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Variance returns the population variance of xs (dividing by n, not n-1).
// The paper's coefficient of variation is defined over the full population
// of threads in a benchmark, so the population estimator is the right one.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	mu := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - mu
		ss += d * d
	}
	return ss / float64(n)
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// CV returns the coefficient of variation (standard deviation over mean) of
// xs. A CV of zero means all values are identical — a perfectly fair
// outcome in the paper's terms. If the mean is zero (or xs is empty) the
// CV is defined as zero: a set of threads that all observed zero progress
// is trivially uniform.
func CV(xs []float64) float64 {
	mu := Mean(xs)
	if mu == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(mu)
}

// GeoMean returns the geometric mean of xs. Non-positive entries are
// clamped to a tiny positive value so that a single zero sample does not
// collapse the whole aggregate; callers comparing speedups never pass
// negative values.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	const tiny = 1e-12
	logSum := 0.0
	for _, x := range xs {
		if x < tiny {
			x = tiny
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Percentile returns the nearest-rank q-quantile (q in (0,1]) of an
// already sorted slice: the smallest element with at least a q share of
// the values at or below it. It never interpolates, so the result is
// always one of the samples. It returns 0 for an empty slice.
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// MedianInPlace returns the median of xs (0 for empty input), the mean
// of the two middle values for an even length. It sorts xs in place, so
// a caller that owns a scratch buffer computes it allocation-free.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return xs[n/2-1]*0.5 + xs[n/2]*0.5
}

// Clamp bounds x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
