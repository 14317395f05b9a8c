package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almost(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	mn, err := Min([]float64{3, -1, 2})
	if err != nil || mn != -1 {
		t.Errorf("Min = %v, %v; want -1, nil", mn, err)
	}
	mx, err := Max([]float64{3, -1, 2})
	if err != nil || mx != 3 {
		t.Errorf("Max = %v, %v; want 3, nil", mx, err)
	}
}

func TestVarianceStdDev(t *testing.T) {
	// Population variance of {2, 4, 4, 4, 5, 5, 7, 9} is 4.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almost(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance(nil); got != 0 {
		t.Errorf("Variance(nil) = %v, want 0", got)
	}
}

func TestCV(t *testing.T) {
	if got := CV([]float64{5, 5, 5}); got != 0 {
		t.Errorf("CV of constant = %v, want 0", got)
	}
	if got := CV(nil); got != 0 {
		t.Errorf("CV(nil) = %v, want 0", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v, want 0", got)
	}
	// CV of {1, 3}: mean 2, stddev 1 -> 0.5.
	if got := CV([]float64{1, 3}); !almost(got, 0.5, 1e-12) {
		t.Errorf("CV = %v, want 0.5", got)
	}
}

func TestCVScaleInvariance(t *testing.T) {
	// CV is invariant under positive scaling — the property that makes it
	// usable across workloads with different absolute rates.
	f := func(xs []float64, scale float64) bool {
		if len(xs) == 0 {
			return true
		}
		scale = math.Abs(scale)
		if scale < 1e-3 || scale > 1e3 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
			xs[i] = math.Abs(x) + 1 // keep mean well away from zero
		}
		a := CV(xs)
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			scaled[i] = x * scale
		}
		b := CV(scaled)
		return almost(a, b, 1e-6*(1+a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almost(got, 4, 1e-12) {
		t.Errorf("GeoMean = %v, want 4", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	// A zero entry clamps rather than destroying the aggregate.
	if got := GeoMean([]float64{0, 4}); got <= 0 {
		t.Errorf("GeoMean with zero = %v, want positive", got)
	}
}

func TestGeoMeanLeqArithMean(t *testing.T) {
	// AM-GM inequality must hold for positive inputs.
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			xs[i] = math.Abs(x) + 0.1
			if xs[i] > 1e6 {
				xs[i] = 1e6
			}
		}
		return GeoMean(xs) <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want float64
	}{{0.50, 50}, {0.95, 100}, {0.99, 100}, {0.10, 10}, {1.0, 100}}
	for _, tc := range cases {
		if got := Percentile(sorted, tc.q); got != tc.want {
			t.Errorf("Percentile(%.2f) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("Percentile(empty) = %g, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0}, {[]float64{7}, 7}, {[]float64{9, 1, 5}, 5}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{0, 10}, 5},
	} {
		if got := MedianInPlace(c.in); got != c.want {
			t.Errorf("MedianInPlace(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestMedianInPlaceMatchesMedian checks the in-place median returns the
// exact bits of the textbook median (interpolating between the closest
// ranks of a sorted copy) and leaves its input sorted.
func TestMedianInPlaceMatchesMedian(t *testing.T) {
	median := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		pos := 0.5 * float64(len(s)-1)
		lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
		frac := pos - float64(lo)
		if lo == hi {
			return s[lo]
		}
		return s[lo]*(1-frac) + s[hi]*frac
	}
	f := func(xs []float64) bool {
		want := median(xs)
		got := MedianInPlace(xs)
		return math.Float64bits(got) == math.Float64bits(want) && sort.Float64sAreSorted(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuantileWithinBounds: the nearest-rank quantile of any finite
// sample lies between its minimum and maximum.
func TestQuantileWithinBounds(t *testing.T) {
	f := func(xs []float64, q float64) bool {
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		v := Percentile(sorted, q)
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return v >= mn && v <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}
