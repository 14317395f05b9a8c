package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingMeanFirstSampleExact(t *testing.T) {
	m := NewMovingMean(0.1)
	m.Add(42)
	if m.Value() != 42 {
		t.Errorf("first sample = %v, want 42", m.Value())
	}
	if m.Count() != 1 {
		t.Errorf("count = %d, want 1", m.Count())
	}
}

func TestMovingMeanConverges(t *testing.T) {
	m := NewMovingMean(0.3)
	for i := 0; i < 200; i++ {
		m.Add(7)
	}
	if !almost(m.Value(), 7, 1e-9) {
		t.Errorf("converged value = %v, want 7", m.Value())
	}
}

func TestMovingMeanTracksStep(t *testing.T) {
	m := NewMovingMean(0.5)
	m.Add(0)
	for i := 0; i < 30; i++ {
		m.Add(10)
	}
	if m.Value() < 9.99 {
		t.Errorf("after step, value = %v, want near 10", m.Value())
	}
}

func TestMovingMeanAlphaClamped(t *testing.T) {
	m := NewMovingMean(-1) // clamps to small positive
	m.Add(1)
	m.Add(100)
	if m.Value() >= 100 || m.Value() <= 1 {
		t.Errorf("value = %v, want strictly between samples", m.Value())
	}
	one := NewMovingMean(5) // clamps to 1: latest sample wins
	one.Add(1)
	one.Add(100)
	if one.Value() != 100 {
		t.Errorf("alpha=1 value = %v, want 100", one.Value())
	}
}

func TestMovingMeanReset(t *testing.T) {
	m := NewMovingMean(0.5)
	m.Add(3)
	m.Reset()
	if m.Value() != 0 || m.Count() != 0 {
		t.Error("Reset did not clear state")
	}
	m.Add(9)
	if m.Value() != 9 {
		t.Error("first sample after Reset not exact")
	}
}

func TestMovingMeanBounded(t *testing.T) {
	// The EWMA always stays within [min, max] of the samples seen.
	f := func(xs []float64) bool {
		if len(xs) == 0 {
			return true
		}
		m := NewMovingMean(0.25)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			m.Add(x)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return m.Value() >= lo-1e-9 && m.Value() <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
