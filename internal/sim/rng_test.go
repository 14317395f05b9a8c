package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGSeedZeroRemapped(t *testing.T) {
	a := NewRNG(0)
	if a.Uint64() == 0 && a.Uint64() == 0 {
		t.Error("seed 0 produced degenerate stream")
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of uniforms = %v, want ~0.5", mean)
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Errorf("Intn(10) hit %d values, want all 10", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGShufflePreservesElements(t *testing.T) {
	r := NewRNG(9)
	xs := []int{1, 2, 3, 4, 5}
	r.Shuffle(xs)
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 15 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(10)
	c1 := parent.Fork(1)
	c2 := parent.Fork(2)
	if c1.Uint64() == c2.Uint64() {
		t.Error("forks with different labels correlate")
	}
	// Forking must not consume parent output.
	p2 := NewRNG(10)
	p2.Fork(1)
	p2.Fork(2)
	want := NewRNG(10)
	want.Fork(99)
	if p2.Uint64() != want.Uint64() {
		t.Error("Fork consumed parent stream")
	}
}
