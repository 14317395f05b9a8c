package machine

import (
	"math"
	"testing"
)

// warmInputs builds a deterministic input sequence with the structure the
// memo exploits: steady phases (bit-identical consecutive inputs)
// interleaved with perturbations (rate changes, demand phase shifts,
// NUMA multiplier decay, population changes).
func warmInputs() [][3][]float64 {
	mk := func(rates, mpw, lat []float64) [3][]float64 {
		return [3][]float64{rates, mpw, lat}
	}
	a := mk([]float64{2.33, 2.33, 1.21}, []float64{0.4, 0.02, 0.9}, []float64{1, 1, 1})
	b := mk([]float64{1.165, 2.33, 1.21}, []float64{0.4, 0.02, 0.9}, []float64{1, 1, 1})
	c := mk([]float64{1.165, 2.33, 1.21}, []float64{0.7, 0.02, 0.9}, []float64{1.4, 1, 1})
	d := mk([]float64{2.33, 1.21}, []float64{0.05, 1.2}, []float64{1, 1})
	return [][3][]float64{a, a, a, b, b, a, c, c, c, d, d, a, a}
}

// TestSolverWarmStartFloatIdentical drives one stateful solver through a
// repeat-heavy input sequence and checks every output bit-for-bit
// against a fresh cold solver fed the same call in isolation. The memo
// may only ever serve values the cold path would have computed.
func TestSolverWarmStartFloatIdentical(t *testing.T) {
	warm := newSolver()
	for step, in := range warmInputs() {
		rates, mpws, lats := in[0], in[1], in[2]
		dem := make([]Demand, len(rates))
		for i, m := range mpws {
			dem[i] = Demand{AccessesPerWork: m * 2, MissRatio: 0.5}
		}
		wOut := make([]float64, len(rates))
		wOff := solveDem(&warm, rates, dem, lats, wOut)

		cold := newSolver()
		cOut := make([]float64, len(rates))
		cOff := solveDem(&cold, rates, dem, lats, cOut)

		if math.Float64bits(wOff) != math.Float64bits(cOff) {
			t.Fatalf("step %d: offered diverged: warm %x cold %x", step, math.Float64bits(wOff), math.Float64bits(cOff))
		}
		for i := range wOut {
			if math.Float64bits(wOut[i]) != math.Float64bits(cOut[i]) {
				t.Fatalf("step %d thread %d: progress diverged: warm %x cold %x",
					step, i, math.Float64bits(wOut[i]), math.Float64bits(cOut[i]))
			}
		}
	}
}

// TestSolverWarmStartNaNMisses pins the conservative NaN behaviour: a
// NaN input can never hit the memo, even against itself.
func TestSolverWarmStartNaNMisses(t *testing.T) {
	s := newSolver()
	rates := []float64{math.NaN(), 2.33}
	mpw, hit := []float64{0.4, 0.02}, []float64{0.0004, 0.00005}
	lats := []float64{1, 1}
	out := make([]float64, 2)
	s.solve(rates, mpw, hit, lats, out)
	if s.memoHit(rates, mpw, hit, lats) {
		t.Fatal("NaN input hit the memo")
	}
}

// TestSolverWarmStartMemoHit sanity-checks the hit predicate itself:
// identical inputs hit, any single perturbed element misses.
func TestSolverWarmStartMemoHit(t *testing.T) {
	s := newSolver()
	rates := []float64{2.33, 1.21}
	mpw, hit := []float64{0.4, 0.02}, []float64{0.0004, 0.00005}
	lats := []float64{1, 1.4}
	out := make([]float64, 2)
	s.solve(rates, mpw, hit, lats, out)
	if !s.memoHit(rates, mpw, hit, lats) {
		t.Fatal("identical inputs missed the memo")
	}
	r2 := append([]float64(nil), rates...)
	r2[1] += 1e-12
	if s.memoHit(r2, mpw, hit, lats) {
		t.Fatal("perturbed rate hit the memo")
	}
	m2 := append([]float64(nil), mpw...)
	m2[0] = 0.41
	if s.memoHit(rates, m2, hit, lats) {
		t.Fatal("perturbed misses per work hit the memo")
	}
	h2 := append([]float64(nil), hit...)
	h2[1] = 0.00006
	if s.memoHit(rates, mpw, h2, lats) {
		t.Fatal("perturbed hit stall hit the memo")
	}
	l2 := append([]float64(nil), lats...)
	l2[0] = 1.1
	if s.memoHit(rates, mpw, hit, l2) {
		t.Fatal("perturbed latency multiplier hit the memo")
	}
	if s.memoHit(rates[:1], mpw[:1], hit[:1], lats[:1]) {
		t.Fatal("shorter population hit the memo")
	}
}
