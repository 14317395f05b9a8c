package machine

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// solveDamped is the contention solve as a plain damped loop over
// demands, kept as the oracle for solve's saturation shortcut and hoisted
// coefficients. Its loop is the solver's former one verbatim, except that
// it takes the solver's fields as arguments and counts its rounds. It
// returns the offered rate and the number of rounds (thread passes).
func solveDamped(ctrl *MemController, overlap, hitLat float64, rates []float64, dem []Demand, latMult []float64, out []float64) (float64, int) {
	// Start from the uncontended latency.
	latency := ctrl.Latency(0)
	offered := 0.0
	rounds := 0
	const iters = 24
	const tol = 1e-9
	for it := 0; it < iters; it++ {
		rounds++
		offered = 0
		for i, r := range rates {
			if r <= 0 {
				out[i] = 0
				continue
			}
			mpw := dem[i].MissesPerWork()
			apw := dem[i].AccessesPerWork
			stallPerWork := mpw*latency*latMult[i]*(1-overlap) + apw*hitLat
			p := r / (1 + r*stallPerWork)
			out[i] = p
			offered += mpw * p
		}
		next := ctrl.Latency(offered)
		if diff := next - latency; diff < tol && diff > -tol {
			latency = next
			break
		}
		// Damped update for stability near saturation.
		latency = 0.5*latency + 0.5*next
	}
	return offered, rounds
}

// solveCase is one contention-solve input: a controller, the solver's
// overlap and the machine's hit latency, and per-thread inputs.
type solveCase struct {
	ctrl    MemController
	overlap float64
	hitLat  float64
	rates   []float64
	dem     []Demand
	lat     []float64
}

// Kinds of generated solve inputs.
const (
	kindSaturated   = iota // heavy memory load: every pass clamps at Lmax
	kindUnsaturated        // light load: round 0 does not clamp
	kindBorderline         // round 0 clamps, the shortcut's pass does not
	kindNoCapacity         // Capacity <= 0: Latency is constant
	kindIdleRates          // zero, negative-zero and negative rates mixed in
	kindNUMA               // latency multipliers above 1
	kindBadCoeff           // negative, NaN or infinite coefficients
	numKinds
)

var kindNames = [numKinds]string{"saturated", "unsaturated", "borderline", "no-capacity", "idle-rates", "numa", "bad-coeff"}

// specials are the values a bad-coefficient case plants.
var specials = []float64{-1, -1e-300, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}

// uniform draws from [lo, hi) with a *rand.Rand or a *sim.RNG.
func uniform(rng interface{ Float64() float64 }, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}

// genSolveCase draws one input of the given kind.
func genSolveCase(rng *rand.Rand, kind int) solveCase {
	c := solveCase{
		ctrl:    MemController{Capacity: uniform(rng, 10, 40), BaseLatency: uniform(rng, 0.004, 0.02), MaxUtil: uniform(rng, 0.8, 0.98)},
		overlap: uniform(rng, 0, 0.9),
		hitLat:  uniform(rng, 0, 0.001),
	}
	n := 16 + rng.Intn(33)
	if kind == kindUnsaturated {
		n = 1 + rng.Intn(8)
		c.ctrl.Capacity = uniform(rng, 500, 2000)
	}
	c.rates = make([]float64, n)
	c.dem = make([]Demand, n)
	c.lat = make([]float64, n)
	for i := range c.rates {
		c.rates[i] = uniform(rng, 0.5, 3.5)
		c.dem[i] = Demand{AccessesPerWork: uniform(rng, 5, 40), MissRatio: uniform(rng, 0.2, 0.8)}
		if rng.Intn(3) == 0 {
			c.dem[i] = Demand{AccessesPerWork: uniform(rng, 0, 5), MissRatio: uniform(rng, 0, 0.05)}
		}
		c.lat[i] = 1
	}
	switch kind {
	case kindBorderline:
		c.ctrl.Capacity = borderlineCapacity(c)
	case kindNoCapacity:
		c.ctrl.Capacity = []float64{0, -5, math.Copysign(0, -1)}[rng.Intn(3)]
	case kindIdleRates:
		for i := range c.rates {
			if rng.Intn(3) == 0 {
				c.rates[i] = []float64{0, math.Copysign(0, -1), -1.5}[rng.Intn(3)]
			}
		}
	case kindNUMA:
		for i := range c.lat {
			c.lat[i] = uniform(rng, 1, 3)
		}
	case kindBadCoeff:
		v := specials[rng.Intn(len(specials))]
		i := rng.Intn(n)
		switch rng.Intn(8) {
		case 0:
			c.rates[i] = v
		case 1:
			c.dem[i].AccessesPerWork = v
		case 2:
			c.dem[i].MissRatio = v
		case 3:
			c.lat[i] = v
		case 4:
			c.hitLat = v
		case 5:
			c.overlap = []float64{1, 1.5, math.NaN()}[rng.Intn(3)]
		case 6:
			c.ctrl.BaseLatency = v
		case 7:
			c.ctrl.MaxUtil = []float64{1, 1.2, math.NaN()}[rng.Intn(3)]
		}
	}
	return c
}

// borderlineCapacity returns a capacity at which c's round 0 clamps but
// the pass the saturation shortcut takes, at the end of the damped
// sequence towards Lmax, does not: halfway between the two passes'
// offered rates, scaled by MaxUtil.
func borderlineCapacity(c solveCase) float64 {
	s := contentionSolver{ctrl: &c.ctrl, overlap: c.overlap}
	mpw, hit := coeffs(c.dem, c.hitLat)
	out := make([]float64, len(c.rates))
	l0 := c.ctrl.BaseLatency
	lmax := c.ctrl.BaseLatency / (1 - c.ctrl.MaxUtil)
	l := l0
	for round := 1; round < solveRounds && !converged(l, lmax); round++ {
		l = 0.5*l + 0.5*lmax
	}
	off0 := s.pass(c.rates, mpw, hit, c.lat, l0, out)
	offK := s.pass(c.rates, mpw, hit, c.lat, l, out)
	return (off0 + offK) / 2 / c.ctrl.MaxUtil
}

// sameFloat reports whether a and b have the same bits, or are both NaN:
// Go leaves NaN payloads unspecified, and a compiler may commute the
// operands of an add or multiply whose operands are both NaN (fuzzing's
// coverage instrumentation does), which changes the payload it keeps.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// solveBoth runs solve and the oracle on c, fails t unless every output
// and the offered rate match bit for bit (see sameFloat) and solve took at most one pass
// more than the oracle, and returns both pass counts.
func solveBoth(t testing.TB, c solveCase) (passes, rounds int) {
	t.Helper()
	n := len(c.rates)
	s := contentionSolver{ctrl: &c.ctrl, overlap: c.overlap}
	mpw, hit := coeffs(c.dem, c.hitLat)
	got := make([]float64, n)
	gotOff := s.solve(c.rates, mpw, hit, c.lat, got)
	want := make([]float64, n)
	wantOff, rounds := solveDamped(&c.ctrl, c.overlap, c.hitLat, c.rates, c.dem, c.lat, want)
	if !sameFloat(gotOff, wantOff) {
		t.Fatalf("offered %v (%x), oracle %v (%x); case %+v", gotOff, math.Float64bits(gotOff), wantOff, math.Float64bits(wantOff), c)
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("thread %d: progress %v (%x), oracle %v (%x); case %+v", i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]), c)
		}
	}
	if s.passes > rounds+1 {
		t.Fatalf("%d passes, oracle %d rounds; case %+v", s.passes, rounds, c)
	}
	return s.passes, rounds
}

// TestSolveMatchesDamped compares solve with the damped-loop oracle bit
// for bit over seeded inputs of every kind, and checks which path each
// kind takes: a saturated solve that clamps on every pass costs 2 passes,
// an unsaturated one exactly the oracle's rounds, a borderline one the
// oracle's rounds plus the shortcut's failed pass.
func TestSolveMatchesDamped(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for kind := 0; kind < numKinds; kind++ {
		t.Run(kindNames[kind], func(t *testing.T) {
			var shortcut, fellThrough, plain int
			for i := 0; i < 300; i++ {
				passes, rounds := solveBoth(t, genSolveCase(rng, kind))
				switch {
				case passes == rounds+1:
					fellThrough++
				case passes == 2 && rounds > 2:
					shortcut++
				case passes == rounds:
					plain++
				}
			}
			t.Logf("shortcut %d, fell through %d, plain loop %d", shortcut, fellThrough, plain)
			switch kind {
			case kindSaturated:
				if shortcut < 200 {
					t.Errorf("only %d of 300 saturated solves took the shortcut", shortcut)
				}
			case kindUnsaturated:
				if plain != 300 {
					t.Errorf("%d of 300 unsaturated solves ran the plain loop, want all", plain)
				}
			case kindBorderline:
				if fellThrough != 300 {
					t.Errorf("%d of 300 borderline solves fell through, want all", fellThrough)
				}
			}
		})
	}
}

// TestSolveSaturatedTakesTwoPasses pins the shortcut's cost on a canned
// saturated solve: 24 memory-bound threads on the Table I controller,
// where the oracle runs all 24 rounds.
func TestSolveSaturatedTakesTwoPasses(t *testing.T) {
	c := solveCase{ctrl: MemController{Capacity: 80, BaseLatency: 0.008, MaxUtil: 0.96}, overlap: 0.3, hitLat: testHitLat}
	for i := 0; i < 24; i++ {
		c.rates = append(c.rates, 2.33)
		c.dem = append(c.dem, Demand{AccessesPerWork: 10, MissRatio: 0.55})
		c.lat = append(c.lat, 1)
	}
	passes, rounds := solveBoth(t, c)
	if passes != 2 || rounds != 24 {
		t.Errorf("saturated solve: %d passes, oracle %d rounds; want 2 and 24", passes, rounds)
	}
}

// TestSolvePassesCountMemoHits checks that a memo hit takes no pass.
func TestSolvePassesCountMemoHits(t *testing.T) {
	s := newSolver()
	rates, lat := []float64{2.33, 1.21}, ones(2)
	dem := []Demand{{AccessesPerWork: 10, MissRatio: 0.5}, {AccessesPerWork: 3, MissRatio: 0.03}}
	out := make([]float64, 2)
	solveDem(&s, rates, dem, lat, out)
	cold := s.passes
	solveDem(&s, rates, dem, lat, out)
	if s.passes != cold {
		t.Errorf("memo hit took %d passes", s.passes-cold)
	}
}

// FuzzSolveMatchesDamped draws a case of a fuzzed kind from a fuzzed
// seed, then overwrites its leading inputs with floats read from raw
// (8 bytes each, in the order rates, accesses, miss ratio, multiplier per
// thread), and requires solve to match the oracle bit for bit.
func FuzzSolveMatchesDamped(f *testing.F) {
	for kind := 0; kind < numKinds; kind++ {
		f.Add(int64(kind), uint8(kind), []byte{})
	}
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(int64(1), uint8(kindSaturated), nan)
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, raw []byte) {
		c := genSolveCase(rand.New(rand.NewSource(seed)), int(kind)%numKinds)
		for k := 0; (k+1)*8 <= len(raw) && k < 4*len(c.rates); k++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw[k*8:]))
			switch i := k / 4; k % 4 {
			case 0:
				c.rates[i] = v
			case 1:
				c.dem[i].AccessesPerWork = v
			case 2:
				c.dem[i].MissRatio = v
			case 3:
				c.lat[i] = v
			}
		}
		solveBoth(t, c)
	})
}

// TestSolveShortcutGuards pins inputs outside the shortcut's domain on
// which round 0 and the pass at the end of the damped sequence both
// clamp, yet round 1 does not: one thread's 1 + r*stall crosses zero in
// between. Each case matches the oracle only because one guard keeps it
// off the shortcut.
func TestSolveShortcutGuards(t *testing.T) {
	// plus adds n threads with rate 1, 1 miss per work and a hit stall of
	// 0.01 at hitLat 1.
	plus := func(c solveCase, n int) solveCase {
		for i := 0; i < n; i++ {
			c.rates = append(c.rates, 1)
			c.dem = append(c.dem, Demand{AccessesPerWork: 0.01, MissRatio: 100})
			c.lat = append(c.lat, 1)
		}
		return c
	}
	cases := []struct {
		name string
		c    solveCase
	}{
		// Latency runs from -1 down to Lmax = -2; the first thread's
		// 1 + 0.8L crosses zero at L = -1.25, the second's stays positive.
		{"negative base latency", solveCase{
			ctrl:   MemController{Capacity: 1, BaseLatency: -1, MaxUtil: 0.5},
			hitLat: 0,
			rates:  []float64{1, 1}, dem: []Demand{{AccessesPerWork: 0.8, MissRatio: 1}, {AccessesPerWork: 0.4, MissRatio: 1}}, lat: []float64{1, 1},
		}},
		// Latency runs from 1 up to 2; the first thread's stall L - 2.6
		// makes 1 + stall cross zero at L = 1.6.
		{"negative hit stall", plus(solveCase{
			ctrl:   MemController{Capacity: 1, BaseLatency: 1, MaxUtil: 0.5},
			hitLat: 1,
			rates:  []float64{1}, dem: []Demand{{AccessesPerWork: -2.6, MissRatio: -1 / 2.6}}, lat: []float64{1},
		}, 5)},
		// The first thread's stall 0.45 - L crosses -1 at L = 1.45.
		{"negative latency multiplier", plus(solveCase{
			ctrl:   MemController{Capacity: 1, BaseLatency: 1, MaxUtil: 0.5},
			hitLat: 1,
			rates:  []float64{1}, dem: []Demand{{AccessesPerWork: 0.45, MissRatio: 1 / 0.45}}, lat: []float64{-1},
		}, 10)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			passes, rounds := solveBoth(t, tc.c)
			if passes != rounds {
				t.Errorf("%d passes, oracle %d rounds: the shortcut was tried", passes, rounds)
			}
		})
	}
}
