package machine

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLatencyUncontended(t *testing.T) {
	mc := MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.95}
	if got := mc.Latency(0); got != 0.01 {
		t.Errorf("uncontended latency = %v, want 0.01", got)
	}
}

func TestLatencyMonotone(t *testing.T) {
	mc := MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.95}
	prev := 0.0
	for offered := 0.0; offered <= 200; offered += 5 {
		l := mc.Latency(offered)
		if l < prev {
			t.Fatalf("latency not monotone at %v", offered)
		}
		prev = l
	}
}

func TestLatencyCapped(t *testing.T) {
	mc := MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.9}
	atCap := mc.Latency(1e9)
	want := 0.01 / (1 - 0.9)
	if math.Abs(atCap-want) > 1e-12 {
		t.Errorf("capped latency = %v, want %v", atCap, want)
	}
}

// TestLatencyRhoClamp pins the rho clamp at both ends of the operating
// range and the degenerate-capacity case: negative offered rates clamp
// to the uncontended latency, overload clamps to the MaxUtil asymptote,
// and a controller with no capacity reports saturation — not a free
// uncontended memory system.
func TestLatencyRhoClamp(t *testing.T) {
	cases := []struct {
		name     string
		mc       MemController
		offered  float64
		wantLat  float64
		wantUtil float64
	}{
		{"negative offered clamps to zero", MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.9}, -50, 0.01, 0},
		{"zero offered uncontended", MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.9}, 0, 0.01, 0},
		{"mid-range linear", MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.9}, 50, 0.01 / (1 - 0.5), 0.5},
		{"at capacity clamps to MaxUtil", MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.9}, 100, 0.01 / (1 - 0.9), 0.9},
		{"overload clamps to MaxUtil", MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.9}, 1e12, 0.01 / (1 - 0.9), 0.9},
		{"zero capacity saturates", MemController{Capacity: 0, BaseLatency: 0.01, MaxUtil: 0.9}, 10, 0.01 / (1 - 0.9), 0.9},
		{"negative capacity saturates", MemController{Capacity: -5, BaseLatency: 0.01, MaxUtil: 0.9}, 0, 0.01 / (1 - 0.9), 0.9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.mc.Latency(tc.offered); math.Abs(got-tc.wantLat) > 1e-12 {
				t.Errorf("Latency(%v) = %v, want %v", tc.offered, got, tc.wantLat)
			}
			if got := tc.mc.Utilization(tc.offered); math.Abs(got-tc.wantUtil) > 1e-12 {
				t.Errorf("Utilization(%v) = %v, want %v", tc.offered, got, tc.wantUtil)
			}
		})
	}
}

func TestUtilization(t *testing.T) {
	mc := MemController{Capacity: 100, BaseLatency: 0.01, MaxUtil: 0.9}
	if mc.Utilization(50) != 0.5 {
		t.Errorf("Utilization(50) = %v", mc.Utilization(50))
	}
	if mc.Utilization(1000) != 0.9 {
		t.Errorf("Utilization caps at %v", mc.Utilization(1000))
	}
	if mc.Utilization(-5) != 0 {
		t.Errorf("negative offered gives %v", mc.Utilization(-5))
	}
}

func newSolver() contentionSolver {
	mc := &MemController{Capacity: 80, BaseLatency: 0.008, MaxUtil: 0.96}
	return contentionSolver{ctrl: mc, overlap: 0.3}
}

// testHitLat is the LLC hit latency the solver tests assume.
const testHitLat = 0.0005

// coeffs derives the solver's per-thread coefficients from demands, as
// Step's gather does.
func coeffs(dem []Demand, hitLat float64) (mpw, hit []float64) {
	mpw = make([]float64, len(dem))
	hit = make([]float64, len(dem))
	for i, d := range dem {
		mpw[i] = d.MissesPerWork()
		hit[i] = d.AccessesPerWork * hitLat
	}
	return mpw, hit
}

// solveDem runs s.solve on demands at testHitLat.
func solveDem(s *contentionSolver, rates []float64, dem []Demand, latMult, out []float64) float64 {
	mpw, hit := coeffs(dem, testHitLat)
	return s.solve(rates, mpw, hit, latMult, out)
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestSolveComputeThreadNearFullSpeed(t *testing.T) {
	s := newSolver()
	rates := []float64{2.33}
	dem := []Demand{{AccessesPerWork: 2, MissRatio: 0.02}}
	out := make([]float64, 1)
	solveDem(&s, rates, dem, ones(1), out)
	if out[0] < 2.2 || out[0] > 2.33 {
		t.Errorf("compute thread progress = %v, want near 2.33", out[0])
	}
}

func TestSolveMemoryThreadSlowed(t *testing.T) {
	s := newSolver()
	// 24 memory-intensive threads saturate the controller.
	n := 24
	rates := make([]float64, n)
	dem := make([]Demand, n)
	for i := range rates {
		rates[i] = 2.33
		dem[i] = Demand{AccessesPerWork: 10, MissRatio: 0.55}
	}
	out := make([]float64, n)
	offered := solveDem(&s, rates, dem, ones(n), out)
	solo := make([]float64, 1)
	solveDem(&s, rates[:1], dem[:1], ones(1), solo)
	if out[0] >= solo[0] {
		t.Errorf("contended progress %v not below solo %v", out[0], solo[0])
	}
	if slowdown := solo[0] / out[0]; slowdown < 1.5 {
		t.Errorf("slowdown = %v, want substantial (>1.5x)", slowdown)
	}
	util := s.ctrl.Utilization(offered)
	if util < 0.8 {
		t.Errorf("utilization = %v, want heavy contention", util)
	}
}

func TestSolveDifferentialContention(t *testing.T) {
	// Under the same contention, a memory-intensive thread must slow down
	// far more than a compute-intensive one — the paper's Fig 1.
	s := newSolver()
	n := 20
	rates := make([]float64, n+2)
	dem := make([]Demand, n+2)
	for i := 0; i < n; i++ {
		rates[i] = 2.33
		dem[i] = Demand{AccessesPerWork: 10, MissRatio: 0.55}
	}
	rates[n] = 2.33
	dem[n] = Demand{AccessesPerWork: 10, MissRatio: 0.55} // probe: memory
	rates[n+1] = 2.33
	dem[n+1] = Demand{AccessesPerWork: 3, MissRatio: 0.03} // probe: compute
	out := make([]float64, n+2)
	solveDem(&s, rates, dem, ones(n+2), out)
	memSlow := 2.33 / out[n]
	compSlow := 2.33 / out[n+1]
	if memSlow < 2*compSlow {
		t.Errorf("memory slowdown %v not clearly above compute slowdown %v", memSlow, compSlow)
	}
}

func TestSolveLatencyMultiplier(t *testing.T) {
	s := newSolver()
	rates := []float64{2.33}
	dem := []Demand{{AccessesPerWork: 10, MissRatio: 0.55}}
	outWarm := make([]float64, 1)
	outCold := make([]float64, 1)
	solveDem(&s, rates, dem, []float64{1}, outWarm)
	solveDem(&s, rates, dem, []float64{1.7}, outCold)
	if outCold[0] >= outWarm[0] {
		t.Errorf("NUMA-penalised progress %v not below warm %v", outCold[0], outWarm[0])
	}
}

func TestSolveZeroRateThreads(t *testing.T) {
	s := newSolver()
	rates := []float64{0, 2.33}
	dem := []Demand{{AccessesPerWork: 5, MissRatio: 0.5}, {AccessesPerWork: 5, MissRatio: 0.5}}
	out := make([]float64, 2)
	solveDem(&s, rates, dem, ones(2), out)
	if out[0] != 0 {
		t.Errorf("zero-rate thread progressed: %v", out[0])
	}
	if out[1] <= 0 {
		t.Errorf("live thread did not progress")
	}
}

func TestSolveLengthMismatchPanics(t *testing.T) {
	s := newSolver()
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	s.solve([]float64{1}, []float64{}, []float64{1}, []float64{1}, []float64{1})
}

func TestSolveOfferedNeverExceedsPhysics(t *testing.T) {
	// The converged offered rate must be non-negative and finite for any
	// demand mix, and progress must never exceed the attainable rate.
	f := func(seeds []uint16) bool {
		if len(seeds) == 0 || len(seeds) > 64 {
			return true
		}
		s := newSolver()
		rates := make([]float64, len(seeds))
		dem := make([]Demand, len(seeds))
		for i, x := range seeds {
			rates[i] = 0.5 + float64(x%300)/100 // 0.5..3.5
			dem[i] = Demand{
				AccessesPerWork: float64(x % 17),
				MissRatio:       float64(x%11) / 10,
			}
		}
		out := make([]float64, len(seeds))
		offered := solveDem(&s, rates, dem, ones(len(seeds)), out)
		if math.IsNaN(offered) || offered < 0 {
			return false
		}
		for i := range out {
			if out[i] < 0 || out[i] > rates[i]+1e-9 || math.IsNaN(out[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDemandMissesPerWork(t *testing.T) {
	d := Demand{AccessesPerWork: 10, MissRatio: 0.3}
	if d.MissesPerWork() != 3 {
		t.Errorf("MissesPerWork = %v, want 3", d.MissesPerWork())
	}
}

// BenchmarkContentionSolve times the solver's memo-miss path on the
// Table I machine's 40 lanes. Each op toggles one lane's attainable rate
// by a cold-cache-like 0.1%, as a migration does, so no op's inputs match
// the memo. In "mixed", half the lanes are memory- and half
// compute-intensive: round 0 clamps at Lmax but the fixed point lies
// below it, so the shortcut's pass fails and the damped loop runs. In
// "saturated", every lane is memory-intensive and every pass clamps, so
// the shortcut answers in 2 passes. passes/op counts thread passes.
func BenchmarkContentionSolve(b *testing.B) {
	mem := Demand{AccessesPerWork: 10, MissRatio: 0.5}
	cpu := Demand{AccessesPerWork: 3, MissRatio: 0.03}
	for _, bc := range []struct {
		name string
		odd  Demand // demand of the odd lanes; even lanes are memory-intensive
	}{{"mixed", cpu}, {"saturated", mem}} {
		b.Run(bc.name, func(b *testing.B) {
			s := newSolver()
			const n = 40
			base := make([]float64, n)
			dem := make([]Demand, n)
			for i := range base {
				base[i], dem[i] = 2.33, bc.odd
				if i%2 == 0 {
					base[i], dem[i] = 1.21, mem
				}
			}
			mpw, hit := coeffs(dem, testHitLat)
			rates, lat, out := append([]float64(nil), base...), ones(n), make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % n
				rates[k] = base[k]
				if (i/n)%2 == 0 {
					rates[k] *= 0.999
				}
				s.solve(rates, mpw, hit, lat, out)
			}
			b.ReportMetric(float64(s.passes)/float64(b.N), "passes/op")
		})
	}
}
