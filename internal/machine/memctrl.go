package machine

// MemController models the single shared memory controller of the paper's
// platform (Table I: one memory controller, 32 GB RAM). It is an analytic
// queueing model: when the aggregate offered miss rate approaches the
// controller's service capacity, per-miss latency inflates as
//
//	L = L0 / (1 - rho),  rho = min(offered/capacity, rhoMax)
//
// which is the standard open-queue approximation. The inflation is what
// produces the paper's motivating observation (Fig 1): memory-intensive
// threads suffer multi-x slowdowns under co-location while
// compute-intensive threads barely degrade, because the latency term is
// weighted by each thread's own miss intensity.
type MemController struct {
	// Capacity is the service capacity in misses per ms.
	Capacity float64
	// BaseLatency is the uncontended effective stall per miss, in ms. It
	// is an *effective* latency: real DRAM latency scaled down by the
	// memory-level parallelism a core can sustain.
	BaseLatency float64
	// MaxUtil caps rho so latency stays finite (e.g. 0.97).
	MaxUtil float64
}

// Latency returns the per-miss stall given an aggregate offered miss rate.
// A controller with no capacity is saturated, not uncontended: it reports
// the latency at the utilisation cap. (Specs are validated up front, so
// this only guards hand-constructed controllers.)
func (mc *MemController) Latency(offered float64) float64 {
	if mc.Capacity <= 0 {
		return mc.BaseLatency / (1 - mc.MaxUtil)
	}
	rho := offered / mc.Capacity
	if rho > mc.MaxUtil {
		rho = mc.MaxUtil
	}
	if rho < 0 {
		rho = 0
	}
	return mc.BaseLatency / (1 - rho)
}

// Utilization returns min(offered/capacity, MaxUtil), the rho used by
// Latency. Exposed for traces and tests.
func (mc *MemController) Utilization(offered float64) float64 {
	if mc.Capacity <= 0 {
		return mc.MaxUtil
	}
	rho := offered / mc.Capacity
	if rho > mc.MaxUtil {
		rho = mc.MaxUtil
	}
	if rho < 0 {
		rho = 0
	}
	return rho
}

// contentionSolver carries the per-tick fixed-point computation between
// controller latency and per-thread progress. Progress of thread i obeys
//
//	p_i = r_i / (1 + r_i * (mpw_i * L * (1-overlap) + apw_i * hitLat))
//
// where r_i is the thread's attainable compute rate on its core, mpw_i
// its misses per work unit, apw_i its accesses per work unit; and the
// aggregate offered rate feeding L is sum_i mpw_i * p_i. Higher L lowers
// p_i which lowers the offered rate, so the map is monotone contracting
// and damped iteration converges geometrically, but slowly: measured on
// Table II workloads, a memo miss runs 21–24 of the 24 rounds, and most
// misses end on the round cap 1–2e-9 from the fixed point rather than
// within the 1e-9 tolerance.
type contentionSolver struct {
	ctrl    *MemController
	overlap float64 // fraction of miss latency hidden by MLP/prefetch
	hitLat  float64 // ms per LLC hit

	// Warm-start memo: the previous call's exact inputs and outputs.
	// Demands are phase-piecewise-constant and attainable rates change
	// only on placement, DVFS or cold-decay events, so consecutive ticks
	// within a steady phase present bit-identical inputs; serving the
	// memoized solution skips the whole fixed-point iteration without
	// perturbing a single float (the cached outputs came from the
	// identical cold computation). Any difference — including NaN, which
	// never compares equal — falls through to the cold path.
	memoRates   []float64
	memoDem     []Demand
	memoLat     []float64
	memoOut     []float64
	memoOffered float64
	memoOK      bool
}

// solve computes per-thread progress rates. rates[i] is the attainable
// compute rate of active thread i; dem[i] its current demand (with any
// cold-cache inflation already applied); latMult[i] multiplies the
// per-miss stall for that thread (NUMA-remote accesses after a
// cross-socket migration). The result is written into out (len must
// match) and the converged aggregate offered miss rate is returned.
func (s *contentionSolver) solve(rates []float64, dem []Demand, latMult []float64, out []float64) float64 {
	if len(rates) != len(dem) || len(rates) != len(out) || len(rates) != len(latMult) {
		panic("machine: contention solver length mismatch")
	}
	if s.memoHit(rates, dem, latMult) {
		copy(out, s.memoOut)
		return s.memoOffered
	}
	// Start from the uncontended latency.
	latency := s.ctrl.Latency(0)
	offered := 0.0
	const iters = 24
	const tol = 1e-9
	for it := 0; it < iters; it++ {
		offered = 0
		for i, r := range rates {
			if r <= 0 {
				out[i] = 0
				continue
			}
			mpw := dem[i].MissesPerWork()
			apw := dem[i].AccessesPerWork
			stallPerWork := mpw*latency*latMult[i]*(1-s.overlap) + apw*s.hitLat
			p := r / (1 + r*stallPerWork)
			out[i] = p
			offered += mpw * p
		}
		next := s.ctrl.Latency(offered)
		if diff := next - latency; diff < tol && diff > -tol {
			latency = next
			break
		}
		// Damped update for stability near saturation.
		latency = 0.5*latency + 0.5*next
	}
	s.memoize(rates, dem, latMult, out, offered)
	return offered
}

// reserve grows the memo slices to hold n threads, so memoizing a solve
// over every registered thread allocates nothing.
func (s *contentionSolver) reserve(n int) {
	s.memoRates = reserve(s.memoRates, n)
	s.memoDem = reserve(s.memoDem, n)
	s.memoLat = reserve(s.memoLat, n)
	s.memoOut = reserve(s.memoOut, n)
}

// memoHit reports whether the inputs are bit-identical to the previous
// call's. NaN inputs never hit (NaN != NaN), which is the conservative
// direction.
func (s *contentionSolver) memoHit(rates []float64, dem []Demand, latMult []float64) bool {
	if !s.memoOK || len(rates) != len(s.memoRates) {
		return false
	}
	for i := range rates {
		if rates[i] != s.memoRates[i] || dem[i] != s.memoDem[i] || latMult[i] != s.memoLat[i] {
			return false
		}
	}
	return true
}

// memoize records the call just solved, reusing the memo slices so the
// steady state allocates nothing.
func (s *contentionSolver) memoize(rates []float64, dem []Demand, latMult []float64, out []float64, offered float64) {
	s.memoRates = append(s.memoRates[:0], rates...)
	s.memoDem = append(s.memoDem[:0], dem...)
	s.memoLat = append(s.memoLat[:0], latMult...)
	s.memoOut = append(s.memoOut[:0], out...)
	s.memoOffered = offered
	s.memoOK = true
}
