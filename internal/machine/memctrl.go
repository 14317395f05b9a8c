package machine

import "math"

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
//	p_i = r_i / (1 + r_i * (mpw_i * L * m_i * (1-overlap) + hit_i))
//
// where r_i is the thread's attainable compute rate on its core, mpw_i
// its misses per work unit, hit_i its LLC-hit stall per work unit
// (accesses per work times the hit latency), m_i its NUMA latency
// multiplier; and the aggregate offered rate feeding L is
// sum_i mpw_i * p_i. Higher L lowers p_i which lowers the offered rate.
//
// The solve is a damped iteration, L ← (L + Latency(offered(L)))/2 from
// L = Latency(0), capped at solveRounds passes and stopped early when a
// pass moves the latency by less than solveTol. Each pass is one walk over
// the threads. Many solves are saturated: every pass lands on the clamp
// Lmax = Latency(+Inf), and the damped latencies only halve their gap to
// Lmax, so the loop ends on the round cap. saturated finds those solves
// in two passes with the loop's exact floats; see its comment for why
// that is exact.
type contentionSolver struct {
	ctrl    *MemController
	overlap float64 // fraction of miss latency hidden by MLP/prefetch

	// passes counts every walk over the threads, memo hits excluded.
	passes int

	// Warm-start memo: the previous call's exact inputs and outputs.
	// Demands are phase-piecewise-constant and attainable rates change
	// only on placement, DVFS or cold-decay events, so consecutive ticks
	// within a steady phase present bit-identical inputs; serving the
	// memoized solution skips the whole fixed-point iteration without
	// perturbing a single float (the cached outputs came from the
	// identical cold computation). Any difference — including NaN, which
	// never compares equal — falls through to the cold path.
	memoRates   []float64
	memoMpw     []float64
	memoHits    []float64
	memoLat     []float64
	memoOut     []float64
	memoOffered float64
	memoOK      bool
}

const (
	solveRounds = 24   // pass cap of the damped iteration
	solveTol    = 1e-9 // stop once a pass moves the latency by less
)

// converged reports whether a pass that took the latency from l to next
// ends the damped iteration.
func converged(l, next float64) bool {
	diff := next - l
	return diff < solveTol && diff > -solveTol
}

// solve computes per-thread progress rates. rates[i] is the attainable
// compute rate of active thread i; mpw[i] its misses per work unit and
// hit[i] its LLC-hit stall per work unit (with any cold-cache inflation
// already applied); latMult[i] multiplies the per-miss stall for that
// thread (NUMA-remote accesses after a cross-socket migration). The
// result is written into out (len must match) and the converged aggregate
// offered miss rate is returned.
func (s *contentionSolver) solve(rates, mpw, hit, latMult, out []float64) float64 {
	n := len(rates)
	if len(mpw) != n || len(hit) != n || len(latMult) != n || len(out) != n {
		panic("machine: contention solver length mismatch")
	}
	if s.memoHit(rates, mpw, hit, latMult) {
		copy(out, s.memoOut)
		return s.memoOffered
	}
	// Round 0 starts from the uncontended latency.
	latency := s.ctrl.Latency(0)
	offered := s.pass(rates, mpw, hit, latMult, latency, out)
	next := s.ctrl.Latency(offered)
	if off, ok := s.saturated(rates, mpw, hit, latMult, latency, next, out); ok {
		s.memoize(rates, mpw, hit, latMult, out, off)
		return off
	}
	for round := 1; round < solveRounds && !converged(latency, next); round++ {
		// Damped update for stability near saturation.
		latency = 0.5*latency + 0.5*next
		offered = s.pass(rates, mpw, hit, latMult, latency, out)
		next = s.ctrl.Latency(offered)
	}
	s.memoize(rates, mpw, hit, latMult, out, offered)
	return offered
}

// pass computes every thread's progress at one latency into out and
// returns the offered miss rate, summed in thread order. The inputs are
// resliced to len(rates), so the loop carries no bounds checks.
func (s *contentionSolver) pass(rates, mpw, hit, latMult []float64, latency float64, out []float64) float64 {
	s.passes++
	mpw, hit, latMult, out = mpw[:len(rates)], hit[:len(rates)], latMult[:len(rates)], out[:len(rates)]
	k := 1 - s.overlap
	offered := 0.0
	for i, r := range rates {
		if r <= 0 {
			out[i] = 0
			continue
		}
		stallPerWork := mpw[i]*latency*latMult[i]*k + hit[i]
		p := r / (1 + r*stallPerWork)
		out[i] = p
		offered += mpw[i] * p
	}
	return offered
}

// saturated is the damped loop's shortcut for a solve whose round 0,
// taken at latency l0, clamped: next == Lmax. If every pass of the loop
// would clamp too, its latencies are the scalar sequence
// l ← 0.5*l + 0.5*Lmax, and its result is the single pass at the round
// where that sequence stops (by solveTol or the round cap). saturated
// runs the sequence, takes that one pass into out and, if it clamps,
// returns its offered rate with ok. Otherwise out is clobbered and the
// caller carries on with the loop from round 1.
//
// This is exact. Take mpw_i, hit_i, m_i ≥ 0, 1-overlap ≥ 0,
// BaseLatency ≥ 0 and MaxUtil < 1 (monotone checks them; NaN fails).
// Then each rounded operation of a pass is monotone in L, so the offered
// rate, summed in fixed order, does not increase as L grows, and
// Latency(offered(L)) does not decrease as L shrinks; it never exceeds
// Lmax. The scalar sequence does not decrease. So if the pass at the last
// latency still clamps, the pass at every earlier (smaller) latency
// clamps too, and the loop would have walked exactly that sequence.
// Infinities keep this: a pass goes NaN (0·Inf) only at the latencies
// where some monotone product is 0 or Inf, so a NaN at an earlier round
// means a NaN at round 0 or at the last pass, and NaN never clamps; a
// NaN or infinite r_i makes every pass NaN. Outside the domain the
// shortcut is never tried: a negative stall term, for one, can drive a
// thread's 1 + r*stall through zero between two rounds.
func (s *contentionSolver) saturated(rates, mpw, hit, latMult []float64, l0, next float64, out []float64) (float64, bool) {
	lmax := s.ctrl.Latency(math.Inf(1))
	if next != lmax || converged(l0, next) || !s.monotone(mpw, hit, latMult) {
		return 0, false
	}
	l := l0
	for round := 1; round < solveRounds && !converged(l, lmax); round++ {
		l = 0.5*l + 0.5*lmax
	}
	offered := s.pass(rates, mpw, hit, latMult, l, out)
	return offered, s.ctrl.Latency(offered) == lmax
}

// monotone reports whether the inputs lie in the domain where a pass is
// monotone in the latency (see saturated).
func (s *contentionSolver) monotone(mpw, hit, latMult []float64) bool {
	if !(s.ctrl.BaseLatency >= 0 && s.ctrl.MaxUtil < 1 && 1-s.overlap >= 0) {
		return false
	}
	for i := range mpw {
		if !(mpw[i] >= 0 && hit[i] >= 0 && latMult[i] >= 0) {
			return false
		}
	}
	return true
}

// reserve grows the memo slices to hold n threads, so memoizing a solve
// over every registered thread allocates nothing.
func (s *contentionSolver) reserve(n int) {
	s.memoRates = reserve(s.memoRates, n)
	s.memoMpw = reserve(s.memoMpw, n)
	s.memoHits = reserve(s.memoHits, n)
	s.memoLat = reserve(s.memoLat, n)
	s.memoOut = reserve(s.memoOut, n)
}

// memoHit reports whether the inputs are bit-identical to the previous
// call's. NaN inputs never hit (NaN != NaN), which is the conservative
// direction.
func (s *contentionSolver) memoHit(rates, mpw, hit, latMult []float64) bool {
	if !s.memoOK || len(rates) != len(s.memoRates) {
		return false
	}
	for i := range rates {
		if rates[i] != s.memoRates[i] || mpw[i] != s.memoMpw[i] || hit[i] != s.memoHits[i] || latMult[i] != s.memoLat[i] {
			return false
		}
	}
	return true
}

// memoize records the call just solved, reusing the memo slices so the
// steady state allocates nothing.
func (s *contentionSolver) memoize(rates, mpw, hit, latMult, out []float64, offered float64) {
	s.memoRates = append(s.memoRates[:0], rates...)
	s.memoMpw = append(s.memoMpw[:0], mpw...)
	s.memoHits = append(s.memoHits[:0], hit...)
	s.memoLat = append(s.memoLat[:0], latMult...)
	s.memoOut = append(s.memoOut[:0], out...)
	s.memoOffered = offered
	s.memoOK = true
}
