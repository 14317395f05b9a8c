package traffic

import (
	"math"
	"sort"

	"dike/internal/sim"
)

// Arrival is one generated request: the instant it enters the system,
// its tenant class, its drawn service demand and the seed that
// decorrelates its program's noise stream.
type Arrival struct {
	// At is the arrival instant, ms. Always >= 1 so admission control
	// runs before the request's first tick of execution.
	At sim.Time
	// Class indexes Spec.Classes.
	Class int
	// Work is the request's service demand in work units.
	Work float64
	// Seed drives the request program's burst/noise streams.
	Seed uint64
}

// Generate produces the full arrival stream of the spec: every class's
// process sampled independently from forked RNG streams, merged in
// (time, class) order. It is a pure function of (spec, seed) — the
// determinism the replay and digest layers need — and must be called on
// a validated spec.
func (s *Spec) Generate(seed uint64) []Arrival {
	base := sim.NewRNG(seed)
	load := s.load()
	horizon := float64(s.HorizonMs)
	var all []Arrival
	for ci, c := range s.Classes {
		// Distinct forks for event times, demand draws and program seeds
		// keep a change in one stream from rippling into the others.
		timeRNG := base.Fork(uint64(ci) << 2)
		workRNG := base.Fork(uint64(ci)<<2 | 1)
		seedRNG := base.Fork(uint64(ci)<<2 | 2)
		rate := c.Arrival.RatePerSec * load / 1000 // requests per ms
		var times []float64
		switch c.Arrival.Process {
		case ProcessPoisson:
			times = genPoisson(timeRNG, rate, horizon)
		case ProcessMMPP:
			times = genMMPP(timeRNG, c.Arrival, rate, horizon)
		case ProcessDiurnal:
			times = genDiurnal(timeRNG, c.Arrival, rate, horizon)
		}
		for _, t := range times {
			w := c.MeanWork
			if c.WorkDist != WorkDistFixed {
				// Exponential demand, clamped: no zero-work programs and
				// no single request longer than the whole arrival window.
				w *= clamp(expUnit(workRNG), 0.05, 8)
			}
			all = append(all, Arrival{
				At:    sim.Time(t) + 1,
				Class: ci,
				Work:  w,
				Seed:  seedRNG.Uint64(),
			})
		}
	}
	// Stable merge: per-class streams are already time-ordered, so
	// sorting by (At, Class) — with per-class order preserved by
	// SliceStable — gives one canonical stream.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		return all[i].Class < all[j].Class
	})
	return all
}

// expUnit draws a unit-mean exponential variate.
func expUnit(r *sim.RNG) float64 {
	// -ln(1-U) with U in [0,1); Log1p keeps precision near zero and the
	// guard keeps a U=0 draw from producing a zero gap.
	v := -math.Log1p(-r.Float64())
	if v <= 0 {
		v = 1e-12
	}
	return v
}

// clamp bounds x to [lo, hi].
func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// genPoisson samples a homogeneous Poisson process: i.i.d. exponential
// interarrivals at `rate` per ms over [0, horizon).
func genPoisson(r *sim.RNG, rate, horizon float64) []float64 {
	var out []float64
	t := expUnit(r) / rate
	for t < horizon {
		out = append(out, t)
		t += expUnit(r) / rate
	}
	return out
}

// genMMPP samples a two-state Markov-modulated Poisson process: the
// source alternates between a calm state and a burst state (dwell times
// exponential with means CalmMs/BurstMs), arriving at calmRate and
// burstFactor×calmRate respectively. The calm rate is chosen so the
// time-average rate equals the requested mean — sweeping offered load
// moves an MMPP class exactly as far as a Poisson one.
func genMMPP(r *sim.RNG, a ArrivalSpec, rate, horizon float64) []float64 {
	bf := a.BurstFactor
	if bf == 0 {
		bf = 4
	}
	burstMs, calmMs := a.dwells()
	calmRate := rate * (calmMs + burstMs) / (calmMs + bf*burstMs)
	var out []float64
	t := 0.0
	inBurst := false
	stateEnd := expUnit(r) * calmMs
	for t < horizon {
		stateRate := calmRate
		if inBurst {
			stateRate = calmRate * bf
		}
		next := t + expUnit(r)/stateRate
		if next >= stateEnd {
			// The gap straddles a state change; jump to the boundary and
			// redraw — exponential memorylessness keeps this exact.
			t = stateEnd
			inBurst = !inBurst
			dwell := calmMs
			if inBurst {
				dwell = burstMs
			}
			stateEnd = t + expUnit(r)*dwell
			continue
		}
		t = next
		if t < horizon {
			out = append(out, t)
		}
	}
	return out
}

// dwells returns an MMPP class's mean burst and calm dwell times, ms,
// with their defaults applied.
func (a ArrivalSpec) dwells() (burstMs, calmMs float64) {
	burstMs, calmMs = a.BurstMs, a.CalmMs
	if burstMs == 0 {
		burstMs = 500
	}
	if calmMs == 0 {
		calmMs = 2000
	}
	return burstMs, calmMs
}

// genDiurnal samples a non-homogeneous Poisson process whose rate ramps
// sinusoidally — λ(t) = rate·(1 + A·sin(2πt/period)) — via
// Lewis-Shedler thinning: candidates at the peak rate, accepted with
// probability λ(t)/λmax.
func genDiurnal(r *sim.RNG, a ArrivalSpec, rate, horizon float64) []float64 {
	amp := a.Amplitude
	if amp == 0 {
		amp = 0.5
	}
	period := a.PeriodMs
	if period == 0 {
		period = horizon
	}
	peak := rate * (1 + amp)
	var out []float64
	t := expUnit(r) / peak
	for t < horizon {
		lambda := rate * (1 + amp*math.Sin(2*math.Pi*t/period))
		if r.Float64()*peak < lambda {
			out = append(out, t)
		}
		t += expUnit(r) / peak
	}
	return out
}
