// Package workload synthesises the benchmark programs the paper
// schedules: phased models of ten Rodinia/stream applications plus the
// barrier-coupled KMEANS, and the sixteen four-application workloads of
// Table II. The machine model executes these programs; schedulers never
// see them — they observe only performance counters, as on real hardware.
package workload

import (
	"errors"
	"fmt"
	"math"

	"dike/internal/machine"
	"dike/internal/sim"
)

// Class is the ground-truth memory/compute classification of an
// application (Table II: bold = memory intensive). Schedulers do not get
// this; they classify online from measured miss ratios. The harness uses
// it to type workloads as B/UC/UM and to validate online classification.
type Class int

const (
	// ComputeIntensive applications mostly hit in cache.
	ComputeIntensive Class = iota
	// MemoryIntensive applications miss to DRAM on >10% of LLC accesses.
	MemoryIntensive
)

// String returns "C" or "M", the paper's shorthand.
func (c Class) String() string {
	if c == MemoryIntensive {
		return "M"
	}
	return "C"
}

// Phase is one segment of an application's execution with roughly
// constant memory behaviour.
type Phase struct {
	// Work is the length of the phase in work units.
	Work float64
	// AccessesPerWork is LLC accesses issued per work unit.
	AccessesPerWork float64
	// MissRatio is the fraction of LLC accesses missing to memory.
	MissRatio float64
}

// Profile is the static description of an application: its phases plus
// burst and noise behaviour. One Profile instantiates many identical
// threads (the paper runs 8 OpenMP threads per application).
type Profile struct {
	// Name is the application name, e.g. "jacobi".
	Name string
	// Class is the ground-truth classification.
	Class Class
	// Phases execute in order; their Work values sum to the total work.
	Phases []Phase

	// Bursts model the short memory-intensive episodes that make
	// compute-intensive applications hard to predict (paper §IV-C):
	// every BurstEvery ms the thread spends BurstLen ms at burst demand.
	BurstEvery sim.Time
	BurstLen   sim.Time
	// BurstAccesses/BurstMissRatio are the demand during a burst.
	BurstAccesses  float64
	BurstMissRatio float64

	// NoiseEps jitters demand by ±NoiseEps, resampled every noise epoch,
	// deterministically per thread.
	NoiseEps float64

	// BarrierInterval, if positive, couples the application's threads
	// with a barrier every that many work units (the KMEANS model).
	BarrierInterval float64
}

// Validate reports the first problem with the profile, or nil.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return errors.New("workload: profile with empty name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload: profile %q has no phases", p.Name)
	}
	for i, ph := range p.Phases {
		switch {
		case ph.Work <= 0:
			return fmt.Errorf("workload: profile %q phase %d has non-positive work", p.Name, i)
		case ph.AccessesPerWork < 0:
			return fmt.Errorf("workload: profile %q phase %d has negative accesses", p.Name, i)
		case ph.MissRatio < 0 || ph.MissRatio > 1:
			return fmt.Errorf("workload: profile %q phase %d miss ratio outside [0,1]", p.Name, i)
		}
	}
	if p.BurstEvery < 0 || p.BurstLen < 0 || p.BurstLen > p.BurstEvery {
		return fmt.Errorf("workload: profile %q has inconsistent burst timing", p.Name)
	}
	if p.BurstMissRatio < 0 || p.BurstMissRatio > 1 {
		return fmt.Errorf("workload: profile %q burst miss ratio outside [0,1]", p.Name)
	}
	if p.NoiseEps < 0 || p.NoiseEps >= 1 {
		return fmt.Errorf("workload: profile %q noise outside [0,1)", p.Name)
	}
	if p.BarrierInterval < 0 {
		return fmt.Errorf("workload: profile %q negative barrier interval", p.Name)
	}
	return nil
}

// MeanMissesPerWork returns the work-weighted mean memory intensity
// (LLC misses per work unit) across phases — the ground-truth figure an
// offline profiler would report, used by the oracle baseline.
func (p *Profile) MeanMissesPerWork() float64 {
	total, sum := 0.0, 0.0
	for _, ph := range p.Phases {
		total += ph.Work
		sum += ph.Work * ph.AccessesPerWork * ph.MissRatio
	}
	if total == 0 {
		return 0
	}
	return sum / total
}

// TotalWork returns the sum of phase work.
func (p *Profile) TotalWork() float64 {
	sum := 0.0
	for _, ph := range p.Phases {
		sum += ph.Work
	}
	return sum
}

// Instantiate returns the machine Program for one thread of this profile.
// seed decorrelates burst phase offsets and noise across threads while
// keeping each thread deterministic.
func (p *Profile) Instantiate(seed uint64) machine.Program {
	boundaries := make([]float64, len(p.Phases))
	acc := 0.0
	for i, ph := range p.Phases {
		acc += ph.Work
		boundaries[i] = acc
	}
	burstOffset := sim.Time(0)
	if p.BurstEvery > 0 {
		burstOffset = sim.Time(mix(seed, 0x6275727374) % uint64(p.BurstEvery))
	}
	return &program{p: p, bounds: boundaries, total: acc, seed: seed, burstOffset: burstOffset}
}

// program implements machine.Program for one thread.
type program struct {
	p           *Profile
	bounds      []float64
	total       float64
	seed        uint64
	burstOffset sim.Time
}

// noiseEpoch is how often per-thread demand jitter is resampled (ms).
// Long enough that a quantum sees correlated noise, short enough that
// prediction is non-trivial.
const noiseEpoch = 64

// TotalWork implements machine.Program.
func (g *program) TotalWork() float64 { return g.total }

// DemandAt implements machine.Program. It is a pure function of
// (work, now) as the machine contract requires. The window is the
// intersection of the phase's work range, the burst episode or gap that
// holds now, and the noise epoch; before time zero (or where now plus the
// burst offset overflows) it holds for now alone.
func (g *program) DemandAt(work float64, now sim.Time) (machine.Demand, machine.Window) {
	win := machine.Forever()
	// Locate the current phase by completed work (linear scan: profiles
	// have a handful of phases). Work at or past every earlier bound and
	// below the phase's own stays in it; any work past the bounds before
	// the last phase is in the last one.
	idx := len(g.bounds) - 1
	for i, b := range g.bounds[:idx] {
		if work < b {
			idx = i
			win.WorkTo = math.Nextafter(b, math.Inf(-1))
			break
		}
		if b > win.WorkFrom {
			win.WorkFrom = b
		}
	}
	ph := g.p.Phases[idx]
	dem := machine.Demand{AccessesPerWork: ph.AccessesPerWork, MissRatio: ph.MissRatio}

	// Burst episodes override the phase demand.
	if every := g.p.BurstEvery; every > 0 {
		x := now + g.burstOffset
		pos := x % every
		burst := pos < g.p.BurstLen
		if burst {
			dem.AccessesPerWork = g.p.BurstAccesses
			dem.MissRatio = g.p.BurstMissRatio
		}
		if x < 0 {
			win.From, win.To = now, now
		} else {
			// x lies in the period [x-pos, x-pos+every): a burst over its
			// first BurstLen ms, a gap over the rest.
			start, end := x-pos, addSat(x-pos, every-1)
			if burst {
				end = addSat(start, g.p.BurstLen-1)
			} else {
				start += max(g.p.BurstLen, 0)
			}
			win.From, win.To = start-g.burstOffset, end-g.burstOffset
		}
	}

	// Deterministic slow jitter.
	if g.p.NoiseEps > 0 {
		epoch := uint64(now / noiseEpoch)
		u := float64(mix(g.seed, epoch)>>11) / (1 << 53) // uniform [0,1)
		factor := 1 + g.p.NoiseEps*(2*u-1)
		dem.AccessesPerWork *= factor
		dem.MissRatio *= factor
		if dem.MissRatio > 1 {
			dem.MissRatio = 1
		}
		from, to := now, now
		if now >= 0 {
			from = now - now%noiseEpoch
			to = from + noiseEpoch - 1
		}
		win.From, win.To = max(win.From, from), min(win.To, to)
	}
	return dem, win
}

// addSat returns a+b for b >= 0, or the largest time where that overflows.
func addSat(a, b sim.Time) sim.Time {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// mix hashes (seed, x) with a splitmix64 finaliser; used for stateless
// deterministic noise.
func mix(seed, x uint64) uint64 {
	z := seed + (x+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
