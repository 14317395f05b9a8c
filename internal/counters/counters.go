// Package counters emulates the hardware performance counters the paper's
// Observer reads. The machine model is the only writer; schedulers are
// read-only consumers and may observe nothing about a thread beyond what a
// real PMU would expose — cumulative instruction, LLC-access and LLC-miss
// counts — plus per-core served-bandwidth counts (the uncore counters the
// Observer checks each quantum).
//
// Counters are cumulative; rate-style metrics (memory access rate, miss
// ratio) are derived by differencing snapshots across a quantum, exactly
// as a sampling profiler would.
package counters

import "math"

// ThreadCounters is the cumulative counter block for one thread.
type ThreadCounters struct {
	Work         float64 // abstract work units completed (not PMU-visible; used only by metrics)
	Instructions float64 // retired instructions (proportional to work)
	Accesses     float64 // LLC accesses
	Misses       float64 // LLC misses, i.e. main-memory transactions
	Migrations   int     // number of times the thread changed cores
}

// CoreCounters is the cumulative counter block for one logical core.
type CoreCounters struct {
	ServedMisses float64 // memory transactions issued by threads while on this core
}

// ThreadDelta is the difference of two thread counter snapshots over an
// interval, with derived rates.
type ThreadDelta struct {
	Interval     float64 // ms
	Work         float64 // simulator-internal; not PMU-visible
	Instructions float64
	Accesses     float64
	Misses       float64
	Migrations   int
}

// IPS returns retired instructions per ms over the interval.
func (d ThreadDelta) IPS() float64 {
	if d.Interval <= 0 {
		return 0
	}
	return d.Instructions / d.Interval
}

// AccessRate returns LLC misses per ms over the interval — the paper's
// "memory access rate", its primary contention metric.
func (d ThreadDelta) AccessRate() float64 {
	if d.Interval <= 0 {
		return 0
	}
	return d.Misses / d.Interval
}

// Sane reports whether the delta is physically plausible: all counter
// fields finite and non-negative. Real PMUs glitch — reads race resets,
// registers saturate, buggy drivers return garbage — so consumers must
// gate on this before deriving rates; an insane delta carries no
// information and should be treated as a missing sample.
func (d ThreadDelta) Sane() bool {
	for _, v := range [...]float64{d.Instructions, d.Accesses, d.Misses, d.Work} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return false
		}
	}
	return true
}

// MissRatio returns misses/accesses over the interval (0 when the thread
// performed no accesses). The paper classifies a thread as memory
// intensive when this exceeds 10%.
func (d ThreadDelta) MissRatio() float64 {
	if d.Accesses <= 0 {
		return 0
	}
	return d.Misses / d.Accesses
}

// Since returns the delta between a previous snapshot and c over
// interval ms.
func (c ThreadCounters) Since(prev ThreadCounters, interval float64) ThreadDelta {
	return ThreadDelta{
		Interval:     interval,
		Work:         c.Work - prev.Work,
		Instructions: c.Instructions - prev.Instructions,
		Accesses:     c.Accesses - prev.Accesses,
		Misses:       c.Misses - prev.Misses,
		Migrations:   c.Migrations - prev.Migrations,
	}
}

// CoreDelta is the difference of two core counter snapshots.
type CoreDelta struct {
	Interval     float64
	ServedMisses float64
}

// Sane reports whether the core delta is physically plausible (finite,
// non-negative). See ThreadDelta.Sane.
func (d CoreDelta) Sane() bool {
	return !math.IsNaN(d.ServedMisses) && !math.IsInf(d.ServedMisses, 0) && d.ServedMisses >= 0
}

// Since returns the delta between a previous snapshot and c over
// interval ms.
func (c CoreCounters) Since(prev CoreCounters, interval float64) CoreDelta {
	return CoreDelta{Interval: interval, ServedMisses: c.ServedMisses - prev.ServedMisses}
}
