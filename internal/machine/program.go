package machine

import (
	"math"

	"dike/internal/sim"
)

// Demand is a thread's instantaneous resource demand, expressed per unit
// of work: how many LLC accesses a unit of work performs and what fraction
// of those miss to main memory. The workload package synthesises Demand
// streams that mimic the Rodinia applications' phase behaviour.
type Demand struct {
	// AccessesPerWork is LLC accesses issued per work unit completed.
	AccessesPerWork float64
	// MissRatio is the fraction of those accesses that miss the LLC and
	// reach the memory controller, in [0, 1].
	MissRatio float64
}

// MissesPerWork returns main-memory transactions per work unit.
func (d Demand) MissesPerWork() float64 { return d.AccessesPerWork * d.MissRatio }

// Window is the set of queries a DemandAt answer holds for: every
// (work, now) with WorkFrom <= work <= WorkTo and From <= now <= To gets
// the same Demand, bit for bit. Both ranges are closed, so a window can
// hold the largest time and infinite work; a NaN bound holds nothing.
type Window struct {
	WorkFrom, WorkTo float64
	From, To         sim.Time
}

// Forever returns the window of a demand that never changes.
func Forever() Window {
	return Window{WorkFrom: math.Inf(-1), WorkTo: math.Inf(1), From: math.MinInt64, To: math.MaxInt64}
}

// Contains reports whether the query (work, now) lies in w.
func (w Window) Contains(work float64, now sim.Time) bool {
	return w.WorkFrom <= work && work <= w.WorkTo && w.From <= now && now <= w.To
}

// Program describes a thread's execution as seen by the machine: a fixed
// amount of total work and a demand profile that may vary with the
// thread's own progress and with wall-clock time (phases, bursts). A
// Program must be deterministic: the same (work, now) always yields the
// same Demand.
type Program interface {
	// TotalWork is the work the thread must complete, in work units. The
	// machine reads it once, when the thread is added.
	TotalWork() float64
	// DemandAt returns the demand profile when the thread has completed
	// `work` units at simulated time `now`, and a window that contains
	// (work, now) and over which that answer does not change. The
	// machine asks again only once the thread leaves the window.
	DemandAt(work float64, now sim.Time) (Demand, Window)
}
