package core

import "dike/internal/sim"

// WorkloadType is the Optimizer's online workload classification
// (§III-F): balanced, unbalanced-compute or unbalanced-memory, from the
// observed counts of memory- and compute-classified threads.
type WorkloadType int

const (
	// TypeB — memory and compute thread counts roughly equal.
	TypeB WorkloadType = iota
	// TypeUC — compute-intensive threads outnumber memory-intensive.
	TypeUC
	// TypeUM — memory-intensive threads outnumber compute-intensive.
	TypeUM
)

// classifyWorkload types the current mix. Exact equality is too brittle
// for online counts (classifications flutter near the miss-ratio
// boundary), so a band around one half is treated as balanced.
func classifyWorkload(obs *Observation) WorkloadType {
	total := len(obs.Alive)
	if total == 0 {
		return TypeB
	}
	frac := float64(obs.MemoryThreads()) / float64(total)
	switch {
	case frac < 0.45:
		return TypeUC
	case frac > 0.68:
		// The band is asymmetric because the ever-present KMEANS
		// contention app classifies memory-intensive, tilting balanced
		// mixes above one half.
		return TypeUM
	default:
		return TypeB
	}
}

// Optimizer adaptively tunes ⟨swapSize, quantaLength⟩ per Algorithm 2:
// starting from the default configuration it moves one unit per
// invocation in the direction the contour analysis (Fig 5) prescribes
// for the current workload type and adaptation goal, within the
// parameter ranges of §III-F.
//
// Beyond the pseudocode, the paper notes that "in every step of the
// adaptation, the optimizer ensures changing scheduling parameters does
// not harm the desired behavior"; the Optimizer therefore watches its
// goal metric and reverts the most recent step if the metric degraded
// materially, then holds for a few invocations before retrying.
type Optimizer struct {
	goal     AdaptationGoal
	swapSize int
	quanta   sim.Time

	// Guard state.
	guardOn    bool
	prevMetric float64
	havePrev   bool
	lastSwap   int
	lastQuanta sim.Time
	stepped    bool
	holdUntil  int // invocation count until which no new steps are taken
	calls      int
}

// NewOptimizer returns an optimizer starting from the given
// configuration. guard enables the revert-on-degradation protection.
func NewOptimizer(goal AdaptationGoal, swapSize int, quanta sim.Time, guard bool) *Optimizer {
	return &Optimizer{
		goal:     goal,
		swapSize: swapSize,
		quanta:   quanta,
		guardOn:  guard,
	}
}

// Params returns the current ⟨swapSize, quantaLength⟩.
func (o *Optimizer) Params() (int, sim.Time) { return o.swapSize, o.quanta }

// Step runs one optimizer invocation (Algorithm 2). fairness is the
// current gate value (mean per-process CV; lower is fairer), θf the
// fairness threshold, and goalMetric the measured value of the
// adaptation goal for the guard: for fairness adaptation lower is
// better (it is the gate value itself); for performance adaptation
// higher is better (aggregate progress rate).
func (o *Optimizer) Step(obs *Observation, fairness, theta, goalMetric float64) {
	o.calls++
	if o.goal == AdaptNone {
		return
	}

	// Guard: if the previous step made the goal metric materially worse,
	// undo it and hold.
	if o.guardOn && o.stepped && o.havePrev {
		worse := false
		const margin = 0.05
		if o.goal == AdaptFairness || o.goal == AdaptEnergy {
			// Lower is better: the gate value itself, or (energy mode)
			// the gate value weighted by the platform's power draw.
			worse = goalMetric > o.prevMetric*(1+margin)
		} else {
			worse = goalMetric < o.prevMetric*(1-margin)
		}
		if worse {
			o.swapSize, o.quanta = o.lastSwap, o.lastQuanta
			o.stepped = false
			o.holdUntil = o.calls + 3
			o.prevMetric = goalMetric
			return
		}
	}
	o.prevMetric = goalMetric
	o.havePrev = true
	o.stepped = false

	// Algorithm 2 line 2: nothing to do while the system is fair —
	// except in energy mode, where a fair system is an opportunity to
	// lengthen the quantum and spend fewer scheduling decisions on it.
	if fairness < theta {
		if o.goal == AdaptEnergy && o.calls >= o.holdUntil {
			o.lastSwap, o.lastQuanta = o.swapSize, o.quanta
			o.incQuanta(1000)
			o.stepped = o.swapSize != o.lastSwap || o.quanta != o.lastQuanta
		}
		return
	}
	if o.calls < o.holdUntil {
		return
	}

	wt := classifyWorkload(obs)
	o.lastSwap, o.lastQuanta = o.swapSize, o.quanta

	switch o.goal {
	case AdaptFairness, AdaptEnergy:
		switch wt {
		case TypeB:
			o.decQuanta(100)
		case TypeUC:
			o.incSwap()
			o.decQuanta(200)
		case TypeUM:
			o.incSwap()
			o.decQuanta(500)
		}
	case AdaptPerformance:
		switch wt {
		case TypeB:
			o.incQuanta(1000)
		case TypeUC:
			o.incSwap()
			o.incQuanta(1000)
		case TypeUM:
			o.incQuanta(1000)
		}
	}
	o.stepped = o.swapSize != o.lastSwap || o.quanta != o.lastQuanta
}

// ForceParams overrides the current ⟨swapSize, quantaLength⟩ — the
// watchdog's revert-to-last-known-good hook. Out-of-range values are
// snapped into the valid parameter space. The optimizer's guard state is
// reset and stepping is held for a few invocations so the restored
// configuration gets a fair observation window before adaptation
// resumes.
func (o *Optimizer) ForceParams(swap int, q sim.Time) {
	if swap < MinSwapSize {
		swap = MinSwapSize
	}
	if swap > MaxSwapSize {
		swap = MaxSwapSize
	}
	if swap%2 != 0 {
		swap--
	}
	o.swapSize = swap
	o.quanta = QuantaLevels[o.quantaIdx(q)]
	o.stepped = false
	o.havePrev = false
	o.holdUntil = o.calls + 3
}

// quantaIdx is quantaIndex with self-healing: an out-of-set length snaps
// to the nearest valid level rather than panicking mid-run.
func (o *Optimizer) quantaIdx(q sim.Time) int {
	if i, ok := quantaIndex(q); ok {
		return i
	}
	return nearestQuantaIndex(q)
}

// incSwap raises swapSize one level, capped at MaxSwapSize.
func (o *Optimizer) incSwap() {
	if o.swapSize+2 <= MaxSwapSize {
		o.swapSize += 2
	}
}

// decQuanta lowers quantaLength one level, flooring at `floor`.
func (o *Optimizer) decQuanta(floor sim.Time) {
	i := o.quantaIdx(o.quanta)
	if i > 0 && QuantaLevels[i-1] >= floor {
		o.quanta = QuantaLevels[i-1]
	}
}

// incQuanta raises quantaLength one level, capped at `cap`.
func (o *Optimizer) incQuanta(capT sim.Time) {
	i := o.quantaIdx(o.quanta)
	if i < len(QuantaLevels)-1 && QuantaLevels[i+1] <= capT {
		o.quanta = QuantaLevels[i+1]
	}
}
