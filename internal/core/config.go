// Package core implements Dike, the paper's contribution: a predictive,
// adaptive, contention-aware scheduler for heterogeneous multicores.
//
// Dike divides time into quanta. Each quantum (Figure 3):
//
//	Observer  — reads performance counters, classifies threads as
//	            compute/memory intensive, maintains per-core bandwidth
//	            moving means (CoreBW);
//	Selector  — checks the system-fairness gate (coefficient of
//	            variation of access rates vs θf) and pairs placement-rule
//	            violators (Algorithm 1);
//	Predictor — estimates the access-rate profit of each candidate swap
//	            with the closed-loop model of Eqns 1–3;
//	Decider   — drops pairs swapped last quantum and pairs with
//	            non-positive predicted profit;
//	Migrator  — executes the surviving swaps as affinity exchanges;
//	Optimizer — (adaptive modes) retunes quantaLength and swapSize to
//	            the current workload type per Algorithm 2.
package core

import (
	"errors"
	"fmt"
	"math"

	"dike/internal/sim"
)

// AdaptationGoal selects what the Optimizer tunes for.
type AdaptationGoal int

const (
	// AdaptNone runs Dike with fixed parameters (the paper's "Dike").
	AdaptNone AdaptationGoal = iota
	// AdaptFairness is the paper's Dike-AF.
	AdaptFairness
	// AdaptPerformance is the paper's Dike-AP.
	AdaptPerformance
	// AdaptEnergy is the energy-aware variant (Dike-EA, beyond the
	// paper): while the system is unfair it adapts like Dike-AF, but its
	// guard metric is fairness weighted by the platform's power draw —
	// and while the system is fair it lengthens the quantum to spend
	// fewer decisions (and with a capping governor attached, fewer
	// watts) on an already-fair schedule.
	AdaptEnergy
)

// String names the goal as the paper does.
func (g AdaptationGoal) String() string {
	switch g {
	case AdaptFairness:
		return "fairness"
	case AdaptPerformance:
		return "performance"
	case AdaptEnergy:
		return "energy"
	default:
		return "none"
	}
}

// QuantaLevels are the quantum lengths Dike draws from (§III-F).
var QuantaLevels = []sim.Time{100, 200, 500, 1000}

// Swap-size bounds: any even number from MinSwapSize up to MaxSwapSize
// ("2 to half the total number of running threads", capped at 16 by
// Algorithm 2; 4 quanta levels x 8 swap sizes = the paper's 32
// configurations).
const (
	MinSwapSize = 2
	MaxSwapSize = 16
)

// SwapSizeLevels returns the valid swap sizes, in increasing order.
func SwapSizeLevels() []int {
	var out []int
	for s := MinSwapSize; s <= MaxSwapSize; s += 2 {
		out = append(out, s)
	}
	return out
}

// NumConfigurations is the size of Dike's configuration space (Fig 4).
const NumConfigurations = 32

// Config parameterises a Dike instance.
type Config struct {
	// QuantaLength is the time between scheduling decisions. Default
	// 500 ms (the paper's non-adaptive default ⟨8, 500⟩).
	QuantaLength sim.Time
	// SwapSize is the number of threads to swap per quantum (even).
	// Default 8.
	SwapSize int
	// FairnessThreshold is θf: if the coefficient of variation of the
	// threads' memory access rates is below it, the system is fair and
	// the quantum takes no action. Default 0.1.
	FairnessThreshold float64
	// MissRatioThreshold classifies a thread as memory intensive when
	// its LLC miss ratio exceeds it. Default 0.10 (Xie & Loh boundary).
	MissRatioThreshold float64
	// CoreBWAlpha is the EWMA weight for the CoreBW moving means.
	// Default 0.25.
	CoreBWAlpha float64
	// SwapOH is the scheduler's estimate of per-swap thread overhead
	// (ms), used by the Overhead term of Eqn 2. Default 3.
	SwapOH float64
	// Goal selects non-adaptive, fairness-adaptive or
	// performance-adaptive operation.
	Goal AdaptationGoal
	// AdaptEvery is how many quanta pass between Optimizer invocations
	// in adaptive modes. Default 4 — each invocation moves parameters by
	// at most one unit, so adaptation is gradual, as in Algorithm 2.
	AdaptEvery int
	// PlacementSeed seeds the shared initial spread placement.
	PlacementSeed uint64

	// Ablation switches (normally all false). They disable individual
	// design elements so the benchmark suite can measure each one's
	// contribution: the Decider's profit gate (Eqns 1–3), its swap
	// cool-down, and the Selector's intra-process equalization pairs.
	DisableProfitGate   bool
	DisableCooldown     bool
	DisableEqualization bool
	// UseIPCMetric replaces the memory access rate with retired
	// instructions per ms as the Observer's contention metric. The paper
	// argues against IPC ("IPC fails to represent actual progress in
	// heterogeneous systems where different cores could have different
	// clock speeds", §III-A); this switch exists to measure that claim.
	UseIPCMetric bool
}

// DefaultConfig returns the paper's default Dike configuration.
func DefaultConfig() Config {
	return Config{
		QuantaLength:       500,
		SwapSize:           8,
		FairnessThreshold:  0.1,
		MissRatioThreshold: 0.10,
		CoreBWAlpha:        0.25,
		SwapOH:             3,
		Goal:               AdaptNone,
		AdaptEvery:         4,
	}
}

// Validate reports the first problem with the configuration, or nil.
func (c Config) Validate() error {
	if !validQuanta(c.QuantaLength) {
		return fmt.Errorf("core: quantaLength %d not in %v", c.QuantaLength, QuantaLevels)
	}
	if c.SwapSize < MinSwapSize || c.SwapSize > MaxSwapSize || c.SwapSize%2 != 0 {
		return fmt.Errorf("core: swapSize %d not an even number in [%d,%d]", c.SwapSize, MinSwapSize, MaxSwapSize)
	}
	// Each case negates the valid range, so NaN fails it too, and every
	// unbounded range stops at the largest finite float.
	const maxF = math.MaxFloat64
	switch {
	case !(c.FairnessThreshold > 0 && c.FairnessThreshold <= maxF):
		return errors.New("core: fairness threshold must be finite and positive")
	case !(c.MissRatioThreshold > 0 && c.MissRatioThreshold < 1):
		return errors.New("core: miss-ratio threshold must be in (0,1)")
	case !(c.CoreBWAlpha > 0 && c.CoreBWAlpha <= 1):
		return errors.New("core: CoreBWAlpha must be in (0,1]")
	case !(c.SwapOH >= 0 && c.SwapOH <= maxF):
		return errors.New("core: SwapOH must be finite and >= 0")
	case c.AdaptEvery < 1:
		return errors.New("core: AdaptEvery must be >= 1")
	}
	switch c.Goal {
	case AdaptNone, AdaptFairness, AdaptPerformance, AdaptEnergy:
	default:
		return fmt.Errorf("core: unknown adaptation goal %d", c.Goal)
	}
	return nil
}

func validQuanta(q sim.Time) bool {
	for _, l := range QuantaLevels {
		if q == l {
			return true
		}
	}
	return false
}

// quantaIndex returns q's index in QuantaLevels and whether q is one of
// the valid levels.
func quantaIndex(q sim.Time) (int, bool) {
	for i, l := range QuantaLevels {
		if q == l {
			return i, true
		}
	}
	return 0, false
}

// nearestQuantaIndex returns the index of the valid level closest to q,
// preferring the shorter level on ties. It lets the Optimizer self-heal
// from an out-of-set quantum length instead of panicking.
func nearestQuantaIndex(q sim.Time) int {
	best, bestDist := 0, sim.Time(-1)
	for i, l := range QuantaLevels {
		d := q - l
		if d < 0 {
			d = -d
		}
		if bestDist < 0 || d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}
