package harness

import (
	"context"

	"dike/internal/sim"
	"dike/internal/workload"
)

// ConfigResult is the outcome of one scheduler configuration in a
// 32-point sweep (Figs 2, 4 and 5).
type ConfigResult struct {
	SwapSize int
	Quanta   sim.Time
	// Fairness is Eqn 4; Perf is inverse workload completion time
	// (higher = better), the quantity the heatmaps normalise.
	Fairness float64
	Perf     float64
	Swaps    int
	// EnergyJ and EDP carry the run's power-model outcome: total joules
	// and the energy-delay product (J·s). Sweeps predate the power
	// model, so both are informational there; the energy experiment is
	// their primary consumer.
	EnergyJ float64
	EDP     float64
}

// Fill copies a finished run's sweep-relevant outcome into the grid
// skeleton: Fairness is Eqn 4 verbatim, Perf the inverse makespan.
// Every sweep shares this one definition of how a RunOutput becomes a
// grid point; the serve layer's per-point executor mirrors it through
// the JSON round-trip (exact for float64), which is what keeps served,
// sharded and resumed sweeps byte-identical to Sweep.
func (c *ConfigResult) Fill(out *RunOutput) {
	c.Fairness = out.Result.Fairness
	c.Perf = 1 / out.Result.Makespan
	c.Swaps = out.Result.Swaps
	c.EnergyJ = out.EnergyJ
	c.EDP = out.EDP
}

// Sweep runs the 32-configuration sweep on w with defaulted options; it
// is sweepConfigs' exported form for the dikesweep command and the
// public facade.
func Sweep(ctx context.Context, w *workload.Workload, opts Options) ([]ConfigResult, error) {
	return sweepConfigs(ctx, w, opts.withDefaults())
}

// sweepConfigs runs Dike (non-adaptive) on w under every ⟨swapSize,
// quantaLength⟩ configuration and returns the 32 results in a stable
// order (quanta-major, swap sizes ascending).
func sweepConfigs(ctx context.Context, w *workload.Workload, opts Options) ([]ConfigResult, error) {
	specs, meta := sweepGrid(w, opts)
	outs, err := RunAll(ctx, specs, opts.Workers)
	if err != nil {
		return nil, err
	}
	for i, out := range outs {
		meta[i].Fill(out)
	}
	return meta, nil
}

// bestWorst returns the indices of the best and worst configuration by
// the combined normalized score (fairness + performance), plus the best
// indices for each metric alone.
func bestWorst(rs []ConfigResult) (bestFair, bestPerf, bestCombined, worstCombined int) {
	maxF, maxP := 0.0, 0.0
	for _, r := range rs {
		if r.Fairness > maxF {
			maxF = r.Fairness
		}
		if r.Perf > maxP {
			maxP = r.Perf
		}
	}
	bestScore, worstScore := -1.0, 1e18
	for i, r := range rs {
		if r.Fairness > rs[bestFair].Fairness {
			bestFair = i
		}
		if r.Perf > rs[bestPerf].Perf {
			bestPerf = i
		}
		score := 0.0
		if maxF > 0 {
			score += r.Fairness / maxF
		}
		if maxP > 0 {
			score += r.Perf / maxP
		}
		if score > bestScore {
			bestScore, bestCombined = score, i
		}
		if score < worstScore {
			worstScore, worstCombined = score, i
		}
	}
	return
}

// defaultConfigIndex returns the sweep index of the paper's default
// ⟨swapSize 8, quantaLength 500⟩ configuration.
func defaultConfigIndex(rs []ConfigResult) int {
	for i, r := range rs {
		if r.SwapSize == 8 && r.Quanta == 500 {
			return i
		}
	}
	return 0
}
