package harness

import (
	"io"

	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/sim"
	"dike/internal/stats"
	"dike/internal/trace"
	"dike/internal/workload"
)

// RunTrace is the optional per-run time-series capture: system-level
// observables sampled at a fixed period, exportable as CSV for plotting.
type RunTrace struct {
	// Utilization is the memory controller utilisation (0..MaxUtil).
	Utilization *trace.Series
	// Alive is the number of unfinished, arrived threads.
	Alive *trace.Series
	// Swaps is the cumulative swap count.
	Swaps *trace.Series
	// Dispersion is the mean over main benchmarks of the coefficient of
	// variation of their threads' progress fractions — a live proxy for
	// the final Eqn 4 fairness (lower = fairer). Nil for open-loop
	// traffic runs, which have no fixed benchmark set to disperse over.
	Dispersion *trace.Series
	// Faults is the cumulative count of injected faults; nil when the run
	// has no fault injector attached.
	Faults *trace.Series
	// Watts is the machine's total power draw over the last tick and
	// EnergyJ the cumulative joules, both from the power model.
	Watts   *trace.Series
	EnergyJ *trace.Series

	inj *fault.Injector
}

// newRunTrace allocates the series set. inj may be nil (no fault
// series); withDispersion is false for traffic runs (no dispersion
// series).
func newRunTrace(inj *fault.Injector, withDispersion bool) *RunTrace {
	rt := &RunTrace{
		Utilization: trace.NewSeries("mem_util"),
		Alive:       trace.NewSeries("alive_threads"),
		Swaps:       trace.NewSeries("cumulative_swaps"),
		Watts:       trace.NewSeries("power_watts"),
		EnergyJ:     trace.NewSeries("energy_joules"),
		inj:         inj,
	}
	if withDispersion {
		rt.Dispersion = trace.NewSeries("progress_dispersion")
	}
	if inj != nil {
		rt.Faults = trace.NewSeries("cumulative_faults")
	}
	return rt
}

// sample records one point at time now.
func (rt *RunTrace) sample(now sim.Time, m *machine.Machine, inst *workload.Instance) {
	t := float64(now.Millis())
	rt.Utilization.Add(t, m.Utilization())
	rt.Alive.Add(t, float64(m.AliveCount()))
	rt.Swaps.Add(t, float64(m.SwapCount()))
	rt.Watts.Add(t, m.PowerWatts())
	rt.EnergyJ.Add(t, m.EnergyJoules())
	if rt.Faults != nil {
		rt.Faults.Add(t, float64(rt.inj.Stats().Total()))
	}
	if rt.Dispersion == nil {
		return
	}

	cvSum, n := 0.0, 0
	for bi, b := range inst.Workload.Benchmarks {
		if b.Extra {
			continue
		}
		var fracs []float64
		for _, id := range inst.ThreadsOf(bi) {
			fracs = append(fracs, m.Progress(id))
		}
		cvSum += stats.CV(fracs)
		n++
	}
	if n > 0 {
		rt.Dispersion.Add(t, cvSum/float64(n))
	}
}

// WriteCSV exports all trace series in wide form.
func (rt *RunTrace) WriteCSV(w io.Writer) error {
	series := []*trace.Series{rt.Utilization, rt.Alive, rt.Swaps, rt.Watts, rt.EnergyJ}
	if rt.Dispersion != nil {
		series = append(series, rt.Dispersion)
	}
	if rt.Faults != nil {
		series = append(series, rt.Faults)
	}
	return trace.WriteWideCSV(w, series...)
}

// attachTrace hooks a RunTrace onto the engine at the given sample
// period. inj may be nil (no fault series); inst may be nil for
// open-loop traffic runs (no dispersion series).
func attachTrace(engine *sim.Engine, m *machine.Machine, inst *workload.Instance, every sim.Time, inj *fault.Injector) *RunTrace {
	rt := newRunTrace(inj, inst != nil)
	var last sim.Time = -every
	engine.OnTick(func(now sim.Time) {
		if now-last >= every {
			rt.sample(now, m, inst)
			last = now
		}
	})
	return rt
}
