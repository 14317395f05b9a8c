package harness

import (
	"bufio"
	"io"
	"strconv"

	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/sim"
	"dike/internal/stats"
	"dike/internal/workload"
)

// RunTrace is the optional per-run time-series capture: system-level
// observables sampled together at a fixed period, one row per sample,
// exportable as CSV for plotting.
type RunTrace struct {
	// Columns names the values of each row, in CSV order:
	//   - mem_util: the memory controller utilisation (0..MaxUtil);
	//   - alive_threads: the number of unfinished, arrived threads;
	//   - cumulative_swaps: the cumulative swap count;
	//   - power_watts: the machine's total power draw over the last tick;
	//   - energy_joules: the cumulative joules of the power model;
	//   - progress_dispersion: the mean over main benchmarks of the
	//     coefficient of variation of their threads' progress fractions,
	//     a live proxy for the final Eqn 4 fairness (lower = fairer).
	//     Absent on open-loop traffic runs, which have no fixed benchmark
	//     set to disperse over;
	//   - cumulative_faults: the cumulative count of injected faults.
	//     Present only when the run has a fault injector.
	Columns []string
	// Times holds each sample's time in ms; Rows[i] holds the values
	// sampled at Times[i], one per column.
	Times []float64
	Rows  [][]float64
}

// progressDispersion is the value of the progress_dispersion column.
func progressDispersion(m *machine.Machine, inst *workload.Instance) float64 {
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
	return cvSum / float64(n) // a run always has a main benchmark
}

// WriteCSV exports the trace: a time_ms column with three decimals, then
// one column per entry of Columns in %.8g form.
func (rt *RunTrace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("time_ms")
	for _, c := range rt.Columns {
		bw.WriteString("," + c)
	}
	bw.WriteByte('\n')
	var buf []byte
	for i, row := range rt.Rows {
		buf = strconv.AppendFloat(buf[:0], rt.Times[i], 'f', 3, 64)
		for _, v := range row {
			buf = strconv.AppendFloat(append(buf, ','), v, 'g', 8, 64)
		}
		buf = append(buf, '\n')
		bw.Write(buf)
	}
	return bw.Flush()
}

// attachTrace hooks a RunTrace onto the engine at the given sample
// period. inj may be nil (no fault column); inst may be nil for
// open-loop traffic runs (no dispersion column).
func attachTrace(engine *sim.Engine, m *machine.Machine, inst *workload.Instance, every sim.Time, inj *fault.Injector) *RunTrace {
	rt := &RunTrace{
		Columns: []string{"mem_util", "alive_threads", "cumulative_swaps", "power_watts", "energy_joules"},
	}
	if inst != nil {
		rt.Columns = append(rt.Columns, "progress_dispersion")
	}
	if inj != nil {
		rt.Columns = append(rt.Columns, "cumulative_faults")
	}
	var last sim.Time = -every
	engine.OnTick(func(now sim.Time) {
		if now-last < every {
			return
		}
		last = now
		row := make([]float64, 0, len(rt.Columns))
		row = append(row, m.Utilization(), float64(m.AliveCount()), float64(m.SwapCount()), m.PowerWatts(), m.EnergyJoules())
		if inst != nil {
			row = append(row, progressDispersion(m, inst))
		}
		if inj != nil {
			row = append(row, float64(inj.Stats().Total()))
		}
		rt.Times = append(rt.Times, float64(now.Millis()))
		rt.Rows = append(rt.Rows, row)
	})
	return rt
}
