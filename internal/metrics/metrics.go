// Package metrics computes the paper's evaluation metrics from finished
// simulation runs: the Fairness metric of Eqn 4 (one minus the mean
// coefficient of variation of per-benchmark thread runtimes),
// performance (benchmark completion times and speedups), swap counts and
// prediction-error aggregates.
package metrics

import (
	"errors"
	"fmt"

	"dike/internal/machine"
	"dike/internal/stats"
	"dike/internal/workload"
)

// BenchResult is the outcome for one benchmark of a workload.
type BenchResult struct {
	// Name is the application name.
	Name string
	// Extra mirrors the workload's Extra flag (the per-workload KMEANS);
	// Extra benchmarks are excluded from Fairness and AvgTime.
	Extra bool
	// ThreadTimes are the per-thread completion times in ms.
	ThreadTimes []float64
	// CV is the coefficient of variation of ThreadTimes (Eqn 4's cv_i).
	CV float64
	// Time is the benchmark completion time: the slowest thread.
	Time float64
	// MeanThreadTime is the mean thread completion time.
	MeanThreadTime float64
}

// RunResult is the outcome of one workload run under one policy.
type RunResult struct {
	// Policy and Workload name the run.
	Policy   string
	Workload string
	// Type is the workload's ground-truth B/UC/UM class.
	Type workload.Type
	// Benches holds per-benchmark results in workload order.
	Benches []BenchResult
	// Fairness is Eqn 4 over the main (non-Extra) benchmarks.
	Fairness float64
	// AvgTime is the mean completion time of the main benchmarks, ms.
	AvgTime float64
	// Makespan is when the last thread (including Extra benchmarks)
	// finished, ms — the workload completion time behind Fig 6b's
	// speedups.
	Makespan float64
	// Swaps and Migrations count scheduling actions over the run.
	Swaps      int
	Migrations int
}

// Collect derives a RunResult from a finished machine. It fails if any
// thread has not completed.
func Collect(m *machine.Machine, inst *workload.Instance, policy string) (*RunResult, error) {
	w := inst.Workload
	res := &RunResult{
		Policy:     policy,
		Workload:   w.Name,
		Type:       w.Type(),
		Swaps:      m.SwapCount(),
		Migrations: m.MigrationCount(),
	}
	var cvSum float64
	var timeSum float64
	mains := 0
	for bi, b := range w.Benchmarks {
		br := BenchResult{Name: b.Profile.Name, Extra: b.Extra}
		for _, tid := range inst.ThreadsOf(bi) {
			ft, done := m.Finished(tid)
			if !done {
				return nil, fmt.Errorf("metrics: thread %d of %s did not finish", tid, b.Profile.Name)
			}
			st, err := m.StartOf(tid)
			if err != nil {
				return nil, err
			}
			// Runtime is measured from the thread's arrival, so late
			// joiners in dynamic workloads are not charged their wait.
			t := float64((ft - st).Millis())
			br.ThreadTimes = append(br.ThreadTimes, t)
			if t > br.Time {
				br.Time = t
			}
			if end := float64(ft.Millis()); end > res.Makespan {
				res.Makespan = end
			}
		}
		br.CV = stats.CV(br.ThreadTimes)
		br.MeanThreadTime = stats.Mean(br.ThreadTimes)
		res.Benches = append(res.Benches, br)
		if !b.Extra {
			cvSum += br.CV
			timeSum += br.Time
			mains++
		}
	}
	if mains == 0 {
		return nil, errors.New("metrics: workload has no main benchmarks")
	}
	res.Fairness = 1 - cvSum/float64(mains)
	res.AvgTime = timeSum / float64(mains)
	return res, nil
}

// FairnessImprovement returns the relative fairness improvement of res
// over base as a fraction (0.38 = 38%), the quantity plotted in Fig 6a.
func FairnessImprovement(res, base *RunResult) float64 {
	if base.Fairness <= 0 {
		return 0
	}
	return res.Fairness/base.Fairness - 1
}

// Speedup returns res's workload speedup relative to base (>1 = faster),
// the quantity plotted in Fig 6b: the ratio of workload completion
// times. Fairness and performance meet in this metric — "benchmark
// runtime is not delayed by the slowest thread and consequently
// performance improves" (§IV-A).
func Speedup(res, base *RunResult) float64 {
	if res.Makespan <= 0 {
		return 0
	}
	return base.Makespan / res.Makespan
}

// GeoMeanImprovement aggregates per-workload improvement fractions with
// the geometric mean of the underlying ratios, as the paper's headline
// numbers do. Input and output are fractions (0.38 = 38%).
func GeoMeanImprovement(fracs []float64) float64 {
	if len(fracs) == 0 {
		return 0
	}
	ratios := make([]float64, len(fracs))
	for i, f := range fracs {
		ratios[i] = 1 + f
	}
	return stats.GeoMean(ratios) - 1
}

// MeanImprovement is the arithmetic mean of improvement fractions.
func MeanImprovement(fracs []float64) float64 { return stats.Mean(fracs) }
