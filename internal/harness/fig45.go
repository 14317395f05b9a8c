package harness

import (
	"context"
	"fmt"

	"dike/internal/core"
	"dike/internal/workload"
)

func init() {
	register(Experiment{ID: "fig4", Title: "Fig 4: configuration heatmaps for two workloads", Run: runFig4})
	register(Experiment{ID: "fig5", Title: "Fig 5: configuration contours per workload type", Run: runFig5})
}

// gridTable renders a 32-configuration result grid as a heat table:
// rows are quanta lengths, columns swap sizes, values normalized to the
// best cell.
func gridTable(title string, rs []ConfigResult, metric func(ConfigResult) float64) *Table {
	max := 0.0
	for _, r := range rs {
		if v := metric(r); v > max {
			max = v
		}
	}
	header := []string{"quanta\\swap"}
	for _, ss := range core.SwapSizeLevels() {
		header = append(header, fmt.Sprintf("%d", ss))
	}
	t := &Table{Title: title, Header: header}
	i := 0
	for _, q := range core.QuantaLevels {
		row := []interface{}{fmt.Sprintf("%dms", q.Millis())}
		for range core.SwapSizeLevels() {
			v := 0.0
			if max > 0 {
				v = metric(rs[i]) / max
			}
			row = append(row, fmt.Sprintf("%.3f", v))
			i++
		}
		t.AddRow(row...)
	}
	return t
}

// fig4Workloads are the two workloads whose full heatmaps the paper shows.
var fig4Workloads = []int{3, 13}

// runFig4 reproduces Fig 4: the full normalized fairness and performance
// heatmaps over the 32 configurations for two selected workloads.
func runFig4(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	rep := &Report{ID: "fig4", Title: "Normalized fairness/performance of every configuration (Fig 4)"}
	for _, wlN := range fig4Workloads {
		w := workload.MustTable2(wlN)
		rs, err := sweepConfigs(context.Background(), w, opts)
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables,
			gridTable(fmt.Sprintf("%s (%s) — fairness", w.Name, w.Type()), rs, func(r ConfigResult) float64 { return r.Fairness }),
			gridTable(fmt.Sprintf("%s (%s) — performance", w.Name, w.Type()), rs, func(r ConfigResult) float64 { return r.Perf }),
		)
	}
	rep.Notes = append(rep.Notes,
		"brighter (closer to 1.000) = better; the best cell differs between fairness and performance and between workloads",
		fmt.Sprintf("seed %d, scale %.2f", opts.Seed, opts.SweepScale),
	)
	return rep, nil
}

// runFig5 reproduces Fig 5: per-workload-type (B/UC/UM) contours of
// normalized fairness and performance, aggregated over all workloads of
// the type. This is the data the paper derives Algorithm 2's rules from.
func runFig5(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	wls := workload.AllTable2()
	if opts.Quick {
		// One workload per type keeps the smoke run tractable.
		wls = []*workload.Workload{workload.MustTable2(1), workload.MustTable2(7), workload.MustTable2(13)}
	}
	// Accumulate per-type mean of per-workload-normalized metrics.
	type acc struct {
		fair, perf []float64
		n          int
	}
	accs := map[workload.Type]*acc{}
	nCfg := core.NumConfigurations
	for _, w := range wls {
		rs, err := sweepConfigs(context.Background(), w, opts)
		if err != nil {
			return nil, err
		}
		a := accs[w.Type()]
		if a == nil {
			a = &acc{fair: make([]float64, nCfg), perf: make([]float64, nCfg)}
			accs[w.Type()] = a
		}
		maxF, maxP := maxima(ConfigResult{}, rs)
		for i, r := range rs {
			if maxF > 0 {
				a.fair[i] += r.Fairness / maxF
			}
			if maxP > 0 {
				a.perf[i] += r.Perf / maxP
			}
		}
		a.n++
	}
	rep := &Report{ID: "fig5", Title: "Optimization space per workload type (Fig 5)"}
	for _, wt := range []workload.Type{workload.Balanced, workload.UnbalancedCompute, workload.UnbalancedMemory} {
		a := accs[wt]
		if a == nil {
			continue
		}
		mean := func(xs []float64) []ConfigResult {
			out := make([]ConfigResult, nCfg)
			i := 0
			for _, q := range core.QuantaLevels {
				for _, ss := range core.SwapSizeLevels() {
					out[i] = ConfigResult{SwapSize: ss, Quanta: q, Fairness: xs[i] / float64(a.n), Perf: xs[i] / float64(a.n)}
					i++
				}
			}
			return out
		}
		rep.Tables = append(rep.Tables,
			gridTable(fmt.Sprintf("fairness — %s (mean over %d workloads)", wt, a.n), mean(a.fair),
				func(r ConfigResult) float64 { return r.Fairness }),
			gridTable(fmt.Sprintf("performance — %s (mean over %d workloads)", wt, a.n), mean(a.perf),
				func(r ConfigResult) float64 { return r.Perf }),
		)
	}
	rep.Notes = append(rep.Notes,
		"these contours are the empirical basis of Algorithm 2's per-type adaptation rules",
		fmt.Sprintf("seed %d, scale %.2f", opts.Seed, opts.SweepScale),
	)
	return rep, nil
}
