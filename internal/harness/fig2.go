package harness

import (
	"context"
	"fmt"

	"dike/internal/workload"
)

func init() {
	register(Experiment{ID: "fig2", Title: "Fig 2: optimal vs default vs worst configuration", Run: runFig2})
}

// fig2Workloads are the three "selective workloads" (one per class).
var fig2Workloads = []int{2, 7, 13}

// runFig2 reproduces Fig 2: for a workload of each class, how much
// fairness and performance the optimal scheduler configuration gains over
// the default ⟨8,500⟩ and how much the worst loses.
func runFig2(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	t := &Table{
		Title:  "Fairness/performance of configurations, normalized to the optimal",
		Header: []string{"workload", "type", "config", "<swap,quanta>", "norm fairness", "norm perf"},
	}
	for _, wlN := range fig2Workloads {
		w := workload.MustTable2(wlN)
		rs, err := sweepConfigs(context.Background(), w, opts)
		if err != nil {
			return nil, err
		}
		_, _, best, worst := bestWorst(rs)
		def := defaultConfigIndex(rs)
		// Normalise against the best value of each metric across configs.
		maxF, maxP := maxima(rs[best], rs)
		for _, c := range []struct {
			label string
			idx   int
		}{{"optimal", best}, {"default", def}, {"worst", worst}} {
			r := rs[c.idx]
			t.AddRow(w.Name, w.Type().String(), c.label,
				fmt.Sprintf("<%d,%d>", r.SwapSize, r.Quanta.Millis()),
				fmt.Sprintf("%.3f", r.Fairness/maxF),
				fmt.Sprintf("%.3f", r.Perf/maxP))
		}
	}
	return &Report{
		ID: "fig2", Title: "Optimal/default/worst scheduler configurations (Fig 2)",
		Tables: []*Table{t},
		Notes: []string{
			"paper's claim: poor configurations lose notable fairness and performance; the optimum varies per workload",
			fmt.Sprintf("32-configuration sweep per workload; seed %d, scale %.2f", opts.Seed, opts.SweepScale),
		},
	}, nil
}
