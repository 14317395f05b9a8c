package harness

import (
	"context"
	"fmt"

	"dike/internal/machine"
	"dike/internal/metrics"
	"dike/internal/sim"
	"dike/internal/workload"
)

func init() {
	register(Experiment{ID: "extra-scale", Title: "Extension: scale-out to a 160-CPU machine", Run: runExtraScale})
}

// scaleOutConfig quadruples the Table I machine: 40 fast + 40 slow
// physical cores (160 logical CPUs) behind a proportionally larger
// memory system — the "large scale heterogeneity anticipated for future
// high-end computing systems" the paper cites.
func scaleOutConfig() machine.Config {
	cfg := machine.DefaultConfig()
	for i := range cfg.Spec.Sockets {
		cfg.Spec.Sockets[i].Cores[0].Physical *= 4
	}
	cfg.Spec.SharedMem.Capacity *= 4
	return cfg
}

// scaleOutWorkload builds a 16-application workload (160 threads) from
// the catalogue: eight memory-intensive and eight compute-intensive
// instances drawn deterministically.
func scaleOutWorkload(seed uint64) (*workload.Workload, error) {
	return workload.Generate(workload.GeneratorSpec{
		Name:          "scaleout",
		Benchmarks:    16,
		ThreadsPer:    workload.ThreadsPerBenchmark,
		MemoryApps:    8,
		IncludeKmeans: true,
		AllowRepeats:  true,
	}, sim.NewRNG(seed))
}

// runExtraScale compares CFS, DIO and the Dike variants on the
// quadruple-size machine, checking that the scheduler's behaviour
// carries over: Dike still improves fairness and performance with far
// fewer migrations than DIO.
func runExtraScale(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	mcfg := scaleOutConfig()
	w, err := scaleOutWorkload(opts.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("%d threads on %d logical CPUs", w.TotalThreads(), mcfg.Spec.TotalLogical()),
		Header: []string{"policy", "fairness", "vs cfs", "speedup", "swaps"},
	}
	var base *metrics.RunResult
	for _, pol := range []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF, PolicyDikeAP} {
		cfg := mcfg
		out, err := Run(context.Background(), RunSpec{Workload: w, Policy: pol, Seed: opts.Seed, Scale: opts.Scale, MachineConfig: &cfg})
		if err != nil {
			return nil, err
		}
		r := out.Result
		if pol == PolicyCFS {
			base = r
		}
		t.AddRow(pol,
			fmt.Sprintf("%.4f", r.Fairness),
			pct(metrics.FairnessImprovement(r, base)),
			pct(metrics.Speedup(r, base)-1),
			fmt.Sprintf("%d", r.Swaps))
	}
	return &Report{
		ID: "extra-scale", Title: "Scale-out study (extension)",
		Tables: []*Table{t},
		Notes: []string{
			"machine: 4x the Table I platform; workload: 16 applications drawn 8M/8C with repeats, plus kmeans",
			fmt.Sprintf("seed %d, scale %.2f", opts.Seed, opts.Scale),
		},
	}, nil
}
