package harness

import (
	"context"
	"fmt"

	"dike/internal/machine"
	"dike/internal/workload"
)

func init() {
	register(Experiment{ID: "fig1", Title: "Fig 1: standalone vs concurrent slowdown", Run: runFig1})
}

// homogeneousConfig is the all-fast machine used for Fig 1's homogeneous
// bars: the same logical core count, every core at the fast speed, on
// one socket. The slow type stays in the spec's type table, unused, so
// the machine still declares the fast/slow pair.
func homogeneousConfig() machine.Config {
	cfg := machine.DefaultConfig()
	spec := cfg.Spec
	spec.Sockets[0].Cores[0].Physical += spec.Sockets[1].Cores[0].Physical
	spec.Sockets = spec.Sockets[:1]
	return cfg
}

// standaloneTime runs one application alone on the machine and returns
// its benchmark completion time (ms).
func standaloneTime(app string, mcfg machine.Config, opts Options) (float64, error) {
	prof, err := workload.LookupProfile(app)
	if err != nil {
		return 0, err
	}
	w := &workload.Workload{
		Name:       "standalone-" + app,
		Benchmarks: []workload.Benchmark{{Profile: prof, Threads: workload.ThreadsPerBenchmark}},
	}
	out, err := Run(context.Background(), RunSpec{
		Workload: w, Policy: PolicyNull, Seed: opts.Seed, Scale: opts.Scale,
		MachineConfig: &mcfg,
	})
	if err != nil {
		return 0, err
	}
	return out.Result.Benches[0].Time, nil
}

// runFig1 reproduces Fig 1: per-application slowdown of concurrent
// execution relative to standalone, on the homogeneous and on the
// heterogeneous machine, for the two workloads the paper discusses (wl2
// and wl15) under the default Linux-like scheduler.
func runFig1(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	t := &Table{
		Title:  "Per-application slowdown under concurrent execution (CFS)",
		Header: []string{"workload", "app", "class", "standalone", "homo slowdown", "hetero slowdown"},
	}
	hetero := machine.DefaultConfig()
	homo := homogeneousConfig()
	for _, wlN := range []int{2, 15} {
		w := workload.MustTable2(wlN)
		// Concurrent runs, one per machine flavour.
		var concurrent [2]*RunOutput
		for i, mcfg := range []machine.Config{homo, hetero} {
			cfg := mcfg
			out, err := Run(context.Background(), RunSpec{Workload: w, Policy: PolicyCFS, Seed: opts.Seed, Scale: opts.Scale, MachineConfig: &cfg})
			if err != nil {
				return nil, err
			}
			concurrent[i] = out
		}
		for bi, b := range w.Benchmarks {
			if b.Extra {
				continue
			}
			app := b.Profile.Name
			// Standalone baselines, one per machine flavour.
			soloHomo, err := standaloneTime(app, homo, opts)
			if err != nil {
				return nil, err
			}
			soloHet, err := standaloneTime(app, hetero, opts)
			if err != nil {
				return nil, err
			}
			homoSlow := concurrent[0].Result.Benches[bi].Time / soloHomo
			hetSlow := concurrent[1].Result.Benches[bi].Time / soloHet
			t.AddRow(w.Name, app, b.Profile.Class.String(), msec(soloHomo),
				fmt.Sprintf("%.2fx", homoSlow), fmt.Sprintf("%.2fx", hetSlow))
		}
	}
	return &Report{
		ID: "fig1", Title: "Performance variation of standalone vs concurrent execution (Fig 1)",
		Tables: []*Table{t},
		Notes: []string{
			"paper reference points: wl2 jacobi ~2.3x vs srad ~1.25x (homogeneous); wl15 stream_omp 3.4x homo -> 4.6x hetero",
			fmt.Sprintf("seed %d, scale %.2f", opts.Seed, opts.Scale),
		},
	}, nil
}
