package harness

import (
	"fmt"
	"strings"

	"dike/internal/machine"
	"dike/internal/workload"
)

func init() {
	register(Experiment{ID: "tab1", Title: "Table I: system configuration", Run: runTab1})
	register(Experiment{ID: "tab2", Title: "Table II: experimental workloads", Run: runTab2})
}

// runTab1 renders the simulated platform, the analogue of the paper's
// Table I.
func runTab1(opts Options) (*Report, error) {
	cfg := machine.DefaultConfig()
	t := &Table{Title: "Simulated platform", Header: []string{"component", "details"}}
	spec := cfg.Spec
	physical := make([]int, len(spec.CoreTypes))
	for _, sock := range spec.Sockets {
		for _, g := range sock.Cores {
			physical[spec.TypeIndex(g.Type)] += g.Physical
		}
	}
	var pools []string
	for i, ct := range spec.CoreTypes {
		pools = append(pools, fmt.Sprintf("%d %s (speed %.2f)", physical[i], ct.Name, ct.Speed))
	}
	t.AddRow("cores", fmt.Sprintf("%s physical, %d-way SMT = %d logical",
		strings.Join(pools, " + "), spec.CoreTypes[0].SMTWays, spec.TotalLogical()))
	mem := spec.SharedMem
	t.AddRow("memory controller", fmt.Sprintf("capacity %.0f misses/ms, base latency %.3f ms, max util %.2f",
		mem.Capacity, mem.BaseLatency, mem.MaxUtil))
	t.AddRow("LLC", fmt.Sprintf("hit latency %.4f ms, MLP overlap %.2f", cfg.LLCHitLatency, cfg.Overlap))
	t.AddRow("SMT", fmt.Sprintf("per-lane throughput %.2f when sibling busy", cfg.SMTPenalty))
	t.AddRow("migration", fmt.Sprintf("stall %d ms; cross-socket cold x%.1f (t1/2 %.0f ms), NUMA latency x%.1f; local cold x%.1f (t1/2 %.0f ms)",
		cfg.MigrationStall.Millis(), cfg.ColdMissFactor, cfg.ColdHalfLife, cfg.RemoteLatencyFactor,
		cfg.LocalColdFactor, cfg.LocalColdHalfLife))
	return &Report{
		ID: "tab1", Title: "System configuration (Table I analogue)",
		Tables: []*Table{t},
		Notes: []string{
			"paper platform: 2x Intel Xeon-E5, 10 cores @2.33GHz + 10 @1.21GHz, HT on, 25MB LLC, 32GB RAM, one memory controller",
		},
	}, nil
}

// runTab2 renders the sixteen workloads with their classes.
func runTab2(opts Options) (*Report, error) {
	t := &Table{Title: "Workloads (8 threads per app; every workload adds kmeans x8)",
		Header: []string{"workload", "type", "app1", "app2", "app3", "app4"}}
	profiles := workload.Profiles()
	mark := func(app string) string {
		if profiles[app].Class == workload.MemoryIntensive {
			return app + "*"
		}
		return app
	}
	for n := 1; n <= workload.NumWorkloads; n++ {
		w := workload.MustTable2(n)
		apps, err := workload.Table2Apps(n)
		if err != nil {
			return nil, err
		}
		t.AddRow(w.Name, w.Type().String(), mark(apps[0]), mark(apps[1]), mark(apps[2]), mark(apps[3]))
	}
	return &Report{
		ID: "tab2", Title: "Experimental workloads (Table II)",
		Tables: []*Table{t},
		Notes: []string{
			"* marks memory-intensive applications (bold in the paper)",
			"WL2/WL5 each have one illegible cell in the source text; hotspot/heartwall substituted (see DESIGN.md)",
		},
	}, nil
}
