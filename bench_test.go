// Benchmarks regenerating the paper's tables and figures, plus ablation
// benches for the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Each bench executes complete simulations at a reduced workload scale
// (the tables/figures themselves are produced at larger scale by
// cmd/dikebench); custom metrics report the experiment's headline
// quantities so regressions in *results*, not just runtime, show up.
package dike

import (
	"context"
	"io"
	"os"
	"testing"

	"dike/internal/core"
	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/metrics"
	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// benchOpts are the reduced-scale options the figure benches run with.
func benchOpts() harness.Options {
	return harness.Options{Seed: 42, Scale: 0.12, SweepScale: 0.06, Workers: 4, Quick: false}
}

// runExperiment executes a harness experiment b.N times, discarding the
// rendered output.
func runExperiment(b *testing.B, id string) {
	e, err := harness.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the system-configuration table.
func BenchmarkTable1(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkTable2 regenerates the workload-definition table.
func BenchmarkTable2(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkFig1 regenerates the standalone-vs-concurrent slowdowns.
func BenchmarkFig1(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2 regenerates the optimal/default/worst configuration
// comparison (3 workloads x 32 configurations).
func BenchmarkFig2(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig4 regenerates the two full configuration heatmaps.
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates the per-type configuration contours. This is
// the heaviest experiment (16 workloads x 32 configurations at full
// fidelity); the bench runs its Quick variant (one workload per type).
func BenchmarkFig5(b *testing.B) {
	e, err := harness.Lookup("fig5")
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	opts.Quick = true // one workload per type
	opts.SweepScale = 0.2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6a regenerates the fairness-improvement comparison (the
// full 16-workload, 5-policy run set).
func BenchmarkFig6a(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig6b regenerates the speedup comparison (same runs as 6a;
// kept separate so each figure has its own regeneration target).
func BenchmarkFig6b(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable3 regenerates the swap-count table (same run set).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7 regenerates the per-workload prediction-error summary.
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the prediction-error time series.
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// --- Ablations -----------------------------------------------------------
//
// Each ablation runs WL6 (balanced) and WL13 (unbalanced-memory) under a
// Dike variant with one design element removed and reports fairness and
// swap count as custom metrics, next to the intact scheduler.

// ablationRun executes one workload under a Dike configuration.
func ablationRun(b *testing.B, wlN int, cfg core.Config) *metrics.RunResult {
	b.Helper()
	out, err := harness.Run(context.Background(), harness.RunSpec{
		Workload: workload.MustTable2(wlN), Policy: harness.PolicyDike,
		DikeConfig: &cfg, Seed: 42, Scale: 0.12,
	})
	if err != nil {
		b.Fatal(err)
	}
	return out.Result
}

// ablate reports fairness and swaps for intact vs ablated configs.
func ablate(b *testing.B, mutate func(*core.Config)) {
	wls := []int{6, 13}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var fIntact, fAblated float64
		var sIntact, sAblated int
		for _, wlN := range wls {
			intact := ablationRun(b, wlN, core.DefaultConfig())
			cfg := core.DefaultConfig()
			mutate(&cfg)
			ablated := ablationRun(b, wlN, cfg)
			fIntact += intact.Fairness
			fAblated += ablated.Fairness
			sIntact += intact.Swaps
			sAblated += ablated.Swaps
		}
		b.ReportMetric(fIntact/float64(len(wls)), "fairness/intact")
		b.ReportMetric(fAblated/float64(len(wls)), "fairness/ablated")
		b.ReportMetric(float64(sIntact)/float64(len(wls)), "swaps/intact")
		b.ReportMetric(float64(sAblated)/float64(len(wls)), "swaps/ablated")
	}
}

// BenchmarkAblationProfitGate removes the Decider's positive-profit
// requirement (Eqn 3): every selected pair is swapped, DIO-style.
func BenchmarkAblationProfitGate(b *testing.B) {
	ablate(b, func(c *core.Config) { c.DisableProfitGate = true })
}

// BenchmarkAblationCooldown removes the no-consecutive-quanta rule.
func BenchmarkAblationCooldown(b *testing.B) {
	ablate(b, func(c *core.Config) { c.DisableCooldown = true })
}

// BenchmarkAblationEqualization removes the intra-process equalization
// pairs, leaving only the placement rule.
func BenchmarkAblationEqualization(b *testing.B) {
	ablate(b, func(c *core.Config) { c.DisableEqualization = true })
}

// BenchmarkAblationPrediction removes the entire prediction/decision
// layer (profit gate and cooldown together): the Selector's candidates
// are executed unconditionally.
func BenchmarkAblationPrediction(b *testing.B) {
	ablate(b, func(c *core.Config) {
		c.DisableProfitGate = true
		c.DisableCooldown = true
	})
}

// BenchmarkAblationTheta sweeps the fairness-gate threshold, reporting
// swap counts at a loose and a tight gate.
func BenchmarkAblationTheta(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, theta := range []float64{0.05, 0.1, 0.3} {
			cfg := core.DefaultConfig()
			cfg.FairnessThreshold = theta
			r := ablationRun(b, 6, cfg)
			b.ReportMetric(float64(r.Swaps), "swaps/theta")
			b.ReportMetric(r.Fairness, "fairness/theta")
		}
	}
}

// --- Micro-benches on the hot paths ---------------------------------------

// BenchmarkMachineStep measures one tick (Machine.Step) of an already
// placed machine; with -benchmem it reports ns/tick and allocs/tick.
//
//   - t1-40: the Table I machine running Table II's WL6, one thread per
//     lane.
//   - per-socket-1024: 8 sockets of 4 core types, 1024 lanes and one
//     memory controller per socket (the per-domain solve), running 1020
//     generated threads, half memory-intensive.
//   - churn: the Table I machine running examples/traffic/colo.json
//     through traffic.Build: about 400 requests registered up front, a
//     few dozen alive at a time. Every request is admitted: there is no
//     traffic accountant to reject any.
//
// When every thread has finished the machine is rebuilt off the clock.
func BenchmarkMachineStep(b *testing.B) {
	cases := []struct {
		name string
		cfg  func() machine.Config
		load func(m *machine.Machine) error // registers the threads
	}{
		{"t1-40", machine.DefaultConfig, func(m *machine.Machine) error {
			return buildWorkload(m, workload.MustTable2(6))
		}},
		{"per-socket-1024", perSocketConfig, func(m *machine.Machine) error {
			w, err := workload.Generate(workload.GeneratorSpec{
				Name: "per-socket-1024", Benchmarks: 102, ThreadsPer: 10, MemoryApps: 51, AllowRepeats: true,
			}, sim.NewRNG(42))
			if err != nil {
				return err
			}
			return buildWorkload(m, w)
		}},
		{"churn", machine.DefaultConfig, func(m *machine.Machine) error {
			blob, err := os.ReadFile("examples/traffic/colo.json")
			if err != nil {
				return err
			}
			spec, err := traffic.ParseSpec(blob)
			if err != nil {
				return err
			}
			_, err = traffic.Build(m, *spec, 42)
			return err
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			build := func() *machine.Machine {
				m, err := machine.New(c.cfg())
				if err != nil {
					b.Fatal(err)
				}
				if err := c.load(m); err != nil {
					b.Fatal(err)
				}
				n := m.Topology().NumCores()
				for i, id := range m.Threads() {
					if err := m.Place(id, machine.CoreID(i%n)); err != nil {
						b.Fatal(err)
					}
				}
				return m
			}
			m := build()
			now := sim.Time(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m.Done() {
					b.StopTimer()
					m, now = build(), 0
					b.StartTimer()
				}
				m.Step(now, 1)
				now++
			}
		})
	}
}

// buildWorkload registers w's threads on m.
func buildWorkload(m *machine.Machine, w *workload.Workload) error {
	_, err := w.Build(m, workload.BuildOptions{Seed: 42})
	return err
}

// perSocketConfig is an 8-socket machine of four core types, 128 lanes
// and one memory controller per socket.
func perSocketConfig() machine.Config {
	spec := &platform.MachineSpec{CoreTypes: []platform.CoreTypeSpec{
		{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75, DVFS: []float64{1, 0.8, 0.6}},
		{Name: "perf", Speed: 2.2, SMTWays: 2},
		{Name: "mid", Speed: 1.6, SMTWays: 2, SMTPenalty: 0.8},
		{Name: "little", Speed: 1.0, SMTWays: 1},
	}}
	for s := 0; s < 8; s++ {
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			Cores: []platform.CoreGroup{
				{Type: "big", Physical: 8}, {Type: "perf", Physical: 16},
				{Type: "mid", Physical: 16}, {Type: "little", Physical: 48},
			},
			Mem: platform.MemSpec{Capacity: 256, BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	cfg := machine.DefaultConfig()
	cfg.Spec = spec
	return cfg
}

// BenchmarkDikeQuantum measures a complete Dike run (observe, select,
// predict, decide, migrate across all quanta) at small scale.
func BenchmarkDikeQuantum(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := harness.Run(context.Background(), harness.RunSpec{
			Workload: workload.MustTable2(6), Policy: harness.PolicyDike, Seed: 42, Scale: 0.05,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMetric replaces the memory-access-rate contention
// metric with IPC, measuring the paper's §III-A claim that IPC is the
// wrong signal on heterogeneous cores (a fast core inflates IPC no
// matter what the thread needs).
func BenchmarkAblationMetric(b *testing.B) {
	ablate(b, func(c *core.Config) { c.UseIPCMetric = true })
}
