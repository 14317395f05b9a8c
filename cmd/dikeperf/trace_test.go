//go:build trace

package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestTrace runs the traced invocation of every workload twice. Each
// traced output must equal the untraced one (the shared checker fails
// the operation otherwise), the printed metrics must be exactly
// BENCHMARK.json's per_layer, and the counts a simulation determines
// must repeat exactly. Allocation counts repeat to within a few parts in
// 10^5: Go maps grow by their per-map random hash seeds.
func TestTrace(t *testing.T) {
	doc := loadBenchmark(t)
	exact := []string{"sim.ticks_per_run", "sim.quanta_per_run", "machine.affinity.calls_per_run", "replay.log_bytes"}
	near := []string{"machine.step.allocs_per_tick", "machine.sample.allocs_per_call", "core.quantum.allocs_per_call"}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var passes [2]map[string]float64
			for i := range passes {
				cfg := smokeConfig(wl.name)
				cfg.traceDir = t.TempDir()
				e, err := newEnv(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gated, all, err := traceWorkload(context.Background(), wl, e, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res := e.result(gated); !res.Correct {
					t.Fatalf("%d of %d operations failed; first: %v", res.Failed, res.Attempted, res.firstErr)
				}
				if got := emitted(gated); !reflect.DeepEqual(got, doc.PerLayer) {
					t.Errorf("emitted %v, BENCHMARK.json per_layer %v", got, doc.PerLayer)
				}
				for _, f := range []string{"spans.jsonl", "layers.json"} {
					if st, err := os.Stat(filepath.Join(cfg.traceDir, wl.name, f)); err != nil || st.Size() == 0 {
						t.Errorf("%s: %v", f, err)
					}
				}
				passes[i] = map[string]float64{}
				for _, m := range all {
					passes[i][m.name] = m.value
				}
			}
			if wl.name == "serve-mix" {
				// Which fresh specs each client draws depends on timing.
				return
			}
			for _, name := range exact {
				if a, b := passes[0][name], passes[1][name]; a != b {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
			for _, name := range near {
				if a, b := passes[0][name], passes[1][name]; math.Abs(a-b) > 1e-3*math.Max(a, b) {
					t.Errorf("%s: %v then %v", name, a, b)
				}
			}
		})
	}
}
