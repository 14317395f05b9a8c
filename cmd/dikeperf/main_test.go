package main

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dike/internal/machine"
)

var update = flag.Bool("update", false, "rewrite testdata/expected.json from this run's digests")

// benchmarkDoc is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkDoc struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []nameUnit `json:"end_to_end"`
	PerLayer []nameUnit `json:"per_layer"`
}

type nameUnit struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(t *testing.T) benchmarkDoc {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func emitted(ms []metric) []nameUnit {
	out := make([]nameUnit, len(ms))
	for i, m := range ms {
		out[i] = nameUnit{m.name, m.unit}
	}
	return out
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	doc := loadBenchmark(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, wl := range workloads {
		want = append(want, wl.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	var layers []nameUnit
	for _, p := range perLayer {
		layers = append(layers, nameUnit{p.name, p.unit})
	}
	if !reflect.DeepEqual(doc.PerLayer, layers) {
		t.Errorf("BENCHMARK.json per_layer %v, program emits %v", doc.PerLayer, layers)
	}
}

func TestSpec1024(t *testing.T) {
	spec, err := closedInputs(expectedSeed)[4].spec()
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(*spec.MachineConfig)
	if err != nil {
		t.Fatal(err)
	}
	topo := m.Topology()
	if topo.NumCores() != 1024 || topo.NumSockets() != 8 || topo.NumKinds() != 4 {
		t.Errorf("8s4t-1024 builds %d logical cores, %d sockets, %d kinds; want 1024, 8, 4",
			topo.NumCores(), topo.NumSockets(), topo.NumKinds())
	}
	if n := spec.Workload.TotalThreads(); n != 1024 {
		t.Errorf("1024-core workload has %d threads", n)
	}
}

// smokeConfig is a short run of one workload: one set-up, then every
// input once (one replay, or 50 serve requests).
func smokeConfig(name string) config {
	cfg := config{workload: name, seed: expectedSeed, setups: 1, ops: 1, traceDir: os.TempDir()}
	switch name {
	case "sim-closed":
		cfg.ops = len(closedInputs(expectedSeed))
	case "sim-traffic":
		cfg.ops = len(trafficInputs(expectedSeed))
	case "serve-mix":
		cfg.ops = 50
	}
	return cfg
}

// TestSmoke runs every workload briefly at the pinned seed: every output
// must match testdata/expected.json, and the metrics must be exactly the
// end-to-end metrics BENCHMARK.json declares. With -update it rewrites
// expected.json instead.
func TestSmoke(t *testing.T) {
	doc := loadBenchmark(t)
	pinned := map[string]map[string]string{}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			cfg := smokeConfig(wl.name)
			e, err := newEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				e.check.want = map[string]string{}
			}
			gated, _, err := measureWorkload(context.Background(), wl, e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := e.result(gated)
			if !res.Correct {
				t.Fatalf("%d of %d operations failed; first: %v", res.Failed, res.Attempted, res.firstErr)
			}
			if got := emitted(gated); !reflect.DeepEqual(got, doc.EndToEnd) {
				t.Errorf("emitted %v, BENCHMARK.json end_to_end %v", got, doc.EndToEnd)
			}
			pinned[wl.name] = map[string]string{}
			for label, d := range e.check.seen {
				if !strings.HasPrefix(label, "fresh/") {
					pinned[wl.name][label] = d
				}
			}
		})
	}
	if !*update || t.Failed() {
		return
	}
	blob, err := json.MarshalIndent(pinned, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "expected.json"), append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrator(t *testing.T) {
	c := startCalibrator()
	release := c.hold()
	time.Sleep(2 * calEvery) // the sampler must wait for the hold
	_, n0 := c.ref()
	release()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(calEvery / 4) {
		if _, n := c.ref(); n > n0 || time.Now().After(deadline) {
			break
		}
	}
	c.halt()
	ref, n := c.ref()
	paused, allocs := c.paused()
	if n <= n0 || ref <= 0 || paused < ref || allocs == 0 {
		t.Errorf("calibrator: %d samples (%d while held), median %v, paused %v, %d bytes", n, n0, ref, paused, allocs)
	}
	if s := slowdown(refNominal); s != 1 {
		t.Errorf("slowdown(refNominal) = %v", s)
	}
	var nilCal *calibrator
	nilCal.hold()()
	nilCal.halt()
	if ref, n := nilCal.ref(); ref != refNominal || n != 0 {
		t.Errorf("nil calibrator ref = %v, %d", ref, n)
	}
}

func TestParseFlags(t *testing.T) {
	var sink strings.Builder
	cfg, traced, err := parseFlags([]string{"--workload", "replay", "--seed", "7", "--seconds", "10", "--trace", "1"}, &sink)
	if err != nil || !traced || cfg.workload != "replay" || cfg.seed != 7 || cfg.seconds != 10 || cfg.setups != setups || !cfg.calibrate {
		t.Errorf("parseFlags = %+v, %v, %v", cfg, traced, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "replay", "--trace", "2"},
		{"--workload", "replay", "--seconds", "0"},
		{"--workload", "replay", "extra"},
	} {
		if _, _, err := parseFlags(bad, &sink); err == nil {
			t.Errorf("parseFlags(%q) accepted", bad)
		}
	}
}
