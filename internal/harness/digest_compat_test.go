package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"dike/internal/core"
	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/workload"
)

// namedSpec is one entry of a digest-compatibility corpus.
type namedSpec struct {
	name string
	spec RunSpec
}

// seedDigestSpecs enumerates the spec space the seed experiments draw
// from: every Table II workload under every policy, the sweep
// configurations, fault plans, the scale-out machine override, and the
// step/horizon variants. The golden digests for these specs were
// captured before the machine-spec refactor; they must never change,
// or every durable store and fleet cache in the field is silently
// invalidated.
func seedDigestSpecs() []namedSpec {
	var out []namedSpec
	policies := []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF,
		PolicyDikeAP, PolicyNull, PolicyRotate, PolicyOracle}
	for wl := 1; wl <= 16; wl++ {
		w := workload.MustTable2(wl)
		for _, pol := range policies {
			out = append(out, namedSpec{
				name: fmt.Sprintf("wl%02d-%s", wl, pol),
				spec: RunSpec{Workload: w, Policy: pol, Seed: 42, Scale: 0.5},
			})
		}
	}
	// Sweep-style Dike configurations (the Fig 2/4/5 grid corners).
	for _, q := range []sim.Time{100, 1000} {
		for _, sw := range []int{2, 16} {
			cfg := core.DefaultConfig()
			cfg.QuantaLength = q
			cfg.SwapSize = sw
			out = append(out, namedSpec{
				name: fmt.Sprintf("sweep-q%d-s%d", q, sw),
				spec: RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDike,
					DikeConfig: &cfg, Seed: 42, Scale: 0.25},
			})
		}
	}
	// Fault plans (the degradation sweep).
	fc := fault.DefaultConfig()
	fc.Classes = fault.All
	out = append(out, namedSpec{
		name: "faults-all-dike-af",
		spec: RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDikeAF,
			Faults: &fc, Seed: 42, Scale: 0.5},
	})
	// The scale-out machine override (extra-scale experiment).
	mcfg := machine.DefaultConfig()
	mcfg.Spec.Sockets[0].Cores[0].Physical *= 4
	mcfg.Spec.Sockets[1].Cores[0].Physical *= 4
	mcfg.Spec.SharedMem.Capacity *= 4
	out = append(out, namedSpec{
		name: "scaleout-dike",
		spec: RunSpec{Workload: workload.MustTable2(3), Policy: PolicyDike,
			MachineConfig: &mcfg, Seed: 42, Scale: 0.5},
	})
	// Step and horizon variants.
	out = append(out, namedSpec{
		name: "step2-maxtime",
		spec: RunSpec{Workload: workload.MustTable2(9), Policy: PolicyDIO,
			Seed: 7, Scale: 0.1, Step: 2, MaxTime: 600_000},
	})
	return out
}

// twoPoolSpec writes the Table I machine out as a spec: fast cores on
// socket 0, slow cores on socket 1, one shared memory controller.
func twoPoolSpec() *platform.MachineSpec {
	return &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{
			{Name: "fast", Speed: 2.33, SMTWays: 2},
			{Name: "slow", Speed: 1.21, SMTWays: 2},
		},
		Sockets: []platform.SocketSpec{
			{Cores: []platform.CoreGroup{{Type: "fast", Physical: 10}}},
			{Cores: []platform.CoreGroup{{Type: "slow", Physical: 10}}},
		},
		SharedMem: &platform.MemSpec{Capacity: 80, BaseLatency: 0.008, MaxUtil: 0.96},
	}
}

// specDigestSpecs enumerates spec-driven machines: the energy grid's
// dvfs8 machine, the big4x4 example file, the largest scale-grid point,
// and near-misses of the Table I shape — each one edit away from it —
// that must keep their spec-bearing encoding.
func specDigestSpecs() []namedSpec {
	blob, err := os.ReadFile("../../examples/machines/big4x4.json")
	if err != nil {
		panic(err)
	}
	big4x4, err := platform.ParseMachineSpec(blob)
	if err != nil {
		panic(err)
	}
	var top *machine.Config
	for _, p := range scaleGrid(false) {
		if p.name == "8s4t-1024" {
			top = &p.cfg
		}
	}
	withSpec := func(spec *platform.MachineSpec) *machine.Config {
		cfg := machine.DefaultConfig()
		cfg.Spec = spec
		return &cfg
	}
	nearMiss := func(edit func(*platform.MachineSpec)) *machine.Config {
		spec := twoPoolSpec()
		edit(spec)
		return withSpec(spec)
	}
	machines := []struct {
		name string
		cfg  *machine.Config
	}{
		{"dvfs8", dvfs8Machine()},
		{"big4x4", withSpec(big4x4)},
		{"8s4t-1024", top},
		{"per-socket-mem", nearMiss(func(s *platform.MachineSpec) {
			s.SharedMem = nil
			for i := range s.Sockets {
				s.Sockets[i].Mem = platform.MemSpec{Capacity: 40, BaseLatency: 0.008, MaxUtil: 0.96}
			}
		})},
		{"distance", nearMiss(func(s *platform.MachineSpec) { s.Distance = [][]float64{{0, 1}, {1, 0}} })},
		{"smt-penalty", nearMiss(func(s *platform.MachineSpec) { s.CoreTypes[0].SMTPenalty = 0.7 })},
		{"dvfs", nearMiss(func(s *platform.MachineSpec) { s.CoreTypes[0].DVFS = []float64{1, 0.85} })},
		{"power", nearMiss(func(s *platform.MachineSpec) { s.CoreTypes[1].PowerPeak = 3 })},
		{"smt-ways", nearMiss(func(s *platform.MachineSpec) { s.CoreTypes[1].SMTWays = 1 })},
		{"socket-mem", nearMiss(func(s *platform.MachineSpec) {
			s.Sockets[0].Mem = platform.MemSpec{Capacity: 40, BaseLatency: 0.008, MaxUtil: 0.96}
		})},
		{"slow-first", nearMiss(func(s *platform.MachineSpec) { s.Sockets[0], s.Sockets[1] = s.Sockets[1], s.Sockets[0] })},
		{"mixed-socket", nearMiss(func(s *platform.MachineSpec) {
			s.Sockets = []platform.SocketSpec{{Cores: []platform.CoreGroup{{Type: "fast", Physical: 10}, {Type: "slow", Physical: 10}}}}
		})},
		{"renamed", nearMiss(func(s *platform.MachineSpec) {
			s.CoreTypes[0].Name = "big"
			s.Sockets[0].Cores[0].Type = "big"
		})},
	}
	var out []namedSpec
	for _, m := range machines {
		out = append(out, namedSpec{
			name: "spec-" + m.name,
			spec: RunSpec{Workload: workload.MustTable2(3), Policy: PolicyDikeAF,
				MachineConfig: m.cfg, Seed: 42, Scale: 0.5},
		})
	}
	out = append(out, namedSpec{
		name: "spec-big4x4-traffic",
		spec: RunSpec{Traffic: testTrafficSpec(), Policy: PolicyDike,
			MachineConfig: withSpec(big4x4), Seed: 42},
	})
	return out
}

// digestCorpora are the pinned golden files and the specs each pins. A
// digest is a durable content address — the store and every fleet
// cache key results by it — so no entry may ever drift. Each file's
// entry count is itself a guard: a corpus cannot grow or shrink without
// its golden file being regenerated on purpose.
var digestCorpora = []struct {
	name, file string
	specs      func() []namedSpec
}{
	{"seed", "testdata/seed_digests.json", seedDigestSpecs},
	{"traffic", "testdata/traffic_digests.json", trafficDigestSpecs},
	{"spec", "testdata/spec_digests.json", specDigestSpecs},
}

// TestDigestsPinned is the digest-compatibility regression test:
// RunSpec.Digest() for every corpus must be byte-identical to its
// golden file. The seed corpus was captured before the topology-driven
// machine model existed, the spec corpus before the legacy machine
// fields were lowered into a MachineSpec.
func TestDigestsPinned(t *testing.T) {
	for _, c := range digestCorpora {
		t.Run(c.name, func(t *testing.T) {
			blob, err := os.ReadFile(c.file)
			if err != nil {
				t.Fatalf("reading golden digests: %v", err)
			}
			var golden map[string]string
			if err := json.Unmarshal(blob, &golden); err != nil {
				t.Fatalf("parsing golden digests: %v", err)
			}
			specs := c.specs()
			if len(golden) != len(specs) {
				t.Fatalf("%s has %d entries, corpus has %d — regenerate with GEN_DIGEST_GOLDEN=%s only for an intentional, store-invalidating change", c.file, len(golden), len(specs), c.name)
			}
			for _, e := range specs {
				want, ok := golden[e.name]
				if !ok {
					t.Errorf("%s: missing from golden file", e.name)
					continue
				}
				got, err := e.spec.Digest()
				if err != nil {
					t.Errorf("%s: digest failed: %v", e.name, err)
					continue
				}
				if got != want {
					t.Errorf("%s: digest drifted\n got %s\nwant %s", e.name, got, want)
				}
			}
		})
	}
}

// TestGenerateDigestGolden rewrites one corpus's golden file from the
// current Digest implementation: GEN_DIGEST_GOLDEN names the corpus.
// GEN_DIGEST_GOLDEN=outcome rewrites the outcome corpus from what the
// current code computes.
func TestGenerateDigestGolden(t *testing.T) {
	which := os.Getenv("GEN_DIGEST_GOLDEN")
	if which == "" {
		t.Skip("set GEN_DIGEST_GOLDEN=seed|traffic|spec|outcome to regenerate that corpus")
	}
	if which == "outcome" {
		writeGolden(t, outcomeFile, outcomeSpecs(), runOutcome)
		return
	}
	for _, c := range digestCorpora {
		if c.name == which {
			writeGolden(t, c.file, c.specs(), RunSpec.Digest)
			return
		}
	}
	t.Fatalf("GEN_DIGEST_GOLDEN=%q names no corpus", which)
}

// writeGolden writes hash of every spec to file as a name-keyed map.
func writeGolden(t *testing.T, file string, specs []namedSpec, hash func(RunSpec) (string, error)) {
	out := make(map[string]string)
	for _, e := range specs {
		d, err := hash(e.spec)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		out[e.name] = d
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
