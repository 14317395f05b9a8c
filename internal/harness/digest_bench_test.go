package harness

import (
	"testing"

	"dike/internal/sim"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// BenchmarkDigest measures RunSpec.Digest, which every served run pays
// at least once: the Table I machine with Table II workload 6, the
// 1024-core scale point with 128 generated applications, and the
// example colocation traffic scenario.
func BenchmarkDigest(b *testing.B) {
	var top *RunSpec
	for _, p := range scaleGrid(false) {
		if p.name == "8s4t-1024" {
			apps, err := workload.Generate(workload.GeneratorSpec{
				Name: "apps128", Benchmarks: 128, ThreadsPer: 8, MemoryApps: 64, AllowRepeats: true,
			}, sim.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			cfg := p.cfg
			top = &RunSpec{Workload: apps, Policy: PolicyDikeAF, MachineConfig: &cfg, Seed: 42, Scale: 0.01}
		}
	}
	colo, err := traffic.LoadSpec("../../examples/traffic/colo.json")
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"wl6", RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDikeAF, Seed: 42, Scale: 0.1}},
		{"8s4t-1024", *top},
		{"colo", RunSpec{Traffic: colo, Policy: PolicyDikeAF, Seed: 42}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.spec.Digest(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
