package harness

import (
	"context"
	"fmt"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
	"dike/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "scale",
		Title: "Scale sweep: 40→1024 logical cores, per-policy quanta, fairness and swaps",
		Run:   runScale,
		Check: checkScale,
	})
}

// checkScale: one entry per (machine point, policy), each of which ran
// at least one quantum.
func checkScale(d *BenchDoc) []string {
	v := d.wantEntries(len(scaleGrid(d.Quick)) * len(scalePolicies))
	return append(v, d.positive(nil, "quanta")...)
}

// scalePoint is one machine of the 40→1024 sweep grid.
type scalePoint struct {
	name      string
	logical   int
	sockets   int
	coreTypes int
	cfg       machine.Config
}

// ringDistance builds an n-socket distance matrix with ring hop counts
// — the interconnect shape of most multi-die parts.
func ringDistance(n int) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			hops := i - j
			if hops < 0 {
				hops = -hops
			}
			if n-hops < hops {
				hops = n - hops
			}
			d[i][j] = float64(hops)
		}
	}
	return d
}

// scaleMachine builds a spec-driven machine: `sockets` identical sockets,
// each carrying the given core groups, each with its own controller
// sized to its core count, over a ring distance matrix.
func scaleMachine(sockets int, types []platform.CoreTypeSpec, groups []platform.CoreGroup) machine.Config {
	logicalPerSocket := 0
	for _, g := range groups {
		for _, t := range types {
			if t.Name == g.Type {
				logicalPerSocket += g.Physical * t.SMTWays
			}
		}
	}
	spec := &platform.MachineSpec{CoreTypes: types, Distance: ringDistance(sockets)}
	for s := 0; s < sockets; s++ {
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			Cores: groups,
			// Table I provisions 80 misses/ms for 40 logical cores; keep
			// the same 2 misses/ms/core ratio per socket.
			Mem: platform.MemSpec{Capacity: 2 * float64(logicalPerSocket), BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	cfg := machine.DefaultConfig()
	cfg.Spec = spec
	return cfg
}

// scaleGrid is the sweep: the legacy 40-core Table I machine, then
// spec-driven machines up to 1024 logical cores across 2–8 sockets and
// 2–4 core types. Quick mode trims to the ≤128-core points CI can
// afford.
func scaleGrid(quick bool) []scalePoint {
	two := []platform.CoreTypeSpec{
		{Name: "fast", Speed: 2.33, SMTWays: 2, DVFS: []float64{1, 0.85, 0.7}},
		{Name: "slow", Speed: 1.21, SMTWays: 2},
	}
	three := []platform.CoreTypeSpec{
		{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75},
		{Name: "mid", Speed: 1.8, SMTWays: 2, SMTPenalty: 0.8},
		{Name: "little", Speed: 1.0, SMTWays: 1},
	}
	four := []platform.CoreTypeSpec{
		{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75, DVFS: []float64{1, 0.8, 0.6}},
		{Name: "perf", Speed: 2.2, SMTWays: 2},
		{Name: "mid", Speed: 1.6, SMTWays: 2, SMTPenalty: 0.8},
		{Name: "little", Speed: 1.0, SMTWays: 1},
	}
	fourGroups := []platform.CoreGroup{
		{Type: "big", Physical: 8}, {Type: "perf", Physical: 16},
		{Type: "mid", Physical: 16}, {Type: "little", Physical: 48},
	}
	points := []scalePoint{
		{name: "t1-40", logical: 40, sockets: 2, coreTypes: 2, cfg: machine.DefaultConfig()},
		{name: "2s2t-128", logical: 128, sockets: 2, coreTypes: 2,
			cfg: scaleMachine(2, two, []platform.CoreGroup{{Type: "fast", Physical: 16}, {Type: "slow", Physical: 16}})},
	}
	if quick {
		return points
	}
	return append(points,
		scalePoint{name: "4s3t-256", logical: 256, sockets: 4, coreTypes: 3,
			cfg: scaleMachine(4, three, []platform.CoreGroup{{Type: "big", Physical: 8}, {Type: "mid", Physical: 16}, {Type: "little", Physical: 16}})},
		scalePoint{name: "4s4t-512", logical: 512, sockets: 4, coreTypes: 4,
			cfg: scaleMachine(4, four, fourGroups)},
		scalePoint{name: "8s4t-1024", logical: 1024, sockets: 8, coreTypes: 4,
			cfg: scaleMachine(8, four, fourGroups)},
	)
}

// scaleWorkload sizes a generated workload to the machine: one
// 10-thread application per 10 logical cores, half memory-intensive.
func scaleWorkload(logical int, seed uint64) (*workload.Workload, error) {
	n := logical / workload.ThreadsPerBenchmark
	if n < 2 {
		n = 2
	}
	return workload.Generate(workload.GeneratorSpec{
		Name:         fmt.Sprintf("scale%d", logical),
		Benchmarks:   n,
		ThreadsPer:   workload.ThreadsPerBenchmark,
		MemoryApps:   n / 2,
		AllowRepeats: true,
	}, sim.NewRNG(seed))
}

// scalePolicies are the policies the sweep compares at every point.
var scalePolicies = []string{PolicyCFS, PolicyDIO, PolicyDike, PolicyDikeAF, PolicyDikeAP}

// runScale sweeps the grid and reports, per machine point and policy,
// the scheduling quanta, fairness and swap counts. Each (point, policy)
// is one bench entry keyed "point/policy".
func runScale(optsIn Options) (*Report, error) {
	opts := optsIn.withDefaults()
	points := scaleGrid(opts.Quick)
	// The sweep measures scheduling behaviour, not workload completion:
	// a small work scale keeps runs to a few hundred quanta per point.
	benchScale := opts.SweepScale * 0.2

	doc := newBenchDoc("scale", opts)
	doc.Scale = benchScale
	t := &Table{
		Title:  "Quanta, fairness and swaps across the 40→1024-core grid",
		Header: []string{"machine", "logical", "sockets", "types", "policy", "quanta", "fairness", "swaps"},
	}
	for _, p := range points {
		w, err := scaleWorkload(p.logical, opts.Seed)
		if err != nil {
			return nil, err
		}
		for _, pol := range scalePolicies {
			cfg := p.cfg
			spec := RunSpec{
				Workload: w, Policy: pol, Seed: opts.Seed, Scale: benchScale,
				MachineConfig: &cfg,
			}
			out, err := Run(context.Background(), spec)
			if err != nil {
				return nil, fmt.Errorf("scale %s/%s: %w", p.name, pol, err)
			}
			doc.add(p.name+"/"+pol, map[string]string{"point": p.name, "policy": pol}, map[string]float64{
				"logical": float64(p.logical), "sockets": float64(p.sockets), "core_types": float64(p.coreTypes),
				"quanta": float64(out.Decisions), "fairness": out.Result.Fairness, "swaps": float64(out.Result.Swaps),
			})
			t.AddRow(p.name, p.logical, p.sockets, p.coreTypes, pol,
				out.Decisions, fmt.Sprintf("%.4f", out.Result.Fairness), out.Result.Swaps)
		}
	}
	notes := []string{fmt.Sprintf("seed %d, work scale %.3f", opts.Seed, benchScale)}
	if opts.Quick {
		notes = append(notes, "quick mode: grid trimmed to points ≤128 logical cores")
	}
	return withBench(&Report{ID: "scale", Title: "Scale sweep (40→1024 logical cores)", Tables: []*Table{t}, Notes: notes}, doc, opts.BenchDir)
}
