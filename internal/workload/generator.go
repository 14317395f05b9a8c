package workload

import (
	"fmt"

	"dike/internal/sim"
)

// GeneratorSpec parameterises Generate, which synthesises random
// workloads in the style of Table II. The property tests and the example
// programs use it to exercise the schedulers far beyond the paper's 16
// fixed workloads.
type GeneratorSpec struct {
	// Name for the generated workload (default "gen").
	Name string
	// Benchmarks is how many main applications to draw (default 4).
	Benchmarks int
	// ThreadsPer is threads per application (default 8).
	ThreadsPer int
	// MemoryApps fixes how many of the drawn applications are memory
	// intensive; -1 draws uniformly.
	MemoryApps int
	// IncludeKmeans appends the Extra KMEANS instance, as Table II does.
	IncludeKmeans bool
	// AllowRepeats permits the same application twice (Table II never
	// repeats within a workload).
	AllowRepeats bool
}

// Generate draws a random workload per spec using rng.
func Generate(spec GeneratorSpec, rng *sim.RNG) (*Workload, error) {
	if spec.Name == "" {
		spec.Name = "gen"
	}
	if spec.Benchmarks == 0 {
		spec.Benchmarks = 4
	}
	if spec.ThreadsPer == 0 {
		spec.ThreadsPer = ThreadsPerBenchmark
	}
	if spec.Benchmarks < 1 || spec.ThreadsPer < 1 {
		return nil, fmt.Errorf("workload: generator needs positive counts, got %d benchmarks x %d threads", spec.Benchmarks, spec.ThreadsPer)
	}
	apps := spec.Benchmarks
	if spec.IncludeKmeans {
		apps++
	}
	if spec.ThreadsPer > MaxThreads/apps {
		return nil, fmt.Errorf("workload: generator asks for %d apps x %d threads, more than %d threads", apps, spec.ThreadsPer, MaxThreads)
	}
	catalogue := Profiles()
	var memApps, compApps []*Profile
	for _, name := range AppNames() {
		p := catalogue[name]
		if p.Name == "kmeans" {
			continue // kmeans is the Extra app, never a main draw
		}
		if p.Class == MemoryIntensive {
			memApps = append(memApps, p)
		} else {
			compApps = append(compApps, p)
		}
	}

	nMem := spec.MemoryApps
	if nMem < 0 {
		nMem = rng.Intn(spec.Benchmarks + 1)
	}
	if nMem > spec.Benchmarks {
		return nil, fmt.Errorf("workload: MemoryApps %d exceeds Benchmarks %d", nMem, spec.Benchmarks)
	}
	if !spec.AllowRepeats {
		if nMem > len(memApps) || spec.Benchmarks-nMem > len(compApps) {
			return nil, fmt.Errorf("workload: not enough distinct apps for %d memory + %d compute", nMem, spec.Benchmarks-nMem)
		}
	}

	draw := func(pool []*Profile, n int) []*Profile {
		if spec.AllowRepeats {
			out := make([]*Profile, n)
			for i := range out {
				out[i] = pool[rng.Intn(len(pool))]
			}
			return out
		}
		perm := rng.Perm(len(pool))
		out := make([]*Profile, n)
		for i := range out {
			out[i] = pool[perm[i]]
		}
		return out
	}

	w := &Workload{Name: spec.Name}
	for _, p := range draw(memApps, nMem) {
		w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: p, Threads: spec.ThreadsPer})
	}
	for _, p := range draw(compApps, spec.Benchmarks-nMem) {
		w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: p, Threads: spec.ThreadsPer})
	}
	if spec.IncludeKmeans {
		w.Benchmarks = append(w.Benchmarks, Benchmark{Profile: catalogue["kmeans"], Threads: spec.ThreadsPer, Extra: true})
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
