package harness

import (
	"fmt"
	"runtime"
	"sort"
)

// Options tunes an experiment run.
type Options struct {
	// Seed controls workload noise and initial placement. All runs inside
	// one experiment share it so policies are compared like-for-like.
	Seed uint64
	// Scale multiplies benchmark work for the headline experiments
	// (Fig 1, Fig 6, Table III, Fig 7, Fig 8). Default 0.5 — long enough
	// that runs span hundreds of scheduling quanta.
	Scale float64
	// SweepScale is the (smaller) scale for the 32-configuration sweeps
	// (Fig 2, Fig 4, Fig 5), which need 64–512 runs. Default 0.25.
	SweepScale float64
	// Workers caps concurrent simulations. Default: GOMAXPROCS.
	Workers int
	// Quick shrinks everything further for smoke tests.
	Quick bool
	// BenchDir, when set, is the directory bench experiments (scale, slo,
	// tournament, energy) write their bench document to, as
	// BENCH_<id>.json. Empty disables the file.
	BenchDir string
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale == 0 {
		o.Scale = 0.5
	}
	if o.SweepScale == 0 {
		o.SweepScale = 0.25
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Quick {
		o.Scale *= 0.3
		o.SweepScale *= 0.3
	}
	return o
}

// Experiment regenerates one table or figure of the paper. Experiments
// that write a bench document declare a Check: the absolute properties
// one document must have, reported as violations. Their committed
// baselines in bench/ pin the document itself byte for byte.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Report, error)
	Check func(*BenchDoc) []string
}

// registry holds all experiments keyed by id.
var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return e, nil
}

// ExperimentIDs lists registered experiment ids in a stable order.
func ExperimentIDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Experiments returns all experiments in id order.
func Experiments() []Experiment {
	var out []Experiment
	for _, id := range ExperimentIDs() {
		out = append(out, registry[id])
	}
	return out
}
