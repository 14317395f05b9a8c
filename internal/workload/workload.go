package workload

import (
	"errors"
	"fmt"

	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
)

// Type classifies a workload by the mix of its main applications
// (§III-F): balanced, unbalanced-compute, or unbalanced-memory.
type Type int

const (
	// Balanced workloads have equal numbers of memory- and
	// compute-intensive threads.
	Balanced Type = iota
	// UnbalancedCompute workloads have more compute-intensive threads.
	UnbalancedCompute
	// UnbalancedMemory workloads have more memory-intensive threads.
	UnbalancedMemory
)

// String returns the paper's shorthand: B, UC or UM.
func (t Type) String() string {
	switch t {
	case Balanced:
		return "B"
	case UnbalancedCompute:
		return "UC"
	default:
		return "UM"
	}
}

// Benchmark is one application instance in a workload: a profile run with
// a number of identical threads.
type Benchmark struct {
	Profile *Profile
	Threads int
	// Extra marks benchmarks that are present only to add contention
	// (the per-workload KMEANS); they are excluded from the workload's
	// B/UC/UM typing and from the fairness/performance aggregates, as in
	// the paper.
	Extra bool
	// StartAt delays the benchmark's threads: they enter the system this
	// many milliseconds into the run (scaled along with the work). Zero
	// means present from the start. Models the dynamic workloads that
	// motivate the paper's adaptive mode ("threads will enter and leave
	// the systems", §III-F).
	StartAt float64
}

// Workload is a named set of benchmarks run concurrently.
type Workload struct {
	Name       string
	Benchmarks []Benchmark
}

// Validate reports the first problem with the workload, or nil.
func (w *Workload) Validate() error {
	if w.Name == "" {
		return errors.New("workload: empty name")
	}
	if len(w.Benchmarks) == 0 {
		return fmt.Errorf("workload %s: no benchmarks", w.Name)
	}
	threads := 0
	for i, b := range w.Benchmarks {
		if b.Profile == nil {
			return fmt.Errorf("workload %s: benchmark %d has nil profile", w.Name, i)
		}
		if err := b.Profile.Validate(); err != nil {
			return fmt.Errorf("workload %s: %v", w.Name, err)
		}
		if b.Threads < 1 {
			return fmt.Errorf("workload %s: benchmark %q has %d threads", w.Name, b.Profile.Name, b.Threads)
		}
		if threads += b.Threads; b.Threads > MaxThreads || threads > MaxThreads {
			return fmt.Errorf("workload %s: more than %d threads", w.Name, MaxThreads)
		}
		if b.StartAt < 0 {
			return fmt.Errorf("workload %s: benchmark %q has negative start time", w.Name, b.Profile.Name)
		}
	}
	return nil
}

// TotalThreads returns the number of threads across all benchmarks.
func (w *Workload) TotalThreads() int {
	n := 0
	for _, b := range w.Benchmarks {
		n += b.Threads
	}
	return n
}

// Type derives the paper's B/UC/UM classification from the ground-truth
// classes of the main (non-Extra) benchmarks.
func (w *Workload) Type() Type {
	mem, comp := 0, 0
	for _, b := range w.Benchmarks {
		if b.Extra {
			continue
		}
		if b.Profile.Class == MemoryIntensive {
			mem += b.Threads
		} else {
			comp += b.Threads
		}
	}
	switch {
	case mem == comp:
		return Balanced
	case comp > mem:
		return UnbalancedCompute
	default:
		return UnbalancedMemory
	}
}

// ThreadInfo records where a built thread came from.
type ThreadInfo struct {
	ID    platform.ThreadID
	Bench int // index into Workload.Benchmarks
}

// Instance is a workload instantiated onto a machine: the mapping from
// thread ids to benchmarks that the metrics layer needs to compute
// per-benchmark fairness. Schedulers never see an Instance.
type Instance struct {
	Workload *Workload
	Threads  []ThreadInfo
	byBench  [][]platform.ThreadID
}

// BuildOptions tunes instantiation.
type BuildOptions struct {
	// Seed decorrelates per-thread noise streams.
	Seed uint64
	// Scale multiplies every benchmark's total work; the harness uses
	// fractional scales to shorten sweep runs. Zero means 1.
	Scale float64
}

// Build registers every thread of the workload on m (ids are dense,
// starting at 0, in benchmark order) and wires up barrier groups. The
// machine must be fresh: Build does not support incremental addition.
func (w *Workload) Build(m *machine.Machine, opts BuildOptions) (*Instance, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(m.Threads()) != 0 {
		return nil, errors.New("workload: machine already has threads")
	}
	scale := opts.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, errors.New("workload: negative scale")
	}
	inst := &Instance{Workload: w, byBench: make([][]platform.ThreadID, len(w.Benchmarks))}
	next := platform.ThreadID(0)
	for bi, b := range w.Benchmarks {
		prof := b.Profile
		if scale != 1 {
			prof = prof.Scale(scale)
		}
		var members []platform.ThreadID
		for t := 0; t < b.Threads; t++ {
			seed := opts.Seed ^ mix(uint64(bi)<<32, uint64(t))
			prog := prof.Instantiate(seed)
			if err := m.AddThread(next, bi, prog); err != nil {
				return nil, err
			}
			if b.StartAt > 0 {
				if err := m.SetStart(next, simTime(b.StartAt*scale)); err != nil {
					return nil, err
				}
			}
			inst.Threads = append(inst.Threads, ThreadInfo{ID: next, Bench: bi})
			members = append(members, next)
			next++
		}
		inst.byBench[bi] = members
		if prof.BarrierInterval > 0 && len(members) >= 2 {
			if err := m.AddBarrierGroup(prof.BarrierInterval, members); err != nil {
				return nil, err
			}
		}
	}
	return inst, nil
}

// Scale returns a copy of p with all phase work multiplied by s. Barrier
// intervals scale too, so coupling granularity stays proportional. The
// traffic layer uses it to size one request's service demand from an
// application profile.
func (p *Profile) Scale(s float64) *Profile {
	cp := *p
	cp.Phases = make([]Phase, len(p.Phases))
	for i, ph := range p.Phases {
		ph.Work *= s
		cp.Phases[i] = ph
	}
	if cp.BarrierInterval > 0 {
		cp.BarrierInterval *= s
	}
	return &cp
}

// ThreadsOf returns the thread ids of benchmark bi.
func (in *Instance) ThreadsOf(bi int) []platform.ThreadID {
	ids := make([]platform.ThreadID, len(in.byBench[bi]))
	copy(ids, in.byBench[bi])
	return ids
}

// simTime converts scaled milliseconds to a simulation time.
func simTime(ms float64) sim.Time { return sim.Time(ms + 0.5) }
