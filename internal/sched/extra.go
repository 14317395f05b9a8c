package sched

import (
	"errors"
	"sort"

	"dike/internal/platform"
	"dike/internal/sim"
)

// Rotate is the "trivially fair" reference scheduler: every quantum it
// rotates all alive threads one position around the core ring, so over
// a long run every thread sees every core equally. It demonstrates the
// paper's aside that "we could trivially provide fairness by making all
// threads extremely slow": rotation equalizes runtimes almost perfectly
// while paying a migration for every thread every quantum.
type Rotate struct {
	p      platform.Platform
	seed   uint64
	ql     sim.Time
	placed bool
}

// RotateQuantum is the rotation period.
const RotateQuantum sim.Time = 1000

// NewRotate returns the rotation policy.
func NewRotate(p platform.Platform, seed uint64) *Rotate {
	return &Rotate{p: p, seed: seed, ql: RotateQuantum}
}

// Name implements sim.Policy.
func (r *Rotate) Name() string { return "rotate" }

// QuantaLength implements sim.Policy.
func (r *Rotate) QuantaLength() sim.Time { return r.ql }

// Quantum implements sim.Policy.
func (r *Rotate) Quantum(now sim.Time) error {
	if !r.placed {
		if err := SpreadPlacement(r.p, r.seed); err != nil {
			return err
		}
		r.placed = true
		return nil
	}
	alive := r.p.Alive()
	if len(alive) < 2 {
		return nil
	}
	// Order threads by their current core id and shift each to the next
	// occupied core (a single cycle), so the set of occupied cores is
	// preserved and every thread migrates once.
	sort.Slice(alive, func(i, j int) bool {
		ci, _ := r.p.CoreOf(alive[i])
		cj, _ := r.p.CoreOf(alive[j])
		if ci != cj {
			return ci < cj
		}
		return alive[i] < alive[j]
	})
	cores := make([]platform.CoreID, len(alive))
	for i, id := range alive {
		c, err := r.p.CoreOf(id)
		if err != nil {
			return err
		}
		cores[i] = c
	}
	for i, id := range alive {
		dest := cores[(i+1)%len(cores)]
		if err := r.p.Migrate(id, dest, now); err != nil {
			return err
		}
	}
	return nil
}

// Static binds every thread to a fixed core chosen up front and never
// migrates. With an assignment derived from ground-truth application
// knowledge it serves as the offline-profiling oracle (the HASS family
// in the paper's related work); with a bad assignment it is a worst-case
// reference.
type Static struct {
	p          platform.Platform
	assignment map[platform.ThreadID]platform.CoreID
	placed     bool
}

// NewStatic returns a static policy with the given thread→core map. All
// registered threads must be covered.
func NewStatic(p platform.Platform, assignment map[platform.ThreadID]platform.CoreID) (*Static, error) {
	for _, id := range p.Threads() {
		if _, ok := assignment[id]; !ok {
			return nil, errors.New("sched: static assignment missing thread")
		}
	}
	return &Static{p: p, assignment: assignment}, nil
}

// Name implements sim.Policy.
func (s *Static) Name() string { return "static" }

// QuantaLength implements sim.Policy.
func (s *Static) QuantaLength() sim.Time { return 1000 }

// Quantum implements sim.Policy. Threads are placed in ascending id order so
// the platform sees a deterministic call sequence (map iteration order
// would differ between otherwise-identical runs, which record/replay
// verification would flag as divergence).
func (s *Static) Quantum(sim.Time) error {
	if s.placed {
		return nil
	}
	ids := make([]platform.ThreadID, 0, len(s.assignment))
	for id := range s.assignment {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := s.p.Place(id, s.assignment[id]); err != nil {
			return err
		}
	}
	s.placed = true
	return nil
}

// OracleAssignment builds the offline-knowledge placement: threads are
// ranked by their programs' true steady-state memory intensity and the
// most demanding ones get the fast cores, spreading across physical
// cores before doubling up SMT lanes. intensity maps each thread to its
// ground-truth misses-per-work; the harness derives it from the workload
// definition (information a real system would need offline profiling
// for — hence "oracle").
func OracleAssignment(p platform.Platform, intensity map[platform.ThreadID]float64) map[platform.ThreadID]platform.CoreID {
	topo := p.Topology()
	// Core order: core types fastest first (a shared fast core still
	// beats a dedicated slow one at the default SMT penalty), each type
	// lane-major, all lanes of one type before any lane of the next: fast
	// lane-0s, fast lane-1s, …, then slow lane-0s, slow lane-1s, …
	laneMajor := lanes(topo)
	var order []platform.CoreID
	for _, kind := range topo.KindsBySpeed() {
		for _, id := range laneMajor {
			if topo.Core(id).Kind == kind {
				order = append(order, id)
			}
		}
	}
	// Threads by descending intensity, ties by id.
	threads := p.Threads()
	sort.Slice(threads, func(i, j int) bool {
		a, b := intensity[threads[i]], intensity[threads[j]]
		if a != b {
			return a > b
		}
		return threads[i] < threads[j]
	})
	out := make(map[platform.ThreadID]platform.CoreID, len(threads))
	for i, id := range threads {
		out[id] = order[i%len(order)]
	}
	return out
}
