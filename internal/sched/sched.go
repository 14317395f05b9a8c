// Package sched provides the scheduling framework the policies plug
// into — quantum-driven policies over a platform — plus the
// contention-oblivious baselines the paper compares against: the Linux
// CFS stand-in and DIO (Distributed Intensity Online, Zhuravlev et al.),
// the state-of-the-art contention-aware comparator.
//
// Policies observe the system exclusively through the platform seam
// (internal/platform): performance-counter samples plus OS-visible
// thread state in, affinity changes (Place/Migrate/Swap) out — the same
// contract a userspace scheduler has on real hardware. No policy in
// this package knows which backend (simulated machine, replay log, real
// hardware) sits behind the interface.
package sched

import (
	"fmt"

	"dike/internal/platform"
	"dike/internal/sim"
)

// SpreadPlacement binds every registered thread to its own logical core,
// spreading across physical cores first (one lane per physical core
// before doubling up on SMT siblings) and shuffling thread order with the
// given seed. This models how threads land under a load-tracking but
// contention- and heterogeneity-oblivious balancer: evenly, and with no
// correlation between an application and a core type.
//
// Every policy uses the same initial placement (same seed) so measured
// differences come from steady-state behaviour, not starting luck.
func SpreadPlacement(p platform.Platform, seed uint64) error {
	topo := p.Topology()
	// Lane-major core order: all lane-0s across physical cores, then all
	// lane-1s, and so on.
	type laneKey struct{ lane, phys int }
	cores := topo.Cores()
	byLane := make(map[laneKey]platform.CoreID, len(cores))
	lanes := 0
	physSeen := make(map[int]int)
	for _, c := range cores {
		lane := physSeen[c.Physical]
		physSeen[c.Physical]++
		byLane[laneKey{lane, c.Physical}] = c.ID
		if lane+1 > lanes {
			lanes = lane + 1
		}
	}
	var order []platform.CoreID
	for lane := 0; lane < lanes; lane++ {
		for phys := 0; phys < len(physSeen); phys++ {
			if id, ok := byLane[laneKey{lane, phys}]; ok {
				order = append(order, id)
			}
		}
	}

	threads := p.Threads()
	if len(threads) > len(order) {
		// More threads than logical cores: wrap around; lanes time-share.
		// Supported, though the paper's workloads never need it.
		wrapped := make([]platform.CoreID, 0, len(threads))
		for i := range threads {
			wrapped = append(wrapped, order[i%len(order)])
		}
		order = wrapped
	}
	rng := sim.NewRNG(seed)
	idx := make([]int, len(threads))
	for i := range idx {
		idx[i] = i
	}
	rng.Shuffle(idx)
	for i, ti := range idx {
		if err := p.Place(threads[ti], order[i%len(order)]); err != nil {
			return fmt.Errorf("sched: placement failed: %w", err)
		}
	}
	return nil
}

// CFS models the relevant behaviour of Linux's completely fair scheduler
// for the paper's setup: with one thread per logical core there is
// nothing for CFS's load balancer to move, so after the initial
// load-spread placement it leaves the mapping alone. It is the paper's
// baseline ("Figure 6a shows the improvement in fairness over the
// baseline, so the baseline is zero").
type CFS struct {
	p      platform.Platform
	seed   uint64
	ql     sim.Time
	placed bool
}

// NewCFS returns the CFS baseline. quanta only sets how often the engine
// polls the (inactive) policy; 1000 ms keeps overhead nil.
func NewCFS(p platform.Platform, seed uint64) *CFS {
	return &CFS{p: p, seed: seed, ql: 1000}
}

// Name implements sim.Policy.
func (c *CFS) Name() string { return "cfs" }

// QuantaLength implements sim.Policy.
func (c *CFS) QuantaLength() sim.Time { return c.ql }

// Quantum implements sim.Policy.
func (c *CFS) Quantum(sim.Time) error {
	if !c.placed {
		if err := SpreadPlacement(c.p, c.seed); err != nil {
			return err
		}
		c.placed = true
	}
	return nil
}

// NewNull returns CFS: an unscheduled run places threads once and never
// acts, which is what CFS does. The traced benchmark build
// (cmd/dikeperf/trace.go) is its only caller; ROADMAP item 2 deletes it.
func NewNull(p platform.Platform, seed uint64) *CFS { return NewCFS(p, seed) }
