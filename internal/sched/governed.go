package sched

import (
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/sim"
)

// Governed composes a scheduling policy with a power governor: the
// policy runs its quantum first, then — every `every` quanta, the
// scheduler's adaptation interval — the governor reads the platform's
// energy meter and actuates DVFS. Running the governor after the policy
// keeps the recorded event stream causal: quantum boundary, policy
// calls, then power calls, which is the order the replay layer
// re-drives them in.
type Governed struct {
	inner sim.Policy
	gov   power.Governor
	pc    platform.PowerControl
	every int
	calls int
	stats power.Stats
}

// Govern wraps inner with gov actuating through pc every `every`
// quanta. If the governor consumes a fairness feed and the policy
// provides one (Dike does), they are coupled here.
func Govern(inner sim.Policy, gov power.Governor, pc platform.PowerControl, every int) *Governed {
	if every < 1 {
		every = 1
	}
	if fs, ok := gov.(power.FeedSetter); ok {
		if feed, ok := inner.(power.LimitFeed); ok {
			fs.SetFeed(feed)
		}
	}
	return &Governed{inner: inner, gov: gov, pc: pc, every: every, stats: power.Stats{Governor: gov.Name()}}
}

// Name implements sim.Policy; the governed run keeps the policy's name (the
// governor identifies itself in the stats and the run digest).
func (g *Governed) Name() string { return g.inner.Name() }

// QuantaLength implements sim.Policy.
func (g *Governed) QuantaLength() sim.Time { return g.inner.QuantaLength() }

// Inner returns the wrapped policy, for result extraction after a run.
func (g *Governed) Inner() sim.Policy { return g.inner }

// Stats returns the governor's decision record.
func (g *Governed) Stats() *power.Stats { return &g.stats }

// Quantum implements sim.Policy.
func (g *Governed) Quantum(now sim.Time) error {
	if err := g.inner.Quantum(now); err != nil {
		return err
	}
	g.calls++
	if g.calls%g.every != 0 {
		return nil
	}
	s := g.pc.PowerSample()
	inv := power.Invocation{T: now, Watts: s.Total(), Energy: s.Energy}
	g.gov.Adapt(s, &recordingActuator{pc: g.pc, inv: &inv})
	g.stats.Invocations = append(g.stats.Invocations, inv)
	return nil
}

// recordingActuator interposes on the governor's writes so every DVFS
// actuation lands in the invocation record (and thus the run digest).
type recordingActuator struct {
	pc  platform.PowerControl
	inv *power.Invocation
}

func (r *recordingActuator) SetDVFS(core platform.CoreID, level int) error {
	err := r.pc.SetDVFS(core, level)
	a := power.Action{Core: core, Level: level}
	if err != nil {
		a.Err = err.Error()
	}
	r.inv.Acts = append(r.inv.Acts, a)
	return err
}
