// Package platformtest holds the platform conformance suite (run
// against every backend; see conformance.go) and the backend
// constructors tests outside the machine package use to obtain a
// concrete platform.
//
// The re-exported aliases, ConstProgram and the helpers exist so that
// scheduler tests — which must not depend on internal/machine directly
// (the policy layers are backend-agnostic by construction, tests
// included) — can still build and drive the reference simulated
// backend. This package is the one place on the policy side of the
// seam that knows the backends.
package platformtest

import (
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/sim"
)

// Machine is the simulated-machine backend (alias of machine.Machine).
type Machine = machine.Machine

// Config parameterises the simulated-machine backend.
type Config = machine.Config

// Demand is a thread's instantaneous resource demand per work unit.
type Demand = machine.Demand

// ConstProgram is a fixed-work, constant-demand thread program, the
// simplest machine.Program.
type ConstProgram struct {
	Work   float64
	Demand Demand
}

// TotalWork implements machine.Program.
func (p ConstProgram) TotalWork() float64 { return p.Work }

// DemandAt implements machine.Program. The demand holds forever.
func (p ConstProgram) DemandAt(float64, sim.Time) (Demand, machine.Window) {
	return p.Demand, machine.Forever()
}

// DefaultConfig returns the paper's Table I machine configuration.
func DefaultConfig() Config { return machine.DefaultConfig() }

// NewMachine builds a simulated-machine backend, panicking on an
// invalid configuration (test configurations are static).
func NewMachine(cfg Config) *Machine {
	m, err := machine.New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// CoresOfKind lists topo's logical cores of kind k in id order.
func CoresOfKind(topo *platform.Topology, k platform.CoreKind) []platform.CoreID {
	var out []platform.CoreID
	for _, c := range topo.Cores() {
		if c.Kind == k {
			out = append(out, c.ID)
		}
	}
	return out
}

// Placement maps every thread of p to the core it is bound to.
func Placement(p platform.Platform) map[platform.ThreadID]platform.CoreID {
	out := map[platform.ThreadID]platform.CoreID{}
	for _, id := range p.Threads() {
		c, err := p.CoreOf(id)
		if err != nil {
			panic(err)
		}
		out[id] = c
	}
	return out
}
