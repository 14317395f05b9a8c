package sched

import (
	"context"
	"testing"

	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
)

func TestRotateMovesEveryThread(t *testing.T) {
	m, _ := buildMachine(t, 1, 0.1)
	r := NewRotate(m, 42)
	if r.Name() != "rotate" || r.QuantaLength() != RotateQuantum {
		t.Error("identity wrong")
	}
	r.Quantum(0) // placement
	before := platformtest.Placement(m)
	m.Step(0, 1)
	r.Quantum(1000)
	after := platformtest.Placement(m)
	moved := 0
	for id := range before {
		if before[id] != after[id] {
			moved++
		}
	}
	if moved != len(before) {
		t.Errorf("rotation moved %d of %d threads", moved, len(before))
	}
	// The set of occupied cores is preserved (a pure cycle).
	occ := func(p map[platform.ThreadID]platform.CoreID) map[platform.CoreID]int {
		out := map[platform.CoreID]int{}
		for _, c := range p {
			out[c]++
		}
		return out
	}
	ob, oa := occ(before), occ(after)
	for c, n := range ob {
		if oa[c] != n {
			t.Fatalf("occupancy changed at core %d: %d -> %d", c, n, oa[c])
		}
	}
}

func TestRotateEqualizesRuntimes(t *testing.T) {
	m, inst := buildMachine(t, 1, 0.1)
	r := NewRotate(m, 42)
	eng, err := sim.NewEngine(m, r, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Rotation equalizes over full tours of the 40-core ring; at this
	// scale short benchmarks only complete part of a tour, so the bound
	// is loose — the memory benchmarks (0, 1) run long enough for a
	// tight one.
	for bi := range inst.Workload.Benchmarks {
		ids := inst.ThreadsOf(bi)
		var lo, hi float64
		for i, id := range ids {
			ft, ok := m.Finished(id)
			if !ok {
				t.Fatal("thread unfinished")
			}
			f := float64(ft)
			if i == 0 || f < lo {
				lo = f
			}
			if f > hi {
				hi = f
			}
		}
		bound := 0.6
		if bi <= 1 {
			bound = 0.25
		}
		if spread := (hi - lo) / hi; spread > bound {
			t.Errorf("bench %d runtime spread %.2f too large for rotation", bi, spread)
		}
	}
}

func TestStaticOracle(t *testing.T) {
	m, inst := buildMachine(t, 1, 0.1)
	// Ground-truth intensity from the instance's profiles.
	intensity := map[platform.ThreadID]float64{}
	for _, ti := range inst.Threads {
		intensity[ti.ID] = inst.Workload.Benchmarks[ti.Bench].Profile.MeanMissesPerWork()
	}
	asg := OracleAssignment(m, intensity)
	if len(asg) != len(m.Threads()) {
		t.Fatalf("assignment covers %d of %d threads", len(asg), len(m.Threads()))
	}
	// The most memory-intensive threads must all sit on fast cores.
	topo := m.Topology()
	for _, ti := range inst.Threads {
		p := inst.Workload.Benchmarks[ti.Bench].Profile
		if p.Name == "jacobi" || p.Name == "needle" {
			if topo.Core(asg[ti.ID]).Kind != platform.FastCore {
				t.Errorf("memory thread %d (%s) assigned to a slow core", ti.ID, p.Name)
			}
		}
		if p.Name == "lavaMD" || p.Name == "leukocyte" {
			if topo.Core(asg[ti.ID]).Kind != platform.SlowCore {
				t.Errorf("compute thread %d (%s) assigned to a fast core", ti.ID, p.Name)
			}
		}
	}

	pol, err := NewStatic(m, asg)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "static" {
		t.Error("name wrong")
	}
	eng, err := sim.NewEngine(m, pol, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if m.MigrationCount() != 0 {
		t.Errorf("static policy migrated %d times", m.MigrationCount())
	}
}

func TestStaticRejectsPartialAssignment(t *testing.T) {
	m, _ := buildMachine(t, 1, 0.1)
	if _, err := NewStatic(m, map[platform.ThreadID]platform.CoreID{0: 0}); err == nil {
		t.Error("partial assignment accepted")
	}
}
