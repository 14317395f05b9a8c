package core

import (
	"testing"

	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
)

// twoClassMachine builds a machine with one memory-intensive process (8
// threads) and one compute-intensive process (8 threads), spread half on
// fast and half on slow cores.
func twoClassMachine(t *testing.T) *platformtest.Machine {
	t.Helper()
	m := platformtest.NewMachine(platformtest.DefaultConfig())
	mem := platformtest.Demand{AccessesPerWork: 10, MissRatio: 0.5}
	comp := platformtest.Demand{AccessesPerWork: 3, MissRatio: 0.03}
	fast := platformtest.CoresOfKind(m.Topology(), platform.FastCore)
	slow := platformtest.CoresOfKind(m.Topology(), platform.SlowCore)
	for i := 0; i < 8; i++ {
		if err := m.AddThread(platform.ThreadID(i), 0, platformtest.ConstProgram{Work: 1e6, Demand: mem}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 8; i < 16; i++ {
		if err := m.AddThread(platform.ThreadID(i), 1, platformtest.ConstProgram{Work: 1e6, Demand: comp}); err != nil {
			t.Fatal(err)
		}
	}
	// Half of each process on each core kind, one thread per physical
	// core to keep SMT out of the picture.
	for i := 0; i < 4; i++ {
		m.Place(platform.ThreadID(i), fast[i*2])
		m.Place(platform.ThreadID(i+4), slow[i*2])
		m.Place(platform.ThreadID(i+8), fast[8+i*2])
		m.Place(platform.ThreadID(i+12), slow[8+i*2])
	}
	return m
}

func observeAfter(t *testing.T, m *platformtest.Machine, o *Observer, from, to sim.Time) *Observation {
	t.Helper()
	for now := from; now < to; now++ {
		m.Step(now, 1)
	}
	return mustObserve(t, o, to)
}

func mustObserve(t *testing.T, o *Observer, now sim.Time) *Observation {
	t.Helper()
	obs, err := o.Observe(now)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func TestObserverClassification(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	mustObserve(t, o, 0)
	obs := observeAfter(t, m, o, 0, 500)
	for i := 0; i < 8; i++ {
		if obs.Class[obs.Index(platform.ThreadID(i))] != MemoryClass {
			t.Errorf("thread %d classified %v, want M", i, obs.Class[obs.Index(platform.ThreadID(i))])
		}
	}
	for i := 8; i < 16; i++ {
		if obs.Class[obs.Index(platform.ThreadID(i))] != ComputeClass {
			t.Errorf("thread %d classified %v, want C", i, obs.Class[obs.Index(platform.ThreadID(i))])
		}
	}
	if m := obs.MemoryThreads(); m != 8 || len(obs.Alive)-m != 8 {
		t.Errorf("counts = %d M / %d C", m, len(obs.Alive)-m)
	}
}

func TestObserverCapabilityIdentifiesFastCores(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	mustObserve(t, o, 0)
	var obs *Observation
	last := sim.Time(0)
	for q := 1; q <= 6; q++ {
		obs = observeAfter(t, m, o, last, sim.Time(q*500))
		last = sim.Time(q * 500)
	}
	topo := m.Topology()
	// Every occupied fast core must estimate a higher capability than
	// every occupied slow core.
	minFast, maxSlow := 1e9, -1e9
	for _, c := range obs.CoreOf {
		cap := obs.Capability[c]
		if topo.Core(c).Kind == platform.FastCore {
			if cap < minFast {
				minFast = cap
			}
		} else if cap > maxSlow {
			maxSlow = cap
		}
	}
	if minFast <= maxSlow {
		t.Errorf("capability overlap: min fast %v <= max slow %v", minFast, maxSlow)
	}
	// And the HighBW partition therefore marks exactly the fast cores.
	for _, c := range obs.CoreOf {
		isFast := topo.Core(c).Kind == platform.FastCore
		if obs.HighBW[c] != isFast {
			t.Errorf("core %d highBW=%v, kind=%v", c, obs.HighBW[c], topo.Core(c).Kind)
		}
	}
}

func TestObserverBaselinePerProcess(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	mustObserve(t, o, 0)
	obs := observeAfter(t, m, o, 0, 500)
	// All threads of one process share a baseline.
	b0 := obs.Baseline[obs.Index(0)]
	for i := 1; i < 8; i++ {
		if obs.Baseline[obs.Index(platform.ThreadID(i))] != b0 {
			t.Error("process baselines differ across siblings")
		}
	}
	// Memory baseline far above compute baseline.
	if obs.Baseline[obs.Index(0)] < 5*obs.Baseline[obs.Index(8)] {
		t.Errorf("baselines not separated: %v vs %v", obs.Baseline[obs.Index(0)], obs.Baseline[obs.Index(8)])
	}
}

func TestObserverFairnessGate(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	mustObserve(t, o, 0)
	obs := observeAfter(t, m, o, 0, 500)
	// Threads of each process straddle fast/slow cores: rates within a
	// process differ, so the gate must read unfair.
	if obs.Fairness < 0.1 {
		t.Errorf("gate = %v, want unfair (>0.1)", obs.Fairness)
	}
	// Instr is cumulative and positive.
	for i, id := range obs.Alive {
		if obs.Instr[i] <= 0 {
			t.Errorf("thread %d instr = %v", id, obs.Instr[i])
		}
	}
}

func TestObserverFirstSampleInert(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	obs := mustObserve(t, o, 0)
	if obs.Sample.Interval != 0 {
		t.Error("first sample has a nonzero interval")
	}
	for c := range obs.Capability {
		if obs.Capability[c] != 1 {
			t.Error("capability moved before any measurement")
		}
	}
}

func TestObserverStalledThreadKeepsClass(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	mustObserve(t, o, 0)
	obs := observeAfter(t, m, o, 0, 500)
	if obs.Class[obs.Index(0)] != MemoryClass {
		t.Fatal("setup: thread 0 should be M")
	}
	// Freeze thread 0 with a long migration stall, then observe over a
	// window where it issues nothing: classification must persist.
	dest := platformtest.CoresOfKind(m.Topology(), platform.SlowCore)[9]
	if err := m.Migrate(0, dest, 500); err != nil {
		t.Fatal(err)
	}
	// Observe a window shorter than the stall.
	m.Step(500, 1)
	obs = mustObserve(t, o, 502)
	if obs.Class[obs.Index(0)] != MemoryClass {
		t.Error("stalled thread lost its classification")
	}
}

func TestObserverGetters(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, false)
	// Before any sample: capability neutral 1.
	first := mustObserve(t, o, 0)
	if first.Capability[0] != 1 {
		t.Errorf("Capability before samples = %v", first.Capability[0])
	}
	obs := observeAfter(t, m, o, 0, 500)
	core, _ := m.CoreOf(0)
	if obs.Capability[core] <= 0 {
		t.Errorf("Capability after samples = %v", obs.Capability[core])
	}
}

func TestObserverIPCMetric(t *testing.T) {
	m := twoClassMachine(t)
	o := newObserver(m, 0.25, 0.10, true)
	mustObserve(t, o, 0)
	obs := observeAfter(t, m, o, 0, 500)
	// Under IPC, compute threads score HIGHER than memory threads — the
	// inversion the paper warns about.
	if obs.Rate[obs.Index(8)] <= obs.Rate[obs.Index(0)] {
		t.Errorf("IPC metric: compute %v not above memory %v", obs.Rate[obs.Index(8)], obs.Rate[obs.Index(0)])
	}
	// Classification is metric-independent (still miss-ratio based).
	if obs.Class[obs.Index(0)] != MemoryClass || obs.Class[obs.Index(8)] != ComputeClass {
		t.Error("classification changed under IPC metric")
	}
}
