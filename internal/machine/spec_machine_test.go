package machine

import (
	"math"
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// specConfig wraps a MachineSpec in an otherwise-default Config.
func specConfig(spec *platform.MachineSpec) Config {
	cfg := DefaultConfig()
	cfg.Spec = spec
	return cfg
}

// twoSocketSpec builds two identical sockets, each with its own memory
// controller sized small enough that local contention is visible.
func twoSocketSpec() *platform.MachineSpec {
	spec := &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{{Name: "core", Speed: 2.33, SMTWays: 1}},
	}
	for s := 0; s < 2; s++ {
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			Cores: []platform.CoreGroup{{Type: "core", Physical: 3}},
			Mem:   platform.MemSpec{Capacity: 10, BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	return spec
}

// stepUntilFinished advances the machine until thread id completes.
func stepUntilFinished(t *testing.T, m *Machine, id platform.ThreadID, deadline sim.Time) sim.Time {
	t.Helper()
	now := sim.Time(0)
	for {
		if at, ok := m.Finished(id); ok {
			return at
		}
		if now >= deadline {
			t.Fatalf("thread %d did not finish by %v", id, deadline)
		}
		m.Step(now, 1)
		now++
	}
}

// TestPerSocketContentionIsolation: with one memory controller per
// socket, memory traffic on socket 1 must not inflate latency seen by a
// thread on socket 0 — while the same traffic through a shared
// controller must.
func TestPerSocketContentionIsolation(t *testing.T) {
	heavy := Demand{AccessesPerWork: 4, MissRatio: 0.3}
	probeTime := func(shared, loaded bool) sim.Time {
		spec := twoSocketSpec()
		if shared {
			spec.SharedMem = &platform.MemSpec{Capacity: 10, BaseLatency: 0.008, MaxUtil: 0.96}
			for i := range spec.Sockets {
				spec.Sockets[i].Mem = platform.MemSpec{}
			}
		}
		m, err := New(specConfig(spec))
		if err != nil {
			t.Fatal(err)
		}
		// Probe: a memory-sensitive thread alone on socket 0.
		place(t, m, 0, 0, 500, heavy, 0)
		if loaded {
			// Three memory hogs saturating socket 1's controller.
			for i := 1; i <= 3; i++ {
				place(t, m, platform.ThreadID(i), 1, 1e6, heavy, platform.CoreID(2+i))
			}
		}
		return stepUntilFinished(t, m, 0, 100000)
	}

	soloSplit := probeTime(false, false)
	loadedSplit := probeTime(false, true)
	if loadedSplit != soloSplit {
		t.Errorf("per-socket controllers: remote load changed probe runtime %v -> %v", soloSplit, loadedSplit)
	}
	soloShared := probeTime(true, false)
	loadedShared := probeTime(true, true)
	if float64(loadedShared) < 1.1*float64(soloShared) {
		t.Errorf("shared controller: probe runtime %v with load vs %v solo, want clear slowdown", loadedShared, soloShared)
	}
}

// TestDVFSSlowsCore: dropping a core to a lower frequency level scales
// its throughput by the level's multiplier.
func TestDVFSSlowsCore(t *testing.T) {
	spec := &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{
			{Name: "big", Speed: 2.0, SMTWays: 1, DVFS: []float64{1, 0.5}},
		},
		Sockets: []platform.SocketSpec{{
			Cores: []platform.CoreGroup{{Type: "big", Physical: 4}},
			Mem:   platform.MemSpec{Capacity: 100, BaseLatency: 0.008, MaxUtil: 0.96},
		}},
	}
	runAt := func(level int) sim.Time {
		m, err := New(specConfig(spec))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.KindDVFSLevels()[m.topo.Core(0).Kind]; got != 2 {
			t.Fatalf("DVFSLevels = %d, want 2", got)
		}
		if err := m.SetDVFS(0, level); err != nil {
			t.Fatal(err)
		}
		if got, want := m.coreMult[0], levelMult(m, 0, level); got != want {
			t.Fatalf("multiplier = %v, want level %d's %v", got, level, want)
		}
		place(t, m, 0, 0, 1000, Demand{}, 0)
		return stepUntilFinished(t, m, 0, 20000)
	}
	nominal := runAt(0)
	halved := runAt(1)
	ratio := float64(halved) / float64(nominal)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("level-1 runtime %v vs nominal %v (ratio %v), want ~2x", halved, nominal, ratio)
	}

	m, err := New(specConfig(spec))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDVFS(0, 5); err == nil {
		t.Error("SetDVFS accepted an out-of-range level")
	}
	if err := m.SetDVFS(99, 0); err == nil {
		t.Error("SetDVFS accepted an out-of-range core")
	}
}

// TestDistanceScalesMigrationPenalty: a migration across two hops pays a
// proportionally larger cold-cache and remote-latency penalty than one
// hop, so the migrated thread finishes later.
func TestDistanceScalesMigrationPenalty(t *testing.T) {
	spec := &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{{Name: "core", Speed: 2.33, SMTWays: 1}},
		Distance: [][]float64{
			{0, 1, 2},
			{1, 0, 1},
			{2, 1, 0},
		},
	}
	for s := 0; s < 3; s++ {
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			Cores: []platform.CoreGroup{{Type: "core", Physical: 2}},
			Mem:   platform.MemSpec{Capacity: 20, BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	// Cores 0-1 socket 0, 2-3 socket 1, 4-5 socket 2.
	migrated := func(to platform.CoreID) sim.Time {
		m, err := New(specConfig(spec))
		if err != nil {
			t.Fatal(err)
		}
		place(t, m, 0, 0, 2000, Demand{AccessesPerWork: 2, MissRatio: 0.2}, 0)
		now := sim.Time(0)
		for ; now < 100; now++ {
			m.Step(now, 1)
		}
		if err := m.Migrate(0, to, now); err != nil {
			t.Fatal(err)
		}
		for {
			if at, ok := m.Finished(0); ok {
				return at
			}
			if now > 100000 {
				t.Fatal("thread did not finish")
			}
			m.Step(now, 1)
			now++
		}
	}
	oneHop := migrated(2)  // socket 0 -> 1, distance 1
	twoHops := migrated(4) // socket 0 -> 2, distance 2
	if twoHops <= oneHop {
		t.Errorf("two-hop migration finished at %v, one-hop at %v; want two-hop strictly later", twoHops, oneHop)
	}
}

// TestNumMemDomains: the Table I machine and other shared-mem specs
// resolve to one controller domain; per-socket specs to one per socket.
func TestNumMemDomains(t *testing.T) {
	table1, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(table1.ctrls); got != 1 {
		t.Errorf("Table I machine has %d mem domains, want 1", got)
	}
	split, err := New(specConfig(twoSocketSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(split.ctrls); got != 2 {
		t.Errorf("two-socket spec has %d mem domains, want 2", got)
	}
	shared := twoSocketSpec()
	shared.SharedMem = &platform.MemSpec{Capacity: 20, BaseLatency: 0.008, MaxUtil: 0.96}
	sm, err := New(specConfig(shared))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sm.ctrls); got != 1 {
		t.Errorf("shared-mem spec has %d mem domains, want 1", got)
	}
}

// bigMachineSpec is the acceptance-criterion machine: 1024 logical
// cores over 4 sockets and 4 core types.
func bigMachineSpec() *platform.MachineSpec {
	spec := &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{
			{Name: "big", Speed: 2.6, SMTWays: 2, SMTPenalty: 0.75, DVFS: []float64{1, 0.8, 0.6}},
			{Name: "perf", Speed: 2.2, SMTWays: 2},
			{Name: "mid", Speed: 1.6, SMTWays: 2, SMTPenalty: 0.8},
			{Name: "little", Speed: 1.0, SMTWays: 1},
		},
		Distance: [][]float64{
			{0, 1, 2, 1},
			{1, 0, 1, 2},
			{2, 1, 0, 1},
			{1, 2, 1, 0},
		},
	}
	for s := 0; s < 4; s++ {
		spec.Sockets = append(spec.Sockets, platform.SocketSpec{
			// 16*2 + 32*2 + 32*2 + 96*1 = 256 logical per socket.
			Cores: []platform.CoreGroup{
				{Type: "big", Physical: 16}, {Type: "perf", Physical: 32},
				{Type: "mid", Physical: 32}, {Type: "little", Physical: 96},
			},
			Mem: platform.MemSpec{Capacity: 512, BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	return spec
}

// TestBigMachineDeterminism simulates the 1024-core, 4-socket,
// 4-core-type machine end to end twice and requires bit-identical
// results: same finish time for every thread, same utilisation.
func TestBigMachineDeterminism(t *testing.T) {
	if got := bigMachineSpec().TotalLogical(); got != 1024 {
		t.Fatalf("spec has %d logical cores, want 1024", got)
	}
	runOnce := func() (map[platform.ThreadID]sim.Time, float64) {
		m, err := New(specConfig(bigMachineSpec()))
		if err != nil {
			t.Fatal(err)
		}
		n := m.Topology().NumCores()
		// 128 threads spread deterministically across all sockets and
		// kinds, mixed compute and memory demand.
		for i := 0; i < 128; i++ {
			dem := Demand{}
			if i%3 == 0 {
				dem = Demand{AccessesPerWork: 3, MissRatio: 0.25}
			}
			place(t, m, platform.ThreadID(i), i/4, 500+float64(i%7)*100, dem, platform.CoreID((i*37)%n))
		}
		now := sim.Time(0)
		for !m.Done() {
			if now > 50000 {
				t.Fatal("big machine did not finish")
			}
			m.Step(now, 1)
			now++
		}
		finishes := map[platform.ThreadID]sim.Time{}
		for _, id := range m.Threads() {
			at, ok := m.Finished(id)
			if !ok {
				t.Fatalf("thread %d not finished after Done", id)
			}
			finishes[id] = at
		}
		return finishes, m.Utilization()
	}
	f1, u1 := runOnce()
	f2, u2 := runOnce()
	if u1 != u2 {
		t.Errorf("utilisation differs between runs: %v vs %v", u1, u2)
	}
	for id, at := range f1 {
		if f2[id] != at {
			t.Errorf("thread %d finished at %v in run 1, %v in run 2", id, at, f2[id])
		}
	}
}

// TestUtilizationNaN pins how each controller layout reports a NaN
// demand. A single domain reports its solve's utilisation as it is, so
// the NaN shows; with one controller per socket the hottest domain wins
// and NaN never does.
func TestUtilizationNaN(t *testing.T) {
	nan := Demand{AccessesPerWork: 10, MissRatio: math.NaN()}
	shared := testMachine(t)
	place(t, shared, 0, 0, 100, nan, 0)
	shared.Step(0, 1)
	if u := shared.Utilization(); !math.IsNaN(u) {
		t.Errorf("shared controller: utilisation %v, want NaN", u)
	}
	per, err := New(specConfig(twoSocketSpec()))
	if err != nil {
		t.Fatal(err)
	}
	place(t, per, 0, 0, 100, Demand{AccessesPerWork: 10, MissRatio: 0.2}, 0)
	place(t, per, 1, 0, 100, nan, 3)
	per.Step(0, 1)
	if u := per.Utilization(); !(u > 0) {
		t.Errorf("per-socket controllers: utilisation %v, want socket 0's, above 0", u)
	}
}
