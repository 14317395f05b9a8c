package sched

import (
	"context"
	"testing"

	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
	"dike/internal/workload"
)

// buildMachine returns a machine loaded with WL1 at a small scale.
func buildMachine(t *testing.T, wlN int, scale float64) (*platformtest.Machine, *workload.Instance) {
	t.Helper()
	m := platformtest.NewMachine(platformtest.DefaultConfig())
	inst, err := workload.MustTable2(wlN).Build(m, workload.BuildOptions{Seed: 42, Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	return m, inst
}

func TestSpreadPlacementOneThreadPerCore(t *testing.T) {
	m, _ := buildMachine(t, 1, 0.1)
	if err := SpreadPlacement(m, 42); err != nil {
		t.Fatal(err)
	}
	seen := make(map[platform.CoreID]int)
	for _, id := range m.Threads() {
		c, err := m.CoreOf(id)
		if err != nil {
			t.Fatal(err)
		}
		seen[c]++
	}
	// 40 threads on 40 logical cores: exactly one each.
	if len(seen) != 40 {
		t.Fatalf("threads landed on %d cores, want 40", len(seen))
	}
	for c, n := range seen {
		if n != 1 {
			t.Errorf("core %d has %d threads", c, n)
		}
	}
}

func TestSpreadPlacementMixesBenchmarks(t *testing.T) {
	m, inst := buildMachine(t, 1, 0.1)
	if err := SpreadPlacement(m, 42); err != nil {
		t.Fatal(err)
	}
	// Each benchmark's 8 threads should hit both core kinds with high
	// probability under a shuffled placement: check jacobi (bench 0).
	topo := m.Topology()
	kinds := map[platform.CoreKind]int{}
	for _, id := range inst.ThreadsOf(0) {
		c, _ := m.CoreOf(id)
		kinds[topo.Core(c).Kind]++
	}
	if len(kinds) < 2 {
		t.Errorf("jacobi landed on a single core kind: %v (unlucky seed?)", kinds)
	}
}

func TestSpreadPlacementDeterministic(t *testing.T) {
	m1, _ := buildMachine(t, 1, 0.1)
	m2, _ := buildMachine(t, 1, 0.1)
	if err := SpreadPlacement(m1, 7); err != nil {
		t.Fatal(err)
	}
	if err := SpreadPlacement(m2, 7); err != nil {
		t.Fatal(err)
	}
	p1 := platformtest.Placement(m1)
	p2 := platformtest.Placement(m2)
	for id, c := range p1 {
		if p2[id] != c {
			t.Fatalf("placement diverged at thread %d", id)
		}
	}
}

func TestSpreadPlacementWrapsWhenOversubscribed(t *testing.T) {
	cfg := platformtest.DefaultConfig()
	cfg.Spec.Sockets[0].Cores[0].Physical = 1
	cfg.Spec.Sockets[1].Cores[0].Physical = 1
	m := platformtest.NewMachine(cfg) // 4 logical cores
	for i := 0; i < 10; i++ {
		if err := m.AddThread(platform.ThreadID(i), 0, platformtest.ConstProgram{Work: 10}); err != nil {
			t.Fatal(err)
		}
	}
	if err := SpreadPlacement(m, 1); err != nil {
		t.Fatal(err)
	}
	for _, id := range m.Threads() {
		if _, err := m.CoreOf(id); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCFSPlacesOnceAndOnlyOnce(t *testing.T) {
	m, _ := buildMachine(t, 1, 0.1)
	cfs := NewCFS(m, 42)
	if cfs.Name() != "cfs" {
		t.Error("name wrong")
	}
	if cfs.QuantaLength() <= 0 {
		t.Error("quanta not positive")
	}
	cfs.Quantum(0)
	before := platformtest.Placement(m)
	m.Step(0, 1)
	cfs.Quantum(1000)
	after := platformtest.Placement(m)
	for id := range before {
		if before[id] != after[id] {
			t.Fatal("CFS moved a thread after initial placement")
		}
	}
	if m.MigrationCount() != 0 {
		t.Error("CFS migrated threads")
	}
}

func TestSamplerDeltas(t *testing.T) {
	m, _ := buildMachine(t, 1, 0.1)
	if err := SpreadPlacement(m, 42); err != nil {
		t.Fatal(err)
	}
	first := m.Sample(0)
	if first.Interval != 0 {
		t.Errorf("first sample interval = %v, want 0", first.Interval)
	}
	for now := sim.Time(0); now < 100; now++ {
		m.Step(now, 1)
	}
	snd := m.Sample(100)
	if snd.Interval != 100 {
		t.Errorf("second interval = %v, want 100", snd.Interval)
	}
	// Every alive thread has a delta with positive work.
	for _, id := range m.Alive() {
		d := snd.Threads[id]
		if d.Work <= 0 {
			t.Errorf("thread %d delta work = %v", id, d.Work)
		}
		if d.Instructions <= 0 {
			t.Errorf("thread %d delta instructions = %v", id, d.Instructions)
		}
	}
	// Core deltas sum to thread miss deltas.
	coreSum, threadSum := 0.0, 0.0
	for c := range snd.Cores {
		coreSum += snd.Cores[c].ServedMisses
	}
	for _, d := range snd.Threads {
		threadSum += d.Misses
	}
	if diff := coreSum - threadSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("core misses %v != thread misses %v", coreSum, threadSum)
	}
	// AccessRate helper.
	id := m.Alive()[0]
	if snd.AccessRate(id) != snd.Threads[id].AccessRate() {
		t.Error("AccessRate helper mismatch")
	}
}

func TestDIOSwapsExtremePair(t *testing.T) {
	m, _ := buildMachine(t, 1, 0.1)
	d := NewDIO(m, 42)
	if d.Name() != "dio" {
		t.Error("name wrong")
	}
	if d.QuantaLength() != DIOQuantum {
		t.Errorf("quanta = %v", d.QuantaLength())
	}
	d.Quantum(0) // placement + baseline
	if m.SwapCount() != 0 {
		t.Error("DIO swapped on the placement quantum")
	}
	for now := sim.Time(0); now < 100; now++ {
		m.Step(now, 1)
	}
	d.Quantum(100)
	if m.SwapCount() != 1 {
		t.Fatalf("swaps after first real quantum = %d, want 1", m.SwapCount())
	}
	for now := sim.Time(100); now < 200; now++ {
		m.Step(now, 1)
	}
	d.Quantum(200)
	if m.SwapCount() != 2 {
		t.Fatalf("swaps = %d, want 2", m.SwapCount())
	}
}

func TestDIOFullRun(t *testing.T) {
	m, inst := buildMachine(t, 1, 0.15)
	d := NewDIO(m, 42)
	eng, err := sim.NewEngine(m, d, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Roughly one swap per quantum.
	if m.SwapCount() == 0 {
		t.Error("DIO performed no swaps")
	}
	_ = inst
}
