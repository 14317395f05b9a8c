package platformtest

import (
	"bytes"
	"testing"

	"dike/internal/platform"
	"dike/internal/replay"
	"dike/internal/sim"
)

// populated builds a machine from cfg running n long-running threads,
// two per process.
func populated(t *testing.T, cfg Config, n int) *Machine {
	t.Helper()
	m := NewMachine(cfg)
	for i := 0; i < n; i++ {
		prog := ConstProgram{Work: 1e6, Demand: Demand{AccessesPerWork: 4, MissRatio: 0.2}}
		if err := m.AddThread(platform.ThreadID(i), i/2, prog); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// conformanceMachine builds the standard conformance population: six
// long-running threads in three processes (two threads each) on a
// 2 fast + 2 slow physical, 2-way SMT topology (8 logical cores).
func conformanceMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Spec.Sockets[0].Cores[0].Physical = 2
	cfg.Spec.Sockets[1].Cores[0].Physical = 2
	return populated(t, cfg, 6)
}

// onePoolMachine is the conformance population on a one-socket machine
// of 4 fast physical cores, the slow type declared but unpopulated — the
// shape of Fig 1's homogeneous machine.
func onePoolMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Spec.Sockets = cfg.Spec.Sockets[:1]
	cfg.Spec.Sockets[0].Cores[0].Physical = 4
	return populated(t, cfg, 6)
}

// TestMachineConformance holds the simulated machine to the platform
// contract.
func TestMachineConformance(t *testing.T) {
	m := conformanceMachine(t)
	Conformance(t, &Instance{P: m, Advance: m.Step})
}

// conformanceSpecMachine builds a topology-driven backend: four core
// types across four sockets (32 logical cores), per-socket memory
// controllers, a ring distance matrix, and a DVFS table on the big
// cores — populated with eight threads in four processes.
func conformanceSpecMachine(t *testing.T) *Machine {
	t.Helper()
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
			Cores: []platform.CoreGroup{
				{Type: "big", Physical: 1}, {Type: "perf", Physical: 1},
				{Type: "mid", Physical: 1}, {Type: "little", Physical: 2},
			},
			Mem: platform.MemSpec{Capacity: 16, BaseLatency: 0.008, MaxUtil: 0.96},
		})
	}
	cfg := DefaultConfig()
	cfg.Spec = spec
	return populated(t, cfg, 8)
}

// TestSpecMachineConformance holds a multi-socket, four-core-type
// machine to the same contract as the legacy pair.
func TestSpecMachineConformance(t *testing.T) {
	m := conformanceSpecMachine(t)
	Conformance(t, &Instance{P: m, Advance: m.Step})
}

// TestSpecReplayConformance records the conformance script against
// machines of other shapes and replays it: the topology — sockets, kind
// names, per-type speeds — must round-trip through the log and the
// player must verify the identical call stream.
func TestSpecReplayConformance(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*testing.T) *Machine
	}{
		{"four-socket", conformanceSpecMachine},
		{"one-pool", onePoolMachine},
	} {
		t.Run(tc.name, func(t *testing.T) { replayConformance(t, tc.build(t)) })
	}
}

// TestReplayConformance holds the record/replay backend to the same
// contract: the conformance script is recorded against a machine, then
// run a second time against a player of that recording. The player
// must both satisfy every assertion the machine did and verify that the
// second pass issues the identical call stream.
func TestReplayConformance(t *testing.T) {
	replayConformance(t, conformanceMachine(t))
}

// replayConformance records the conformance script against m, checks
// that the player rebuilds m's topology exactly, and runs the script
// again against the player.
func replayConformance(t *testing.T, m *Machine) {
	t.Helper()
	var buf bytes.Buffer
	rec := replay.NewRecorder(m, &buf)
	if err := rec.Start(replay.Meta{Policy: "conformance", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	Conformance(t, &Instance{
		P:        rec,
		Advance:  m.Step,
		Boundary: func(now sim.Time) { _ = rec.Quantum(now) },
	})
	if t.Failed() {
		t.Fatal("machine leg failed; replay leg would be meaningless")
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	p, err := replay.NewPlayer(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The replayed topology must match the live one exactly.
	live, played := m.Topology(), p.Topology()
	if played.NumCores() != live.NumCores() || played.NumSockets() != live.NumSockets() || played.NumKinds() != live.NumKinds() {
		t.Fatalf("replayed topology %d cores/%d sockets/%d kinds, live %d/%d/%d",
			played.NumCores(), played.NumSockets(), played.NumKinds(),
			live.NumCores(), live.NumSockets(), live.NumKinds())
	}
	for _, c := range live.Cores() {
		r := played.Core(c.ID)
		if r != c {
			t.Errorf("replayed core %d = %+v, live %+v", c.ID, r, c)
		}
	}
	for k := 0; k < live.NumKinds(); k++ {
		if played.KindName(platform.CoreKind(k)) != live.KindName(platform.CoreKind(k)) {
			t.Errorf("replayed kind %d named %q, live %q", k, played.KindName(platform.CoreKind(k)), live.KindName(platform.CoreKind(k)))
		}
	}
	Conformance(t, &Instance{
		P: p,
		Boundary: func(now sim.Time) {
			got, ok, err := p.NextQuantum()
			if err != nil {
				t.Fatalf("NextQuantum at %v: %v", now, err)
			}
			if !ok || got != now {
				t.Fatalf("NextQuantum = (%v, %v), want (%v, true)", got, ok, now)
			}
		},
	})
	if err := p.Err(); err != nil {
		t.Fatalf("replay diverged: %v", err)
	}
}
