package machine

import (
	"testing"

	"dike/internal/platform"
)

// defaultTopology lays out the Table I machine.
func defaultTopology(t *testing.T) *platform.Topology {
	t.Helper()
	topo, err := platform.BuildMachineTopology(DefaultConfig().Spec)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestBuildTopologyCounts(t *testing.T) {
	topo := defaultTopology(t)
	if topo.NumCores() != 40 {
		t.Fatalf("NumCores = %d, want 40", topo.NumCores())
	}
	if len(coresOf(topo, platform.FastCore)) != 20 || len(coresOf(topo, platform.SlowCore)) != 20 {
		t.Errorf("fast/slow split = %d/%d, want 20/20", len(coresOf(topo, platform.FastCore)), len(coresOf(topo, platform.SlowCore)))
	}
	if topo.NumSockets() != 2 || topo.NumKinds() != 2 {
		t.Errorf("%d sockets, %d kinds; want 2, 2", topo.NumSockets(), topo.NumKinds())
	}
}

func TestTopologyDenseIDs(t *testing.T) {
	topo := defaultTopology(t)
	for i, c := range topo.Cores() {
		if int(c.ID) != i {
			t.Fatalf("core %d has id %d", i, c.ID)
		}
	}
}

// TestTopologySiblings: each of the Table I machine's 20 physical cores
// has two SMT lanes of one kind.
func TestTopologySiblings(t *testing.T) {
	topo := defaultTopology(t)
	lanes := map[int][]platform.Core{}
	for _, c := range topo.Cores() {
		lanes[c.Physical] = append(lanes[c.Physical], c)
	}
	if len(lanes) != 20 {
		t.Fatalf("%d physical cores, want 20", len(lanes))
	}
	for phys, cs := range lanes {
		if len(cs) != 2 || cs[0].Kind != cs[1].Kind {
			t.Fatalf("physical core %d has lanes %+v, want two of one kind", phys, cs)
		}
	}
}

func TestTopologySpeeds(t *testing.T) {
	topo := defaultTopology(t)
	for _, id := range coresOf(topo, platform.FastCore) {
		if topo.Core(id).Speed != 2.33 {
			t.Fatalf("fast core speed = %v", topo.Core(id).Speed)
		}
	}
	for _, id := range coresOf(topo, platform.SlowCore) {
		if topo.Core(id).Speed != 1.21 {
			t.Fatalf("slow core speed = %v", topo.Core(id).Speed)
		}
	}
}

// TestTopologyValidation: New rejects a config whose spec cannot lay
// out a machine, a nil spec included, with an error rather than a panic.
func TestTopologyValidation(t *testing.T) {
	bad := []func(*platform.MachineSpec){
		func(s *platform.MachineSpec) { s.Sockets[0].Cores[0].Physical = -1 },
		func(s *platform.MachineSpec) { s.Sockets = nil },
		func(s *platform.MachineSpec) { s.CoreTypes[0].SMTWays = 0 },
		func(s *platform.MachineSpec) { s.CoreTypes[0].Speed = 0 },
		func(s *platform.MachineSpec) { s.Sockets[1].Cores[0].Type = "medium" },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(cfg.Spec)
		if _, err := New(cfg); err == nil {
			t.Errorf("spec %d accepted: %+v", i, cfg.Spec)
		}
	}
	cfg := DefaultConfig()
	cfg.Spec = nil
	if _, err := New(cfg); err == nil {
		t.Error("nil spec accepted")
	}
}

func TestTopologyCorePanicsOutOfRange(t *testing.T) {
	topo := defaultTopology(t)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Core did not panic")
		}
	}()
	topo.Core(platform.CoreID(100))
}

func TestCoreKindString(t *testing.T) {
	if platform.FastCore.String() != "fast" || platform.SlowCore.String() != "slow" {
		t.Error("CoreKind strings wrong")
	}
}
