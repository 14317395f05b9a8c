package platform

import (
	"errors"
	"strings"
	"testing"
)

// validSpec returns a well-formed two-socket, two-type spec that the
// error-path tests mutate one field at a time.
func validSpec() *MachineSpec {
	return &MachineSpec{
		CoreTypes: []CoreTypeSpec{
			{Name: "fast", Speed: 2.33, SMTWays: 2, DVFS: []float64{1, 0.8}},
			{Name: "slow", Speed: 1.21, SMTWays: 2},
		},
		Sockets: []SocketSpec{
			{Cores: []CoreGroup{{Type: "fast", Physical: 4}}, Mem: MemSpec{Capacity: 16, BaseLatency: 0.008, MaxUtil: 0.96}},
			{Cores: []CoreGroup{{Type: "slow", Physical: 4}}, Mem: MemSpec{Capacity: 16, BaseLatency: 0.008, MaxUtil: 0.96}},
		},
		Distance: [][]float64{{0, 1}, {1, 0}},
	}
}

func TestValidSpecValidates(t *testing.T) {
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// TestSpecValidationErrors drives every validation rule and checks that
// each failure is a typed *SpecError whose Field points at the
// offending part of the spec — the contract `dikesim -machine` and the
// serve API rely on to surface precise messages.
func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*MachineSpec)
		field  string // expected SpecError.Field
		msg    string // substring of SpecError.Msg
	}{
		{"no core types", func(s *MachineSpec) { s.CoreTypes = nil }, "core_types", "at least one"},
		{"empty type name", func(s *MachineSpec) { s.CoreTypes[0].Name = "" }, "core_types[0].name", "empty"},
		{"duplicate type name", func(s *MachineSpec) { s.CoreTypes[1].Name = "fast" }, "core_types[1].name", "duplicate"},
		{"non-positive speed", func(s *MachineSpec) { s.CoreTypes[1].Speed = 0 }, "core_types[1].speed", "> 0"},
		{"zero smt ways", func(s *MachineSpec) { s.CoreTypes[0].SMTWays = 0 }, "core_types[0].smt_ways", ">= 1"},
		{"smt penalty above one", func(s *MachineSpec) { s.CoreTypes[0].SMTPenalty = 1.5 }, "core_types[0].smt_penalty", "(0,1]"},
		{"dvfs value above one", func(s *MachineSpec) { s.CoreTypes[0].DVFS = []float64{1.2} }, "core_types[0].dvfs[0]", "(0,1]"},
		{"dvfs increasing", func(s *MachineSpec) { s.CoreTypes[0].DVFS = []float64{0.7, 0.9} }, "core_types[0].dvfs[1]", "non-increasing"},
		{"zero sockets", func(s *MachineSpec) { s.Sockets = nil }, "sockets", "at least one socket"},
		{"socket without cores", func(s *MachineSpec) { s.Sockets[1].Cores = nil }, "sockets[1].cores", "no cores"},
		{"unknown core type", func(s *MachineSpec) { s.Sockets[0].Cores[0].Type = "gpu" }, "sockets[0].cores[0].type", `unknown core type "gpu"`},
		{"zero physical cores", func(s *MachineSpec) { s.Sockets[0].Cores[0].Physical = 0 }, "sockets[0].cores[0].physical", ">= 1"},
		{"mem zero capacity", func(s *MachineSpec) { s.Sockets[0].Mem.Capacity = 0 }, "sockets[0].mem.capacity", "> 0"},
		{"mem zero latency", func(s *MachineSpec) { s.Sockets[1].Mem.BaseLatency = 0 }, "sockets[1].mem.base_latency", "> 0"},
		{"mem util out of range", func(s *MachineSpec) { s.Sockets[0].Mem.MaxUtil = 1 }, "sockets[0].mem.max_util", "(0,1)"},
		{"shared mem invalid", func(s *MachineSpec) { s.SharedMem = &MemSpec{Capacity: -1, BaseLatency: 0.01, MaxUtil: 0.9} }, "shared_mem.capacity", "> 0"},
		{"distance wrong row count", func(s *MachineSpec) { s.Distance = [][]float64{{0, 1}} }, "distance", "2x2"},
		{"distance ragged row", func(s *MachineSpec) { s.Distance = [][]float64{{0, 1}, {1}} }, "distance[1]", "2x2"},
		{"distance nonzero diagonal", func(s *MachineSpec) { s.Distance[1][1] = 2 }, "distance[1][1]", "diagonal"},
		{"distance negative", func(s *MachineSpec) { s.Distance[0][1] = -1 }, "distance[0][1]", ">= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatal("Validate accepted a broken spec")
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *SpecError: %v", err, err)
			}
			if se.Field != tc.field {
				t.Errorf("Field = %q, want %q", se.Field, tc.field)
			}
			if !strings.Contains(se.Msg, tc.msg) {
				t.Errorf("Msg = %q, want substring %q", se.Msg, tc.msg)
			}
		})
	}
}

// TestSharedMemSkipsSocketControllers: with a machine-wide controller,
// per-socket Mem fields may be zero and the spec still validates — that
// is how the legacy single-controller machine is written.
func TestSharedMemSkipsSocketControllers(t *testing.T) {
	s := validSpec()
	s.Sockets[0].Mem = MemSpec{}
	s.Sockets[1].Mem = MemSpec{}
	s.SharedMem = &MemSpec{Capacity: 16, BaseLatency: 0.008, MaxUtil: 0.96}
	if err := s.Validate(); err != nil {
		t.Fatalf("shared-mem spec rejected: %v", err)
	}
}

// TestParseMachineSpec covers the JSON entry point used by
// `dikesim -machine` and the serve API: good input decodes and
// validates; malformed JSON and invalid specs both surface *SpecError.
func TestParseMachineSpec(t *testing.T) {
	good := `{
		"core_types": [
			{"name": "big", "speed": 2.6, "smt_ways": 2, "dvfs": [1, 0.8, 0.6]},
			{"name": "little", "speed": 1.0, "smt_ways": 1}
		],
		"sockets": [
			{"cores": [{"type": "big", "physical": 2}, {"type": "little", "physical": 4}],
			 "mem": {"capacity": 16, "base_latency": 0.008, "max_util": 0.96}}
		]
	}`
	s, err := ParseMachineSpec([]byte(good))
	if err != nil {
		t.Fatalf("ParseMachineSpec(good): %v", err)
	}
	if got := s.TotalLogical(); got != 8 {
		t.Errorf("TotalLogical = %d, want 8 (2x2-way big + 4x1-way little)", got)
	}

	bad := []struct {
		name, body, field string
	}{
		{"malformed json", `{"core_types": [`, "json"},
		{"unknown core type", `{"core_types":[{"name":"big","speed":2,"smt_ways":1}],
			"sockets":[{"cores":[{"type":"huge","physical":1}],
			"mem":{"capacity":1,"base_latency":0.01,"max_util":0.9}}]}`, "sockets[0].cores[0].type"},
		{"zero sockets", `{"core_types":[{"name":"big","speed":2,"smt_ways":1}],"sockets":[]}`, "sockets"},
		{"malformed distance", `{"core_types":[{"name":"big","speed":2,"smt_ways":1}],
			"sockets":[{"cores":[{"type":"big","physical":1}],
			"mem":{"capacity":1,"base_latency":0.01,"max_util":0.9}}],
			"distance":[[0,1],[1,0]]}`, "distance"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseMachineSpec([]byte(tc.body))
			if err == nil {
				t.Fatal("ParseMachineSpec accepted bad input")
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *SpecError: %v", err, err)
			}
			if se.Field != tc.field {
				t.Errorf("Field = %q, want %q", se.Field, tc.field)
			}
		})
	}
}

func TestSocketDistanceDefaults(t *testing.T) {
	s := validSpec()
	s.Distance = nil
	if d := s.SocketDistance(0, 0); d != 0 {
		t.Errorf("default diagonal distance = %v, want 0", d)
	}
	if d := s.SocketDistance(0, 1); d != 1 {
		t.Errorf("default off-diagonal distance = %v, want 1", d)
	}
	s.Distance = [][]float64{{0, 3}, {3, 0}}
	if d := s.SocketDistance(1, 0); d != 3 {
		t.Errorf("explicit distance = %v, want 3", d)
	}
}

// TestBuildMachineTopology checks the spec → topology lowering: dense
// ids, socket/kind assignment in declaration order, SMT lanes
// interleaved per physical core, and speed-ranked kinds.
func TestBuildMachineTopology(t *testing.T) {
	s := &MachineSpec{
		CoreTypes: []CoreTypeSpec{
			{Name: "little", Speed: 1.0, SMTWays: 1},
			{Name: "big", Speed: 2.6, SMTWays: 2},
		},
		Sockets: []SocketSpec{
			{Cores: []CoreGroup{{Type: "big", Physical: 2}}, Mem: MemSpec{Capacity: 8, BaseLatency: 0.01, MaxUtil: 0.9}},
			{Cores: []CoreGroup{{Type: "little", Physical: 3}}, Mem: MemSpec{Capacity: 8, BaseLatency: 0.01, MaxUtil: 0.9}},
		},
	}
	topo, err := BuildMachineTopology(s)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumCores() != 7 {
		t.Fatalf("NumCores = %d, want 7", topo.NumCores())
	}
	if topo.NumSockets() != 2 || topo.NumKinds() != 2 {
		t.Fatalf("sockets/kinds = %d/%d, want 2/2", topo.NumSockets(), topo.NumKinds())
	}
	for i := 0; i < 4; i++ { // two 2-way big physicals on socket 0
		c := topo.Core(CoreID(i))
		if c.Socket != 0 || topo.KindName(c.Kind) != "big" || c.Speed != 2.6 {
			t.Errorf("core %d = %+v, want big on socket 0 at 2.6", i, c)
		}
	}
	for i := 4; i < 7; i++ {
		c := topo.Core(CoreID(i))
		if c.Socket != 1 || topo.KindName(c.Kind) != "little" || c.Speed != 1.0 {
			t.Errorf("core %d = %+v, want little on socket 1 at 1.0", i, c)
		}
	}
	// SMT siblings share a physical core; the little cores have none.
	if sib := topo.Siblings(0); len(sib) != 2 {
		t.Errorf("big core 0 has %d lanes on its physical, want 2", len(sib))
	}
	if sib := topo.Siblings(4); len(sib) != 1 {
		t.Errorf("little core 4 has %d lanes on its physical, want 1", len(sib))
	}
	// KindsBySpeed ranks big (2.6) ahead of little (1.0) even though the
	// type table declares little first.
	ranked := topo.KindsBySpeed()
	if len(ranked) != 2 || topo.KindName(ranked[0]) != "big" || topo.KindName(ranked[1]) != "little" {
		t.Errorf("KindsBySpeed = %v, want [big little]", ranked)
	}
}
