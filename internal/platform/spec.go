package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// SpecError is a typed validation error for MachineSpec. Field names the
// offending part of the spec in dotted/indexed form (e.g.
// "sockets[2].cores[0].type") so callers can surface it precisely.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("platform: machine spec %s: %s", e.Field, e.Msg)
}

func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// CoreTypeSpec describes one core type in the machine's type table.
type CoreTypeSpec struct {
	// Name identifies the type ("fast", "p-core", ...). Unique within a spec.
	Name string `json:"name"`
	// Speed is work units per ms at full, un-shared throughput.
	Speed float64 `json:"speed"`
	// SMTWays is the number of logical lanes per physical core of this type.
	SMTWays int `json:"smt_ways"`
	// SMTPenalty is the per-lane throughput multiplier applied when more
	// than one lane of a physical core is busy. Zero means "use the
	// machine-wide default".
	SMTPenalty float64 `json:"smt_penalty,omitempty"`
	// DVFS lists the speed multipliers of the type's frequency levels,
	// level 0 first. Values are in (0, 1] and non-increasing; an empty
	// list means the type runs at nominal speed only.
	DVFS []float64 `json:"dvfs,omitempty"`
	// PowerStatic is the leakage power of one physical core of this type
	// in watts, burned whenever the machine is on regardless of load.
	// Zero means "derive from Speed" (DefaultPowerStatic · Speed).
	PowerStatic float64 `json:"power_static,omitempty"`
	// PowerPeak is the dynamic power of one physical core of this type in
	// watts at nominal frequency with one busy lane. It scales with the
	// cube of the DVFS multiplier (V ∝ f ⇒ C·V²·f ∝ f³) and with SMT
	// occupancy. Zero means "derive from Speed" (DefaultPowerPeak·Speed²).
	PowerPeak float64 `json:"power_peak,omitempty"`
}

// Default power-model coefficients used when a core type declares no
// explicit PowerStatic / PowerPeak: leakage grows linearly with design
// speed, dynamic power quadratically (wider cores burn disproportionate
// switching power even before the cubic DVFS term).
const (
	DefaultPowerStatic = 0.5 // watts per unit Speed
	DefaultPowerPeak   = 2.0 // watts per unit Speed²
)

// StaticPower returns the type's per-physical-core leakage watts,
// applying the Speed-derived default.
func (ct *CoreTypeSpec) StaticPower() float64 {
	if ct.PowerStatic > 0 {
		return ct.PowerStatic
	}
	return DefaultPowerStatic * ct.Speed
}

// PeakPower returns the type's per-physical-core dynamic watts at
// nominal frequency, applying the Speed-derived default.
func (ct *CoreTypeSpec) PeakPower() float64 {
	if ct.PowerPeak > 0 {
		return ct.PowerPeak
	}
	return DefaultPowerPeak * ct.Speed * ct.Speed
}

// CoreGroup places a run of physical cores of one type on a socket.
type CoreGroup struct {
	Type     string `json:"type"`     // name from the CoreTypes table
	Physical int    `json:"physical"` // number of physical cores
}

// MemSpec parameterises one memory controller.
type MemSpec struct {
	// Capacity is the controller's sustainable bandwidth in accesses/ms.
	Capacity float64 `json:"capacity"`
	// BaseLatency is the uncontended access latency in ms.
	BaseLatency float64 `json:"base_latency"`
	// MaxUtil caps the utilisation used by the M/M/1 latency curve.
	MaxUtil float64 `json:"max_util"`
}

// SocketSpec describes one socket: the physical cores it carries and,
// unless the spec declares a machine-wide SharedMem controller, the
// memory controller it owns.
type SocketSpec struct {
	Cores []CoreGroup `json:"cores"`
	Mem   MemSpec     `json:"mem,omitempty"`
}

// MachineSpec is the declarative machine model: a table of core types,
// a list of sockets with per-socket memory controllers, and a
// cross-socket distance matrix that scales remote-access latency and
// cold-migration penalties.
type MachineSpec struct {
	CoreTypes []CoreTypeSpec `json:"core_types"`
	Sockets   []SocketSpec   `json:"sockets"`
	// SharedMem, when set, gives the whole machine a single shared
	// memory controller and per-socket Mem fields are ignored. This is
	// how the Table I machine is expressed: two sockets, one controller.
	SharedMem *MemSpec `json:"shared_mem,omitempty"`
	// Distance is the socket-distance matrix (len(Sockets) ×
	// len(Sockets), zero diagonal, non-negative). Distance scales both
	// the remote-access latency factor and the cold-migration penalty.
	// Nil means 0 on the diagonal and 1 everywhere else.
	Distance [][]float64 `json:"distance,omitempty"`
}

// Every range check below negates the valid range, so NaN fails it
// too, and every unbounded range stops at the largest finite float.
const maxF = math.MaxFloat64

func (m MemSpec) validate(field string) error {
	switch {
	case !(m.Capacity > 0 && m.Capacity <= maxF):
		return specErrf(field+".capacity", "must be finite and > 0, got %g", m.Capacity)
	case !(m.BaseLatency > 0 && m.BaseLatency <= maxF):
		return specErrf(field+".base_latency", "must be finite and > 0, got %g", m.BaseLatency)
	case !(m.MaxUtil > 0 && m.MaxUtil < 1):
		return specErrf(field+".max_util", "must be in (0,1), got %g", m.MaxUtil)
	}
	return nil
}

// Validate reports the first problem with the spec as a *SpecError, or nil.
// A nil spec is invalid.
func (s *MachineSpec) Validate() error {
	if s == nil {
		return specErrf("spec", "required, got nil")
	}
	if len(s.CoreTypes) == 0 {
		return specErrf("core_types", "at least one core type required")
	}
	names := make(map[string]bool, len(s.CoreTypes))
	for i, ct := range s.CoreTypes {
		field := fmt.Sprintf("core_types[%d]", i)
		switch {
		case ct.Name == "":
			return specErrf(field+".name", "empty")
		case names[ct.Name]:
			return specErrf(field+".name", "duplicate type %q", ct.Name)
		case !(ct.Speed > 0 && ct.Speed <= maxF):
			return specErrf(field+".speed", "must be finite and > 0, got %g", ct.Speed)
		case ct.SMTWays < 1:
			return specErrf(field+".smt_ways", "must be >= 1, got %d", ct.SMTWays)
		case !(ct.SMTPenalty >= 0 && ct.SMTPenalty <= 1):
			return specErrf(field+".smt_penalty", "must be in (0,1] or 0 for default, got %g", ct.SMTPenalty)
		case !(ct.PowerStatic >= 0 && ct.PowerStatic <= maxF):
			return specErrf(field+".power_static", "must be finite and >= 0, got %g", ct.PowerStatic)
		case !(ct.PowerPeak >= 0 && ct.PowerPeak <= maxF):
			return specErrf(field+".power_peak", "must be finite and >= 0, got %g", ct.PowerPeak)
		}
		names[ct.Name] = true
		for l, v := range ct.DVFS {
			if !(v > 0 && v <= 1) {
				return specErrf(fmt.Sprintf("%s.dvfs[%d]", field, l), "must be in (0,1], got %g", v)
			}
			if l > 0 && v > ct.DVFS[l-1] {
				return specErrf(fmt.Sprintf("%s.dvfs[%d]", field, l), "levels must be non-increasing (%g > %g)", v, ct.DVFS[l-1])
			}
		}
	}
	if len(s.Sockets) == 0 {
		return specErrf("sockets", "at least one socket required")
	}
	for i, sock := range s.Sockets {
		field := fmt.Sprintf("sockets[%d]", i)
		if len(sock.Cores) == 0 {
			return specErrf(field+".cores", "socket has no cores")
		}
		for j, g := range sock.Cores {
			gf := fmt.Sprintf("%s.cores[%d]", field, j)
			if !names[g.Type] {
				return specErrf(gf+".type", "unknown core type %q", g.Type)
			}
			if g.Physical < 1 {
				return specErrf(gf+".physical", "must be >= 1, got %d", g.Physical)
			}
		}
		if s.SharedMem == nil {
			if err := sock.Mem.validate(field + ".mem"); err != nil {
				return err
			}
		}
	}
	if s.SharedMem != nil {
		if err := s.SharedMem.validate("shared_mem"); err != nil {
			return err
		}
	}
	if s.Distance != nil {
		n := len(s.Sockets)
		if len(s.Distance) != n {
			return specErrf("distance", "matrix must be %dx%d, got %d rows", n, n, len(s.Distance))
		}
		for i, row := range s.Distance {
			if len(row) != n {
				return specErrf(fmt.Sprintf("distance[%d]", i), "matrix must be %dx%d, row has %d entries", n, n, len(row))
			}
			for j, d := range row {
				if i == j && d != 0 {
					return specErrf(fmt.Sprintf("distance[%d][%d]", i, j), "diagonal must be 0, got %g", d)
				}
				if !(d >= 0 && d <= maxF) {
					return specErrf(fmt.Sprintf("distance[%d][%d]", i, j), "must be finite and >= 0, got %g", d)
				}
			}
		}
	}
	return nil
}

// TypeIndex returns the index of type name in the CoreTypes table, or -1.
func (s *MachineSpec) TypeIndex(name string) int {
	for i, ct := range s.CoreTypes {
		if ct.Name == name {
			return i
		}
	}
	return -1
}

// SocketDistance returns the distance between sockets a and b, applying
// the nil-matrix default (0 on the diagonal, 1 off it).
func (s *MachineSpec) SocketDistance(a, b int) float64 {
	if a == b {
		return 0
	}
	if s.Distance == nil {
		return 1
	}
	return s.Distance[a][b]
}

// TotalLogical returns the number of logical cores the spec describes.
func (s *MachineSpec) TotalLogical() int {
	n := 0
	for _, sock := range s.Sockets {
		for _, g := range sock.Cores {
			i := s.TypeIndex(g.Type)
			if i >= 0 {
				n += g.Physical * s.CoreTypes[i].SMTWays
			}
		}
	}
	return n
}

// ParseMachineSpec decodes and validates a MachineSpec from JSON. An
// unknown key is an error, so a typo'd field cannot silently run its
// default.
func ParseMachineSpec(data []byte) (*MachineSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s MachineSpec
	if err := dec.Decode(&s); err != nil {
		return nil, specErrf("json", "%v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, specErrf("json", "data after the JSON value")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
