package platform

import (
	"errors"
	"fmt"
	"sort"
)

// CoreID identifies a logical core (an SMT lane).
type CoreID int

// ThreadID identifies a thread.
type ThreadID int

// CoreKind is an index into the machine's core-type table. The Table I
// machine's two types are FastCore and SlowCore; a MachineSpec may
// define any number of types.
type CoreKind int

const (
	// FastCore is a core in the TurboBoost socket (paper: 2.33 GHz pool).
	FastCore CoreKind = iota
	// SlowCore is a core in the frequency-capped socket (paper: 1.21 GHz pool).
	SlowCore
)

// String returns the default name for the kind: "fast", "slow", or
// "type<N>" for indexes beyond the legacy pair. Topologies built from a
// MachineSpec carry their own names; see Topology.KindName.
func (k CoreKind) String() string {
	switch k {
	case FastCore:
		return "fast"
	case SlowCore:
		return "slow"
	default:
		return fmt.Sprintf("type%d", int(k))
	}
}

// Core describes one logical core.
type Core struct {
	ID       CoreID
	Kind     CoreKind
	Speed    float64 // work units per ms at full, un-shared throughput
	Physical int     // physical core index; SMT siblings share it
	Socket   int     // socket (NUMA domain) the core belongs to
}

// Topology is the set of logical cores of a platform — the part of the
// system a userspace scheduler can read from sysfs/cpuinfo: core ids,
// their kind, relative speed and socket, and which logical cores share
// a physical core.
type Topology struct {
	cores []Core
	// kindNames[k] names core type k; len(kindNames) is the number of
	// kinds the topology declares.
	kindNames  []string
	numSockets int
}

// BuildMachineTopology lays out logical cores from a validated
// MachineSpec: sockets in declaration order, core groups in order within
// each socket, SMT lanes interleaved per physical core. Logical core ids
// are dense in [0, TotalLogical).
func BuildMachineTopology(spec *MachineSpec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{numSockets: len(spec.Sockets)}
	for _, ct := range spec.CoreTypes {
		t.kindNames = append(t.kindNames, ct.Name)
	}
	id := CoreID(0)
	phys := 0
	for si, sock := range spec.Sockets {
		for _, g := range sock.Cores {
			ti := spec.TypeIndex(g.Type)
			ct := spec.CoreTypes[ti]
			for i := 0; i < g.Physical; i++ {
				for w := 0; w < ct.SMTWays; w++ {
					c := Core{ID: id, Kind: CoreKind(ti), Speed: ct.Speed, Physical: phys, Socket: si}
					t.cores = append(t.cores, c)
					id++
				}
				phys++
			}
		}
	}
	return t, nil
}

// NewTopologyNamed reconstructs a Topology from an explicit core list
// and kind-name table. A nil or short names slice is padded with the
// kinds' default names.
func NewTopologyNamed(cores []Core, names []string) (*Topology, error) {
	if len(cores) == 0 {
		return nil, errors.New("platform: no cores")
	}
	t := &Topology{}
	maxKind := CoreKind(0)
	for i, c := range cores {
		if int(c.ID) != i {
			return nil, fmt.Errorf("platform: core id %d at index %d (ids must be dense)", c.ID, i)
		}
		if c.Speed <= 0 {
			return nil, fmt.Errorf("platform: core %d has non-positive speed", c.ID)
		}
		if c.Kind < 0 {
			return nil, fmt.Errorf("platform: core %d has negative kind", c.ID)
		}
		if c.Socket < 0 {
			return nil, fmt.Errorf("platform: core %d has negative socket", c.ID)
		}
		if c.Kind > maxKind {
			maxKind = c.Kind
		}
		if c.Socket >= t.numSockets {
			t.numSockets = c.Socket + 1
		}
		t.cores = append(t.cores, c)
	}
	nKinds := int(maxKind) + 1
	if nKinds < 2 {
		nKinds = 2 // legacy recordings always declare the fast/slow pair
	}
	if len(names) > nKinds {
		nKinds = len(names)
	}
	t.kindNames = make([]string, nKinds)
	for k := range t.kindNames {
		if k < len(names) && names[k] != "" {
			t.kindNames[k] = names[k]
		} else {
			t.kindNames[k] = CoreKind(k).String()
		}
	}
	if t.numSockets < 1 {
		t.numSockets = 1
	}
	return t, nil
}

// NumCores returns the number of logical cores.
func (t *Topology) NumCores() int { return len(t.cores) }

// Core returns the descriptor for logical core id. It panics on an
// out-of-range id.
func (t *Topology) Core(id CoreID) Core {
	if int(id) < 0 || int(id) >= len(t.cores) {
		panic(fmt.Sprintf("platform: core %d out of range [0,%d)", id, len(t.cores)))
	}
	return t.cores[id]
}

// Cores returns all logical cores in id order (shared slice; do not mutate).
func (t *Topology) Cores() []Core { return t.cores }

// NumKinds returns the number of core types the topology declares.
func (t *Topology) NumKinds() int { return len(t.kindNames) }

// KindName returns the name of core type k (default name if out of range).
func (t *Topology) KindName(k CoreKind) string {
	if int(k) >= 0 && int(k) < len(t.kindNames) {
		return t.kindNames[k]
	}
	return k.String()
}

// KindNames returns the kind-name table (shared slice; do not mutate).
func (t *Topology) KindNames() []string { return t.kindNames }

// NumSockets returns the number of sockets the topology spans.
func (t *Topology) NumSockets() int { return t.numSockets }

// SocketOf returns the socket of logical core id.
func (t *Topology) SocketOf(id CoreID) int { return t.Core(id).Socket }

// KindsBySpeed returns the kinds that have at least one core, ordered
// fastest first (ties broken by kind index). This is how policies rank
// N core types instead of branching on fast-vs-slow.
func (t *Topology) KindsBySpeed() []CoreKind {
	speed := make(map[CoreKind]float64)
	var kinds []CoreKind
	for _, c := range t.cores {
		if _, ok := speed[c.Kind]; !ok {
			speed[c.Kind] = c.Speed
			kinds = append(kinds, c.Kind)
		}
	}
	sort.SliceStable(kinds, func(i, j int) bool {
		if speed[kinds[i]] != speed[kinds[j]] {
			return speed[kinds[i]] > speed[kinds[j]]
		}
		return kinds[i] < kinds[j]
	})
	return kinds
}
