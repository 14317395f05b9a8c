package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dike/internal/core"
	"dike/internal/fault"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/sim"
	"dike/internal/tournament"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// specKey is the canonical serialization Digest hashes: every RunSpec
// field that determines a run's result, and nothing else. Observers
// (TraceEvery, Record, OnProgress) are deliberately excluded — attaching
// them never changes what the simulation computes, so a traced run and
// an untraced run with the same inputs share a digest.
//
// Config fields are resolved the way Run resolves them before hashing,
// so "nil config" and "explicitly the default config" hash identically,
// and a DikeConfig on a non-Dike policy (which Run ignores) does not
// split the cache.
//
// Workload holds the value itself, not a pre-marshalled
// json.RawMessage: the encoder writes it in the same pass as the rest
// of the key, where a RawMessage would be marshalled once and then
// validated and compacted a second time. Both paths escape HTML the
// same way, so the bytes hashed are identical.
type specKey struct {
	Workload *workload.Workload
	Policy   string
	Dike     *core.Config `json:",omitempty"`
	Machine  machineKey
	Seed     uint64
	Scale    float64
	Step     sim.Time
	MaxTime  sim.Time
	Faults   *fault.Config `json:",omitempty"`
	// Traffic is appended last with omitempty so every pre-existing
	// (closed-loop) spec keeps a byte-identical canonical encoding — and
	// therefore its digest — exactly like machineKey.Spec before it.
	Traffic *traffic.Spec `json:",omitempty"`
	// Meta follows the same trailing-omitempty rule: set only for the
	// meta policy (in fully resolved form), so every fixed-policy spec
	// keeps its digest.
	Meta *tournament.Config `json:",omitempty"`
	// Power follows the same trailing-omitempty rule: set only for
	// governed runs (in resolved form), so every ungoverned spec keeps
	// its digest.
	Power *power.Config `json:",omitempty"`
}

// Digest returns a content address for the run the spec describes: a
// hex SHA-256 over the canonical serialization of all
// result-determining fields (workload including full profiles, policy,
// resolved scheduler/machine configuration, seed, scale, step, horizon,
// fault plan). Because every simulation is deterministic in these
// inputs, equal digests mean equal results — the property the serve
// layer's result cache and singleflight dedup rely on.
func (s RunSpec) Digest() (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	key := specKey{
		Workload: s.Workload,
		Policy:   s.Policy,
		Seed:     s.Seed,
		Scale:    s.Scale,
		Step:     s.Step,
		MaxTime:  s.MaxTime,
		Faults:   s.Faults,
		Traffic:  s.Traffic,
	}
	machineCfg := machine.DefaultConfig()
	if s.MachineConfig != nil {
		machineCfg = *s.MachineConfig
	}
	key.Machine = newMachineKey(machineCfg)
	// Resolve the policy and governor configurations exactly as Run
	// does.
	cfg, err := s.policyConfig()
	if err != nil {
		return "", err
	}
	switch c := cfg.(type) {
	case core.Config:
		key.Dike = &c
	case tournament.Config:
		key.Meta = &c
	}
	key.Power = s.governor()
	blob, err := json.Marshal(key)
	if err != nil {
		return "", fmt.Errorf("harness: digest spec: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// machineKey is the canonical encoding of a machine.Config. It keeps the
// field layout Config had while the Table I machine was described by
// separate fast/slow pool and memory fields, so every digest computed
// then stays valid:
//
//   - a spec in exactly the shape such a config lowers to is written as
//     those pool and memory fields, with Spec omitted;
//   - any other spec is written in full, next to the Table I values in
//     the pool and memory fields.
//
// TestMachineKeyCoversConfig keeps it in step with machine.Config.
type machineKey struct {
	Spec                *platform.MachineSpec `json:",omitempty"`
	Topology            poolLayout
	SMTPenalty          float64
	MemCapacity         float64
	MemBaseLatency      float64
	MemMaxUtil          float64
	Overlap             float64
	LLCHitLatency       float64
	MigrationStall      sim.Time
	ColdMissFactor      float64
	ColdHalfLife        float64
	LocalColdFactor     float64
	LocalColdHalfLife   float64
	RemoteLatencyFactor float64
}

// poolLayout is the fast/slow two-pool layout of the Table I machine.
type poolLayout struct {
	FastPhysical, SlowPhysical, SMTWays int
	FastSpeed, SlowSpeed                float64
}

func newMachineKey(c machine.Config) machineKey {
	k := machineKey{
		SMTPenalty:          c.SMTPenalty,
		Overlap:             c.Overlap,
		LLCHitLatency:       c.LLCHitLatency,
		MigrationStall:      c.MigrationStall,
		ColdMissFactor:      c.ColdMissFactor,
		ColdHalfLife:        c.ColdHalfLife,
		LocalColdFactor:     c.LocalColdFactor,
		LocalColdHalfLife:   c.LocalColdHalfLife,
		RemoteLatencyFactor: c.RemoteLatencyFactor,
	}
	if !k.setPools(c.Spec) {
		k.Spec = c.Spec
		k.setPools(machine.DefaultConfig().Spec)
	}
	return k
}

// setPools fills the pool and memory fields from s and reports whether s
// has exactly the two-pool shape: the fast/slow type pair with equal SMT
// ways and no per-type overrides, one shared memory controller, the
// default socket distances, and a fast-only socket followed by a
// slow-only one, either of which may be absent.
func (k *machineKey) setPools(s *platform.MachineSpec) bool {
	if len(s.CoreTypes) != 2 || s.SharedMem == nil || s.Distance != nil || len(s.Sockets) > 2 {
		return false
	}
	fast, slow := s.CoreTypes[0], s.CoreTypes[1]
	if fast.Name != "fast" || slow.Name != "slow" || fast.SMTWays != slow.SMTWays {
		return false
	}
	for _, ct := range s.CoreTypes {
		if ct.SMTPenalty != 0 || len(ct.DVFS) > 0 || ct.PowerStatic != 0 || ct.PowerPeak != 0 {
			return false
		}
	}
	var physical [2]int
	last := -1
	for _, sock := range s.Sockets {
		if len(sock.Cores) != 1 || sock.Mem != (platform.MemSpec{}) {
			return false
		}
		ti := s.TypeIndex(sock.Cores[0].Type)
		if ti <= last {
			return false
		}
		physical[ti], last = sock.Cores[0].Physical, ti
	}
	k.Topology = poolLayout{physical[0], physical[1], fast.SMTWays, fast.Speed, slow.Speed}
	k.MemCapacity, k.MemBaseLatency, k.MemMaxUtil = s.SharedMem.Capacity, s.SharedMem.BaseLatency, s.SharedMem.MaxUtil
	return true
}
