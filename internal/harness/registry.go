package harness

import (
	"encoding/json"
	"fmt"

	"dike/internal/core"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/replay"
	"dike/internal/sched"
	"dike/internal/sim"
	"dike/internal/tournament"
)

// PolicyInfo describes one registered scheduling policy.
type PolicyInfo struct {
	// Name is the RunSpec.Policy value.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// MetaCandidate reports whether the meta scheduler can audition the
	// policy in a shadow tournament. The oracle cannot (it needs ground
	// truth only available at build time) and meta itself cannot (no
	// recursive tournaments).
	MetaCandidate bool
}

// policyEntry is one registered policy: its listing and the only code
// that constructs it. Run, Replay and the meta scheduler's candidates
// all build through New, so a replayed run or a tournament candidate is
// the same policy as the live run it stands for.
type policyEntry struct {
	PolicyInfo
	// config resolves a live spec's policy configuration: the value Digest
	// hashes and a recording carries as its policyConfig. Nil when the
	// policy has none beyond the seed.
	config func(RunSpec) (any, error)
	// New builds the policy over p from a resolved replay header. An
	// empty PolicyConfig resolves as a live spec without an override does.
	New func(p platform.Platform, m replay.Meta) (sim.Policy, error)
}

// policyRegistry is the authoritative policy list, in presentation
// order. Validate, Run, Replay, the meta tournament's candidates and
// `dikesim -list-policies` all derive from it. It is filled in init
// because the meta entry looks its candidates up in the registry.
var policyRegistry []policyEntry

func init() {
	policyRegistry = []policyEntry{
		seeded(PolicyCFS, "CFS-like: spread threads once, never migrate", sched.NewCFS),
		seeded(PolicyDIO, "DIO: swap the extreme access-rate pair every 100 ms", sched.NewDIO),
		dikeVariant(PolicyDike, "the paper's predictive scheduler, fixed <8,500>", core.AdaptNone),
		dikeVariant(PolicyDikeAF, "Dike with fairness-adaptive parameter tuning", core.AdaptFairness),
		dikeVariant(PolicyDikeAP, "Dike with performance-adaptive parameter tuning", core.AdaptPerformance),
		dikeVariant(PolicyDikeEA, "Dike with energy-aware tuning: fairness × watts guard, longer quanta when fair", core.AdaptEnergy),
		seeded(PolicyNull, "unscheduled baseline: runs cfs's code, so threads spread once and never move", sched.NewCFS),
		seeded(PolicyRotate, "rotate every thread one core per quantum", sched.NewRotate),
		{PolicyInfo: PolicyInfo{PolicyOracle, "static placement from offline ground truth", false}, New: newOracle},
		{
			PolicyInfo: PolicyInfo{PolicyMeta, "competitive meta-scheduler: shadow tournaments pick the live policy", false},
			config:     func(s RunSpec) (any, error) { return resolveMetaConfig(s.Meta) },
			New:        newMeta,
		},
	}
}

// Policies returns the registered policies in presentation order.
func Policies() []PolicyInfo {
	out := make([]PolicyInfo, len(policyRegistry))
	for i, e := range policyRegistry {
		out[i] = e.PolicyInfo
	}
	return out
}

// lookupPolicy returns the registry entry named name.
func lookupPolicy(name string) (*policyEntry, bool) {
	for i := range policyRegistry {
		if policyRegistry[i].Name == name {
			return &policyRegistry[i], true
		}
	}
	return nil, false
}

// seeded registers a policy whose only parameter is its seed.
func seeded[P sim.Policy](name, desc string, newP func(platform.Platform, uint64) P) policyEntry {
	return policyEntry{
		PolicyInfo: PolicyInfo{name, desc, true},
		New: func(p platform.Platform, m replay.Meta) (sim.Policy, error) {
			return newP(p, m.Seed), nil
		},
	}
}

// dikeVariant registers the Dike variant adapting for goal. A spec's
// DikeConfig overrides the defaults, but the goal always matches the
// policy name and the placement seed is the run's seed.
func dikeVariant(name, desc string, goal core.AdaptationGoal) policyEntry {
	resolve := func(override *core.Config, seed uint64) core.Config {
		cfg := core.DefaultConfig()
		if override != nil {
			cfg = *override
		}
		cfg.Goal, cfg.PlacementSeed = goal, seed
		return cfg
	}
	return policyEntry{
		PolicyInfo: PolicyInfo{name, desc, true},
		config:     func(s RunSpec) (any, error) { return resolve(s.DikeConfig, s.Seed), nil },
		New: func(p platform.Platform, m replay.Meta) (sim.Policy, error) {
			cfg := resolve(nil, m.Seed)
			if len(m.PolicyConfig) > 0 {
				cfg = core.Config{}
				if err := json.Unmarshal(m.PolicyConfig, &cfg); err != nil {
					return nil, fmt.Errorf("harness: %s policy config: %w", name, err)
				}
			}
			dk, err := core.New(p, cfg)
			if err != nil {
				return nil, err
			}
			return dk, nil
		},
	}
}

// newOracle builds the static oracle placement. Its assignment comes
// from workload ground truth, so Run resolves it into the header and a
// replay reads it back from there.
func newOracle(p platform.Platform, m replay.Meta) (sim.Policy, error) {
	if m.Static == nil {
		return nil, fmt.Errorf("harness: policy %q has no static assignment", m.Policy)
	}
	st, err := sched.NewStatic(p, m.Static)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// newMeta builds the meta scheduler. Every candidate is its registry
// entry built with the candidate's seed and no config, exactly as a
// fixed run of that policy without overrides.
func newMeta(p platform.Platform, m replay.Meta) (sim.Policy, error) {
	var override *tournament.Config
	if len(m.PolicyConfig) > 0 {
		override = new(tournament.Config)
		if err := json.Unmarshal(m.PolicyConfig, override); err != nil {
			return nil, fmt.Errorf("harness: meta policy config: %w", err)
		}
	}
	cfg, err := resolveMetaConfig(override)
	if err != nil {
		return nil, err
	}
	cands := make([]tournament.Candidate, len(cfg.Candidates))
	for i, name := range cfg.Candidates {
		e, _ := lookupPolicy(name) // resolveMetaConfig vetted every name
		cands[i] = tournament.Candidate{Name: name, New: func(p platform.Platform, seed uint64) (sim.Policy, error) {
			return e.New(p, replay.Meta{Policy: name, Seed: seed})
		}}
	}
	mp, err := tournament.NewMeta(p, cfg, m.Seed, cands)
	if err != nil {
		return nil, err
	}
	return mp, nil
}

// DefaultMetaCandidates is the candidate set a meta run auditions when
// the spec names none: the paper's comparison policies that are
// shadow-eligible. The first candidate is the initial live policy; DIO
// leads because its fine decision cadence picks up fresh arrivals
// fastest, which is the safest opening stance while the tournament has
// no history to judge — the first epochs then demote it wherever a
// steadier policy fits the offered load better.
var DefaultMetaCandidates = []string{PolicyDIO, PolicyDikeAF, PolicyCFS, PolicyDike}

// resolveMetaConfig resolves a tournament configuration (nil means none)
// as the meta policy uses it: defaults filled, the default candidate set
// applied, and every candidate checked against the registry. Digest
// hashes this resolved form, so "nil config" and "explicitly the
// defaults" address the same run.
func resolveMetaConfig(c *tournament.Config) (tournament.Config, error) {
	cfg := tournament.Config{}
	if c != nil {
		cfg = *c
	}
	cfg = cfg.WithDefaults()
	if len(cfg.Candidates) == 0 {
		cfg.Candidates = append([]string(nil), DefaultMetaCandidates...)
	}
	for _, name := range cfg.Candidates {
		if e, ok := lookupPolicy(name); !ok || !e.MetaCandidate {
			return cfg, fmt.Errorf("%w %q (not meta-eligible)", ErrUnknownPolicy, name)
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// build constructs the policy a resolved header describes over plat —
// its registry entry, wrapped in the governor m.Power sets up, if any.
// Run builds the live policy this way from the header it records, and
// Replay from the header it reads.
func build(plat platform.Platform, m replay.Meta) (sim.Policy, error) {
	e, ok := lookupPolicy(m.Policy)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownPolicy, m.Policy)
	}
	policy, err := e.New(plat, m)
	if err != nil || len(m.Power) == 0 {
		return policy, err
	}
	var setup power.Setup
	if err := json.Unmarshal(m.Power, &setup); err != nil {
		return nil, fmt.Errorf("harness: governor setup: %w", err)
	}
	return govern(policy, plat, setup)
}

// govern interposes the governor setup describes between policy and
// plat: its meter reads and DVFS actuations go through plat, which is
// the Recorder when recording and the Player when replaying.
func govern(policy sim.Policy, plat platform.Platform, setup power.Setup) (*sched.Governed, error) {
	gov, err := power.New(setup.Config)
	if err != nil {
		return nil, err
	}
	pc, ok := plat.(platform.PowerControl)
	if !ok {
		return nil, fmt.Errorf("harness: platform has no power control for governor %q", setup.Config.Governor)
	}
	gov.Bind(plat.Topology(), setup.Levels)
	return sched.Govern(policy, gov, pc, setup.Config.AdaptEvery), nil
}

// policyStats collects the Dike, meta and governor bookkeeping of a
// policy build returned.
func policyStats(policy sim.Policy) PolicyStats {
	var s PolicyStats
	if gp, ok := policy.(*sched.Governed); ok {
		s.Power = gp.Stats()
		policy = gp.Inner()
	}
	switch p := policy.(type) {
	case *tournament.Meta:
		s.MetaStats = p.Stats()
	case *core.Dike:
		s.PredMin, s.PredAvg, s.PredMax = p.PredictionStats().MinAvgMax()
		s.ErrSeries = p.ErrorSeries()
		s.History = p.History()
		s.WatchdogTrips = p.WatchdogTrips()
		s.FailedSwaps = p.FailedSwaps()
		s.Sanitized = p.SanitizedTotal()
	}
	return s
}
