// Package tournament implements competitive meta-scheduling in two
// levels. Level 1 is an in-run adaptive switcher: a meta policy that
// records the live platform stream on a trailing tape, periodically
// forks cheap shadow replays of that window under each candidate
// policy, scores them on a pluggable objective and switches the live
// policy to the winner — paying real migration costs for the handover.
// Level 2 is a grid harness: rank policies (including the meta policy
// itself) across an offered-load grid and compute each policy's regret
// against the per-cell oracle-best (see RankCell).
//
// Every decision is a pure function of the recorded stream, the config
// and the seed, so meta runs digest deterministically and record/replay
// round-trips hold: shadows only read the tape, never the platform.
package tournament

import (
	"errors"
	"fmt"
	"math"
)

// Objective names accepted by Config.Objective.
const (
	// ObjectiveFairness scores the Jain index over per-tenant
	// weight-normalized inverse slowdown shares — the paper's fairness
	// lens applied to the estimated window.
	ObjectiveFairness = "fairness"
	// ObjectiveTail scores the inverse p99 of per-thread slowdowns —
	// tail latency, the dimension SLO tenants feel.
	ObjectiveTail = "p99"
	// ObjectiveHeadroom scores the worst tenant's remaining margin
	// below Config.TargetSlowdown.
	ObjectiveHeadroom = "headroom"
	// ObjectiveBlend mixes fairness and tail with Config.WeightFairness
	// and Config.WeightTail.
	ObjectiveBlend = "blend"
)

// Objectives lists the accepted objective names.
func Objectives() []string {
	return []string{ObjectiveFairness, ObjectiveTail, ObjectiveHeadroom, ObjectiveBlend}
}

// Config parameterises the meta policy. The zero value means "use the
// defaults"; WithDefaults resolves it. The resolved form is part of the
// run's content address, so changing a default changes meta-run digests
// (and only meta-run digests).
type Config struct {
	// EpochMs is the tournament period in simulated ms. Negative
	// disables tournaments entirely: the meta policy then just runs its
	// first candidate (useful as an isolation baseline).
	EpochMs int64 `json:"epoch_ms,omitempty"`
	// WindowMs is how much trailing simulated time each shadow replays.
	// Time-based rather than quantum-based so the audition horizon does
	// not shrink when a fine-cadence candidate holds the live seat.
	WindowMs int64 `json:"window_ms,omitempty"`
	// Objective selects the scoring lens; see the Objective* constants.
	Objective string `json:"objective,omitempty"`
	// Candidates names the policies auditioned, in tournament order.
	// The first is the initial live policy. Empty lets the harness fill
	// its default comparison set.
	Candidates []string `json:"candidates,omitempty"`
	// SwitchMargin is the relative score advantage a challenger needs
	// over the incumbent before a switch happens (hysteresis): 0.02
	// means "score at least 2% above the incumbent's".
	SwitchMargin float64 `json:"switch_margin,omitempty"`
	// MinDwellEpochs is how many epochs must pass after a switch before
	// the next one (more hysteresis; 1 allows switching every epoch).
	MinDwellEpochs int `json:"min_dwell_epochs,omitempty"`
	// MigCostMs is the scorer's estimate of progress lost per shadow
	// migration — the scheduler's own cost model, like Dike's SwapOH.
	MigCostMs float64 `json:"mig_cost_ms,omitempty"`
	// StallPerMissMs is the scorer's uncontended per-miss stall
	// estimate feeding its latency model.
	StallPerMissMs float64 `json:"stall_per_miss_ms,omitempty"`
	// TargetSlowdown is the headroom objective's acceptable worst-tenant
	// slowdown.
	TargetSlowdown float64 `json:"target_slowdown,omitempty"`
	// WeightFairness and WeightTail mix the blend objective.
	WeightFairness float64 `json:"w_fairness,omitempty"`
	WeightTail     float64 `json:"w_tail,omitempty"`
	// GrowthGain scales the incumbent's demotion when the live window
	// shows a backlog growing on a saturated machine (alive threads
	// accumulating past capacity faster than they drain). Shadows can
	// only judge the window the incumbent produced; a tail-chasing
	// policy that starves its batch tenant aces every instantaneous
	// audition while the starved work piles up and clogs the machine a
	// few epochs later. This is the accountability term that unseats it
	// before that happens: the incumbent's score is divided by
	// 1 + GrowthGain×growth. Zero disables it.
	GrowthGain float64 `json:"growth_gain,omitempty"`
}

// DefaultConfig returns the default meta configuration (candidates left
// empty — the harness owns the policy registry).
func DefaultConfig() Config {
	return Config{
		EpochMs:        1000,
		WindowMs:       4000,
		Objective:      ObjectiveBlend,
		SwitchMargin:   0.12,
		MinDwellEpochs: 1,
		MigCostMs:      10,
		StallPerMissMs: 0.004,
		TargetSlowdown: 8,
		WeightFairness: 0.35,
		WeightTail:     0.65,
		GrowthGain:     10,
	}
}

// WithDefaults fills every unset field from DefaultConfig. A negative
// EpochMs (tournaments disabled) is preserved.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.EpochMs == 0 {
		c.EpochMs = d.EpochMs
	}
	if c.WindowMs == 0 {
		c.WindowMs = d.WindowMs
	}
	if c.Objective == "" {
		c.Objective = d.Objective
	}
	if c.SwitchMargin == 0 {
		c.SwitchMargin = d.SwitchMargin
	}
	if c.MinDwellEpochs == 0 {
		c.MinDwellEpochs = d.MinDwellEpochs
	}
	if c.MigCostMs == 0 {
		c.MigCostMs = d.MigCostMs
	}
	if c.StallPerMissMs == 0 {
		c.StallPerMissMs = d.StallPerMissMs
	}
	if c.TargetSlowdown == 0 {
		c.TargetSlowdown = d.TargetSlowdown
	}
	if c.WeightFairness == 0 && c.WeightTail == 0 {
		c.WeightFairness = d.WeightFairness
		c.WeightTail = d.WeightTail
	}
	if c.GrowthGain == 0 {
		c.GrowthGain = d.GrowthGain
	}
	return c
}

// Validate reports the first problem with a resolved config, or nil.
func (c Config) Validate() error {
	// Each case negates the valid range, so NaN fails it too, and every
	// unbounded range stops at the largest finite float.
	const maxF = math.MaxFloat64
	switch {
	case c.WindowMs < 1:
		return errors.New("tournament: window_ms < 1")
	case !(c.SwitchMargin >= 0 && c.SwitchMargin <= maxF):
		return errors.New("tournament: switch margin must be finite and >= 0")
	case c.MinDwellEpochs < 1:
		return errors.New("tournament: min_dwell_epochs < 1")
	case !(c.MigCostMs >= 0 && c.MigCostMs <= maxF):
		return errors.New("tournament: migration cost must be finite and >= 0")
	case !(c.StallPerMissMs > 0 && c.StallPerMissMs <= maxF):
		return errors.New("tournament: stall_per_miss_ms must be finite and positive")
	case !(c.TargetSlowdown > 1 && c.TargetSlowdown <= maxF):
		return errors.New("tournament: target_slowdown must be finite and exceed 1")
	case !(c.WeightFairness >= 0 && c.WeightTail >= 0 && c.WeightFairness+c.WeightTail > 0 && c.WeightFairness+c.WeightTail <= maxF):
		return errors.New("tournament: blend weights must be non-negative with a finite positive sum")
	case !(c.GrowthGain >= 0 && c.GrowthGain <= maxF):
		return errors.New("tournament: growth gain must be finite and >= 0")
	case len(c.Candidates) == 0:
		return errors.New("tournament: no candidates")
	}
	ok := false
	for _, o := range Objectives() {
		if c.Objective == o {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("tournament: unknown objective %q", c.Objective)
	}
	seen := make(map[string]bool, len(c.Candidates))
	for _, name := range c.Candidates {
		if name == "" {
			return errors.New("tournament: empty candidate name")
		}
		if seen[name] {
			return fmt.Errorf("tournament: duplicate candidate %q", name)
		}
		seen[name] = true
	}
	return nil
}
