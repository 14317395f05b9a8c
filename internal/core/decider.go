package core

import (
	"dike/internal/platform"
	"dike/internal/sim"
)

// Decider applies the paper's two acceptance rules to predicted swaps
// (§III-D): a thread is never swapped in consecutive quanta (cool-down),
// and pairs whose predicted total profit is not positive are ignored.
type Decider struct {
	// lastSwapped records the quantum index in which each thread was
	// last migrated.
	lastSwapped map[platform.ThreadID]int
	// cooldown is how many quanta a swapped thread rests. At the default
	// 500 ms quantum this is 1 — the paper's "does not swap a thread in
	// consecutive quanta" — and it scales up at shorter quanta so the
	// rest period stays roughly constant in time (a freshly migrated
	// thread's counters are polluted by the migration for a fixed real
	// time, not a fixed number of quanta).
	cooldown int
	// DisableCooldown and DisableProfitGate switch the two rules off for
	// ablation studies; both false in normal operation.
	DisableCooldown   bool
	DisableProfitGate bool
	// accepted is Filter's result buffer, reused from call to call.
	accepted []Prediction
}

// cooldownWindow is the target rest time after a migration, ms.
const cooldownWindow = 400

// NewDecider returns an empty decider.
func NewDecider() *Decider {
	return &Decider{lastSwapped: make(map[platform.ThreadID]int), cooldown: 1}
}

// SetQuanta informs the decider of the current quantum length so the
// cooldown can stay constant in time across adaptive retuning.
func (d *Decider) SetQuanta(q sim.Time) {
	cd := 1
	if q > 0 && q < cooldownWindow {
		cd = int((cooldownWindow + q - 1) / q)
	}
	d.cooldown = cd
}

// Filter returns the predictions that survive both rules at quantum
// index q. It does not record anything; call Committed for the swaps the
// migrator actually performs. The returned slice is the Decider's own and
// is overwritten by the next Filter call.
func (d *Decider) Filter(preds []Prediction, q int) []Prediction {
	out := d.accepted[:0]
	for _, p := range preds {
		if !d.DisableCooldown && (d.swappedLastQuantum(p.Pair.Low, q) || d.swappedLastQuantum(p.Pair.High, q)) {
			continue
		}
		if !d.DisableProfitGate && !p.Pair.Equalize && p.Total <= 0 {
			continue
		}
		out = append(out, p)
	}
	d.accepted = out
	return out
}

// swappedLastQuantum reports whether tid was swapped within the cooldown
// window ending at quantum q.
func (d *Decider) swappedLastQuantum(tid platform.ThreadID, q int) bool {
	last, ok := d.lastSwapped[tid]
	return ok && q-last <= d.cooldown
}

// Committed records that both members of pair were swapped at quantum q.
func (d *Decider) Committed(pair Pair, q int) {
	d.lastSwapped[pair.Low] = q
	d.lastSwapped[pair.High] = q
}

// Migrator executes accepted swaps by exchanging the two threads' core
// affinities (§III-E): no third core is used, and the order of the two
// migrations is immaterial, so Swap applies both atomically at the
// quantum boundary.
//
// Affinity changes on a faulty platform can be silently lost, so the
// Migrator verifies after each swap that both threads actually landed on
// their destination cores. A swap that did not fully take is rolled
// back (any half-applied move is undone, best-effort) and left
// un-committed in the Decider's bookkeeping, so the cool-down does not
// block the pair from being retried in a later quantum.
type Migrator struct {
	p platform.Platform
	// failed counts swaps that did not take effect and were rolled back.
	failed int
}

// NewMigrator returns a migrator over p.
func NewMigrator(p platform.Platform) *Migrator { return &Migrator{p: p} }

// FailedSwaps returns how many accepted swaps did not take effect.
func (mg *Migrator) FailedSwaps() int { return mg.failed }

// Apply performs the swaps in preds at time now, recording with d (at
// quantum index q) only the swaps verified to have taken effect. It
// returns how many swaps were executed and verified.
func (mg *Migrator) Apply(preds []Prediction, d *Decider, q int, now sim.Time) (int, error) {
	n := 0
	for _, p := range preds {
		lo, hi := p.Pair.Low, p.Pair.High
		cl, err := mg.p.CoreOf(lo)
		if err != nil {
			return n, err
		}
		ch, err := mg.p.CoreOf(hi)
		if err != nil {
			return n, err
		}
		if err := mg.p.Swap(lo, hi, now); err != nil {
			return n, err
		}
		nl, err := mg.p.CoreOf(lo)
		if err != nil {
			return n, err
		}
		nh, err := mg.p.CoreOf(hi)
		if err != nil {
			return n, err
		}
		if (nl == ch && nh == cl) || cl == ch {
			d.Committed(p.Pair, q)
			n++
			continue
		}
		// The swap did not fully take. Undo any half-applied move so the
		// pair is not left split across an unintended placement; the
		// rollback migrations may themselves fail silently, in which case
		// the next quantum's observation sees the true placement anyway.
		mg.failed++
		if nl != cl {
			if err := mg.p.Migrate(lo, cl, now); err != nil {
				return n, err
			}
		}
		if nh != ch {
			if err := mg.p.Migrate(hi, ch, now); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
