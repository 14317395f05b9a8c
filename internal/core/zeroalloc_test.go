package core

import (
	"testing"

	"dike/internal/sim"
)

// policyScript is the steady-state script the allocation gate and the
// per-layer benchmarks run: a fixed thread set cycling through prebuilt
// quanta, so after one pass nothing about the policy's inputs is new.
func policyScript(cores, threads, procs int) *scriptPlatform {
	return newScript(1, scriptConfig{cores: cores, threads: threads, procs: procs, quanta: 9})
}

// warmObserver observes every quantum of sp once and returns the
// Observer; it leaves sp on its last quantum.
func warmObserver(t testing.TB, sp *scriptPlatform) *Observer {
	t.Helper()
	o := newObserver(sp, 0.25, 0.10, false)
	for q := range sp.quanta {
		sp.q = q
		if _, err := o.Observe(sim.Time(q * 500)); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// nextQuantum advances sp to its next quantum with a sample interval,
// wrapping past quantum 0 (the run's first, zero-length sample).
func nextQuantum(sp *scriptPlatform) {
	sp.q++
	if sp.q == len(sp.quanta) {
		sp.q = 1
	}
}

// TestPolicyZeroAlloc gates Dike's per-quantum policy path at exactly
// zero allocations once warm: Observer.Observe, and SelectPairs,
// Predictor.Predict and Decider.Filter with the fairness gate open.
func TestPolicyZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	sp := policyScript(16, 24, 4)
	o := warmObserver(t, sp)
	now := sim.Time(len(sp.quanta) * 500)
	observe := testing.AllocsPerRun(50, func() {
		nextQuantum(sp)
		if _, err := o.Observe(now); err != nil {
			t.Fatal(err)
		}
		now += 500
	})
	if observe != 0 {
		t.Errorf("Observe: %v allocs/quantum, want 0", observe)
	}

	cfg := DefaultConfig()
	prd := Predictor{SwapOH: cfg.SwapOH}
	dec := NewDecider()
	var preds []Prediction
	candidates, accepted := 0, 0
	q := 0
	// Each run observes the next quantum too, which the gate above has
	// already held at zero, so every allocation counted here is the
	// decision layers'.
	decide := func() {
		nextQuantum(sp)
		obs, err := o.Observe(now)
		if err != nil {
			t.Fatal(err)
		}
		now += 500
		if obs.Fairness < cfg.FairnessThreshold {
			t.Fatalf("fairness gate closed: %v < %v", obs.Fairness, cfg.FairnessThreshold)
		}
		pairs := SelectPairs(obs, cfg.SwapSize)
		preds = preds[:0]
		for _, p := range pairs {
			preds = append(preds, prd.Predict(obs, p, cfg.QuantaLength))
		}
		candidates += len(pairs)
		accepted += len(dec.Filter(preds, q))
		q++
	}
	// One pass over the script grows the decision buffers.
	for range sp.quanta {
		decide()
	}
	candidates, accepted = 0, 0
	if allocs := testing.AllocsPerRun(50, decide); allocs != 0 {
		t.Errorf("SelectPairs+Predict+Filter: %v allocs/quantum, want 0", allocs)
	}
	if candidates == 0 || accepted == 0 {
		t.Fatalf("the decision path did not run: %d candidates, %d accepted", candidates, accepted)
	}
}
