package core

import (
	"testing"

	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
)

func preds(ps ...Prediction) []Prediction { return ps }

func TestDeciderProfitGate(t *testing.T) {
	d := NewDecider()
	in := preds(
		Prediction{Pair: Pair{Low: 0, High: 1}, Total: 1.5},
		Prediction{Pair: Pair{Low: 2, High: 3}, Total: -0.5},
		Prediction{Pair: Pair{Low: 4, High: 5}, Total: 0},
	)
	out := d.Filter(in, 1)
	if len(out) != 1 || out[0].Pair.Low != 0 {
		t.Errorf("Filter = %v, want only the profitable pair", out)
	}
}

func TestDeciderEqualizeBypassesProfit(t *testing.T) {
	d := NewDecider()
	in := preds(Prediction{Pair: Pair{Low: 0, High: 1, Equalize: true}, Total: -0.5})
	if out := d.Filter(in, 1); len(out) != 1 {
		t.Error("equalize pair rejected by profit gate")
	}
}

func TestDeciderCooldown(t *testing.T) {
	d := NewDecider()
	p := Prediction{Pair: Pair{Low: 0, High: 1}, Total: 1}
	out := d.Filter(preds(p), 5)
	if len(out) != 1 {
		t.Fatal("initial pair rejected")
	}
	d.Committed(p.Pair, 5)
	// Next quantum: both members rest.
	if out := d.Filter(preds(p), 6); len(out) != 0 {
		t.Error("cooldown not enforced")
	}
	// One member resting blocks the pair too.
	q := Prediction{Pair: Pair{Low: 0, High: 9}, Total: 1}
	if out := d.Filter(preds(q), 6); len(out) != 0 {
		t.Error("cooldown not enforced for partial overlap")
	}
	// Two quanta later (cooldown 1): allowed again.
	if out := d.Filter(preds(p), 7); len(out) != 1 {
		t.Error("pair still blocked after cooldown expired")
	}
}

func TestDeciderTimeScaledCooldown(t *testing.T) {
	d := NewDecider()
	d.SetQuanta(100) // cooldownWindow 400 -> 4 quanta
	p := Prediction{Pair: Pair{Low: 0, High: 1}, Total: 1}
	d.Committed(p.Pair, 10)
	for q := 11; q <= 14; q++ {
		if out := d.Filter(preds(p), q); len(out) != 0 {
			t.Errorf("quantum %d: cooldown not enforced", q)
		}
	}
	if out := d.Filter(preds(p), 15); len(out) != 1 {
		t.Error("pair blocked beyond the scaled cooldown")
	}
	// Long quanta keep the paper's one-quantum rule.
	d2 := NewDecider()
	d2.SetQuanta(1000)
	d2.Committed(p.Pair, 10)
	if out := d2.Filter(preds(p), 12); len(out) != 1 {
		t.Error("1000ms quanta should rest only one quantum")
	}
}

func TestDeciderAblationFlags(t *testing.T) {
	d := NewDecider()
	d.DisableProfitGate = true
	if out := d.Filter(preds(Prediction{Pair: Pair{Low: 0, High: 1}, Total: -5}), 1); len(out) != 1 {
		t.Error("profit gate not disabled")
	}
	d2 := NewDecider()
	d2.DisableCooldown = true
	p := Prediction{Pair: Pair{Low: 0, High: 1}, Total: 1}
	d2.Committed(p.Pair, 1)
	if out := d2.Filter(preds(p), 2); len(out) != 1 {
		t.Error("cooldown not disabled")
	}
}

func TestMigratorAppliesSwaps(t *testing.T) {
	m := platformtest.NewMachine(platformtest.DefaultConfig())
	if err := m.AddThread(0, 0, platformtest.ConstProgram{Work: 1000}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddThread(1, 1, platformtest.ConstProgram{Work: 1000}); err != nil {
		t.Fatal(err)
	}
	fast := platformtest.CoresOfKind(m.Topology(), platform.FastCore)[0]
	slow := platformtest.CoresOfKind(m.Topology(), platform.SlowCore)[0]
	m.Place(0, fast)
	m.Place(1, slow)
	mg := NewMigrator(m)
	d := NewDecider()
	n, err := mg.Apply(preds(Prediction{Pair: Pair{Low: 0, High: 1}, Total: 1}), d, 3, sim.Time(0))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("applied %d swaps, want 1", n)
	}
	if mg.FailedSwaps() != 0 {
		t.Errorf("FailedSwaps = %d, want 0", mg.FailedSwaps())
	}
	c0, _ := m.CoreOf(0)
	c1, _ := m.CoreOf(1)
	if c0 != slow || c1 != fast {
		t.Error("migrator did not exchange cores")
	}
	// The decider now knows both threads were swapped at quantum 3.
	if out := d.Filter(preds(Prediction{Pair: Pair{Low: 0, High: 1}, Total: 1}), 4); len(out) != 0 {
		t.Error("Apply did not record the swap with the decider")
	}
}
