package traffic

import (
	"math"
	"testing"

	"dike/internal/machine"
	"dike/internal/sim"
)

// tinySpec is a one-class scenario small enough to drive by hand.
func tinySpec(maxInSystem int) Spec {
	return Spec{
		Name:      "tiny",
		HorizonMs: 2000,
		Classes: []ClassSpec{{
			Name: "c", Profile: "jacobi", MeanWork: 200, WorkDist: WorkDistFixed,
			SLOMs: 400, MaxInSystem: maxInSystem,
			Arrival: ArrivalSpec{Process: ProcessPoisson, RatePerSec: 20},
		}},
	}
}

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildRegistersEveryArrival(t *testing.T) {
	m := newMachine(t)
	r, err := Build(m, tinySpec(0), 7)
	if err != nil {
		t.Fatal(err)
	}
	arr := r.Arrivals()
	if len(arr) == 0 {
		t.Fatal("no arrivals")
	}
	if got := len(m.Threads()); got != len(arr) {
		t.Fatalf("machine has %d threads, want %d (one per arrival)", got, len(arr))
	}
	for i, a := range arr {
		at, err := m.StartOf(machine.ThreadID(i))
		if err != nil {
			t.Fatal(err)
		}
		if at != a.At {
			t.Fatalf("thread %d starts at %v, want arrival time %v", i, at, a.At)
		}
	}
	// Before any arrival the machine must be idle, waiting for the first.
	wake, idle := m.IdleUntil(0)
	if !idle || wake != arr[0].At {
		t.Errorf("IdleUntil(0) = (%v, %v), want (%v, true)", wake, idle, arr[0].At)
	}
}

func TestBuildRejectsDirtyMachine(t *testing.T) {
	m := newMachine(t)
	if err := m.AddThread(0, 0, machine.ConstProgram{Work: 1, Demand: machine.Demand{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(m, tinySpec(0), 7); err == nil {
		t.Error("Build accepted a machine with pre-existing threads")
	}
}

func TestBuildRejectsInvalidSpec(t *testing.T) {
	m := newMachine(t)
	bad := tinySpec(0)
	bad.Classes[0].Profile = "no-such-app"
	if _, err := Build(m, bad, 7); err == nil {
		t.Error("Build accepted an invalid spec")
	}
}

func TestAdmissionCapRejectsAtTheDoor(t *testing.T) {
	// Cap 1 with requests that outlive the interarrival gap: most
	// arrivals must be rejected, and rejected ones must never run.
	m := newMachine(t)
	r, err := Build(m, tinySpec(1), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Admit arrivals but never step the machine: nothing completes, so
	// after the first admission every arrival is rejected.
	last := r.Arrivals()[len(r.Arrivals())-1].At
	for now := sim.Time(1); now <= last; now++ {
		r.Tick(now)
	}
	res := r.result(last)
	c := res.Classes[0]
	if c.Admitted != 1 {
		t.Errorf("admitted = %d with cap 1 and no completions, want 1", c.Admitted)
	}
	if c.Rejected != c.Arrivals-1 {
		t.Errorf("rejected = %d, want %d", c.Rejected, c.Arrivals-1)
	}
	// Rejected threads are terminated with zero progress.
	for i := range r.Arrivals() {
		id := machine.ThreadID(i)
		if _, done := m.Finished(id); !done && i != 0 {
			t.Fatalf("rejected thread %d not terminated", i)
		}
	}
}

func TestTickAccountingInvariant(t *testing.T) {
	// Drive a full run by hand: every tick, step the machine and run the
	// accountant; at the end Arrivals == Admitted + Rejected and
	// Admitted == Completed (nothing kills threads here).
	m := newMachine(t)
	spec := tinySpec(3)
	r, err := Build(m, spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Place admitted threads round-robin so they execute. (The harness
	// normally delegates this to a policy; spreading by id is enough for
	// the accounting to be exercised.)
	cores := m.Topology().Cores()
	placed := make(map[machine.ThreadID]bool)
	now := sim.Time(0)
	for i := 0; !m.Done() && i < 200_000; i++ {
		r.Tick(now)
		for _, id := range m.Alive() {
			if !placed[id] {
				if err := m.Place(id, cores[int(id)%len(cores)].ID); err != nil {
					t.Fatal(err)
				}
				placed[id] = true
			}
		}
		m.Step(now, 1)
		now++
	}
	if !m.Done() {
		t.Fatal("run did not drain")
	}
	res := r.Finalize(now)
	c := res.Classes[0]
	if c.Arrivals != c.Admitted+c.Rejected {
		t.Errorf("arrivals %d != admitted %d + rejected %d", c.Arrivals, c.Admitted, c.Rejected)
	}
	if c.Completed != c.Admitted {
		t.Errorf("completed %d != admitted %d (no kills in this run)", c.Completed, c.Admitted)
	}
	if c.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if c.P50Ms <= 0 || c.P99Ms < c.P95Ms || c.P95Ms < c.P50Ms || c.MaxMs < c.P99Ms {
		t.Errorf("percentiles not monotone: p50=%g p95=%g p99=%g max=%g", c.P50Ms, c.P95Ms, c.P99Ms, c.MaxMs)
	}
	if c.Slowdown < 1 {
		t.Errorf("slowdown %.3f < 1: sojourn cannot beat uncontended service", c.Slowdown)
	}
	if res.FairnessJain != 1 || res.FairnessMinMax != 1 {
		t.Errorf("single-tenant fairness = (%g, %g), want degenerate (1, 1)", res.FairnessJain, res.FairnessMinMax)
	}
}

// TestReapRetiresEveryDeparture checks that Tick's departure pass, which
// skips its scan while the machine's finished count is unchanged, still
// retires every finished request on the tick it finishes: after each
// Tick no in-flight request has finished and the per-class in-system
// counts match the in-flight list. Without a cap only completions move
// the finished count; with one, rejections move it too.
func TestReapRetiresEveryDeparture(t *testing.T) {
	for _, maxInSystem := range []int{0, 3} {
		m := newMachine(t)
		r, err := Build(m, tinySpec(maxInSystem), 11)
		if err != nil {
			t.Fatal(err)
		}
		cores := m.Topology().Cores()
		placed := make(map[machine.ThreadID]bool)
		now := sim.Time(0)
		for i := 0; !m.Done() && i < 200_000; i++ {
			r.Tick(now)
			for _, id := range r.inflight {
				if _, done := m.Finished(id); done {
					t.Fatalf("cap %d, t=%v: finished request %d still in flight", maxInSystem, now, id)
				}
			}
			if got := r.inSystem[0]; got != len(r.inflight) {
				t.Fatalf("cap %d, t=%v: in system %d, in flight %d", maxInSystem, now, got, len(r.inflight))
			}
			for _, id := range m.Alive() {
				if !placed[id] {
					if err := m.Place(id, cores[int(id)%len(cores)].ID); err != nil {
						t.Fatal(err)
					}
					placed[id] = true
				}
			}
			m.Step(now, 1)
			now++
		}
		if !m.Done() {
			t.Fatalf("cap %d: run did not drain", maxInSystem)
		}
	}
}

func TestFairnessWeightDirection(t *testing.T) {
	// Per ClassSpec.Weight, a weight-2 tenant is entitled to half the
	// slowdown of a weight-1 tenant. Synthesize both outcomes directly:
	// each class completes one request of 1 work unit on a speed-1
	// machine (1ms uncontended service), so the sojourn IS the slowdown.
	build := func(heavySojourn, lightSojourn float64) *Run {
		return &Run{
			spec: Spec{Name: "w", HorizonMs: 1, Classes: []ClassSpec{
				{Name: "heavy", Weight: 2}, {Name: "light"},
			}},
			maxSpeed: 1,
			agg: []classAgg{
				{admitted: 1, completed: 1, sojourns: []float64{heavySojourn}, workDone: 1},
				{admitted: 1, completed: 1, sojourns: []float64{lightSojourn}, workDone: 1},
			},
		}
	}
	// Proportional: the heavy tenant slowed half as much (2x vs 4x) is
	// exactly its entitlement — perfect fairness.
	prop := build(2, 4).result(4)
	if math.Abs(prop.FairnessJain-1) > 1e-12 || math.Abs(prop.FairnessMinMax-1) > 1e-12 {
		t.Errorf("proportional slowdowns: jain=%g minmax=%g, want 1, 1",
			prop.FairnessJain, prop.FairnessMinMax)
	}
	// Inverted: the heavy tenant slowed MORE must score strictly worse,
	// and worse than equal slowdowns too.
	inv := build(4, 2).result(4)
	if inv.FairnessJain >= prop.FairnessJain {
		t.Errorf("inverted slowdowns scored jain %g >= proportional %g",
			inv.FairnessJain, prop.FairnessJain)
	}
	eq := build(3, 3).result(3)
	if inv.FairnessMinMax >= eq.FairnessMinMax {
		t.Errorf("inverted slowdowns scored minmax %g >= equal-slowdown %g",
			inv.FairnessMinMax, eq.FairnessMinMax)
	}
}

func TestFairnessIndices(t *testing.T) {
	jain, minmax := fairness([]float64{1, 1, 1})
	if jain != 1 || minmax != 1 {
		t.Errorf("equal shares: jain=%g minmax=%g, want 1, 1", jain, minmax)
	}
	jain, minmax = fairness([]float64{1, 0, 0})
	if jain > 0.34 {
		t.Errorf("one-tenant-takes-all: jain=%g, want ≈1/3", jain)
	}
	if minmax != 0 {
		t.Errorf("one-tenant-takes-all: minmax=%g, want 0", minmax)
	}
}
