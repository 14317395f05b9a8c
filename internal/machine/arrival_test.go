package machine

import (
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

func TestArrivalBasics(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 100, Demand{}, 0)
	place(t, m, 1, 0, 100, Demand{}, 2)
	if err := m.SetStart(1, 500); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStart(9, 1); err == nil {
		t.Error("SetStart on unknown thread accepted")
	}
	if err := m.SetStart(1, -1); err == nil {
		t.Error("negative start accepted")
	}
	st, err := m.StartOf(1)
	if err != nil || st != 500 {
		t.Errorf("StartOf = %v, %v", st, err)
	}

	// Before arrival: thread 1 is pending, not alive, makes no progress.
	if got := m.Alive(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Alive = %v, want [0]", got)
	}
	for _, th := range m.slots {
		if pending := !th.finished && th.startAt > m.lastNow; pending != (th.id == 1) {
			t.Errorf("thread %d pending = %v", th.id, pending)
		}
	}
	for now := sim.Time(0); now < 100; now++ {
		m.Step(now, 1)
	}
	if w := m.threads[1].tc.Work; w != 0 {
		t.Errorf("pending thread progressed: %v", w)
	}
	// Thread 0 finished long before thread 1 arrives; Done must be false.
	if m.Done() {
		t.Fatal("machine done while a thread is pending")
	}
	// After arrival it runs and finishes.
	for now := sim.Time(100); now < 800 && !m.Done(); now++ {
		m.Step(now, 1)
	}
	if !m.Done() {
		t.Fatal("late thread did not finish")
	}
	ft, _ := m.Finished(1)
	if ft <= 500 {
		t.Errorf("late thread finished at %v, before its arrival", ft)
	}
}

func TestArrivalDoesNotHoldBarrier(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 1000, Demand{}, coresOf(m.Topology(), platform.FastCore)[0])
	place(t, m, 1, 0, 1000, Demand{}, coresOf(m.Topology(), platform.FastCore)[2])
	if err := m.AddBarrierGroup(50, []platform.ThreadID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStart(1, 10000); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 200; now++ {
		m.Step(now, 1)
	}
	// Thread 0 must not be stuck at the first barrier waiting for the
	// not-yet-arrived sibling.
	if w := m.threads[0].tc.Work; w < 100 {
		t.Errorf("thread 0 blocked by pending barrier member: work=%v", w)
	}
}

func TestArrivalOccupancy(t *testing.T) {
	// A pending thread's preset core must not count as busy for SMT.
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	sib := siblings(m.Topology(), fast[0])
	place(t, m, 0, 0, 1000, Demand{}, sib[0])
	place(t, m, 1, 0, 1000, Demand{}, sib[1])
	if err := m.SetStart(1, 100000); err != nil {
		t.Fatal(err)
	}
	m.Step(0, 100)
	// Thread 0 should run at full (un-shared) speed: 2.33 * 100.
	if w := m.threads[0].tc.Work; w < 230 {
		t.Errorf("SMT penalty applied for pending sibling: work=%v", w)
	}
	if got := threadsOn(m, sib[1]); len(got) != 0 {
		t.Errorf("pending thread listed on core: %v", got)
	}
}
