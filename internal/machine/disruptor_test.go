package machine

import (
	"testing"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// stubDisruptor is a hand-steered Disruptor for machine-level tests; the
// probabilistic injector lives in internal/fault. It counts the
// migrations it dropped and the crashes it injected.
type stubDisruptor struct {
	factor  map[platform.CoreID]float64
	migFail bool
	stall   map[platform.ThreadID]bool
	crash   map[platform.ThreadID]bool

	dropped, crashes int
}

func (s *stubDisruptor) CoreFactor(c platform.CoreID, _ sim.Time) float64 {
	if f, ok := s.factor[c]; ok {
		return f
	}
	return 1
}

func (s *stubDisruptor) MigrationFails(platform.ThreadID, platform.CoreID, sim.Time) bool {
	if s.migFail {
		s.dropped++
	}
	return s.migFail
}

func (s *stubDisruptor) ThreadFault(id platform.ThreadID, _ sim.Time) (bool, bool) {
	if s.crash[id] {
		s.crashes++
	}
	return s.stall[id], s.crash[id]
}

func (s *stubDisruptor) PerturbDelta(_ platform.ThreadID, _ sim.Time, d counters.ThreadDelta) (counters.ThreadDelta, bool) {
	return d, true
}

func TestDisruptorMigrationFailIsSilent(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	place(t, m, 0, 0, 1000, Demand{}, fast[0])
	dis := &stubDisruptor{migFail: true}
	m.SetDisruptor(dis)
	if err := m.Migrate(0, fast[1], 10); err != nil {
		t.Fatalf("failed migration returned error: %v", err)
	}
	if c, _ := m.CoreOf(0); c != fast[0] {
		t.Errorf("thread moved to %d despite migration failure", c)
	}
	if dis.dropped != 1 {
		t.Errorf("dropped migrations = %d, want 1", dis.dropped)
	}
	// Recovery: with the fault gone the same migration takes effect.
	dis.migFail = false
	if err := m.Migrate(0, fast[1], 20); err != nil {
		t.Fatal(err)
	}
	if c, _ := m.CoreOf(0); c != fast[1] {
		t.Error("migration did not take after fault cleared")
	}
}

func TestDisruptorOfflineCoreMakesNoProgress(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	place(t, m, 0, 0, 1000, Demand{}, fast[0])
	dis := &stubDisruptor{factor: map[platform.CoreID]float64{fast[0]: 0}}
	m.SetDisruptor(dis)
	for now := sim.Time(0); now < 50; now++ {
		m.Step(now, 1)
	}
	if p := m.Progress(0); p != 0 {
		t.Errorf("offline core let its occupant progress: %v", p)
	}
	// Core recovers: the thread finishes.
	dis.factor = nil
	now := sim.Time(50)
	for !m.Done() {
		if now > 10000 {
			t.Fatal("thread never finished after core recovery")
		}
		m.Step(now, 1)
		now++
	}
}

func TestDisruptorThrottleSlowsCore(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	place(t, m, 0, 0, 5000, Demand{}, fast[0])
	place(t, m, 1, 0, 5000, Demand{}, fast[2]) // distinct physical cores
	m.SetDisruptor(&stubDisruptor{factor: map[platform.CoreID]float64{fast[0]: 0.5}})
	for now := sim.Time(0); now < 100; now++ {
		m.Step(now, 1)
	}
	p0, p1 := m.Progress(0), m.Progress(1)
	if p1 <= 0 {
		t.Fatal("healthy thread made no progress")
	}
	ratio := p0 / p1
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("throttled/healthy progress ratio = %.3f, want ~0.5", ratio)
	}
}

func TestDisruptorCrashFinishesThreadEarly(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	place(t, m, 0, 0, 1e9, Demand{}, fast[0]) // would run ~forever
	dis := &stubDisruptor{crash: map[platform.ThreadID]bool{0: true}}
	m.SetDisruptor(dis)
	m.Step(0, 1)
	if !m.Done() {
		t.Fatal("crashed thread still counted as running")
	}
	if dis.crashes != 1 {
		t.Errorf("crashes = %d, want 1", dis.crashes)
	}
	if p := m.Progress(0); p >= 1 {
		t.Errorf("crashed thread reported full progress %v", p)
	}
}

func TestDisruptorStallHoldsWork(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	place(t, m, 0, 0, 1000, Demand{}, fast[0])
	m.SetDisruptor(&stubDisruptor{stall: map[platform.ThreadID]bool{0: true}})
	for now := sim.Time(0); now < 20; now++ {
		m.Step(now, 1)
		if w := m.threads[0].tc.Work; w != 0 {
			t.Fatalf("stalled thread did work %v by t=%d", w, now)
		}
	}
	if p := m.Progress(0); p != 0 {
		t.Errorf("stalled thread progressed: %v", p)
	}
}

func TestDisruptorAliveCount(t *testing.T) {
	m := testMachine(t)
	fast := coresOf(m.Topology(), platform.FastCore)
	place(t, m, 0, 0, 100, Demand{}, fast[0])
	place(t, m, 1, 0, 100, Demand{}, fast[2])
	if m.AliveCount() != len(m.Alive()) {
		t.Errorf("AliveCount = %d, Alive = %d", m.AliveCount(), len(m.Alive()))
	}
	var _ sim.LiveCounter = m
}
