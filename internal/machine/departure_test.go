package machine

import (
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

func TestTerminateMarksThreadFinished(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 100, Demand{}, 0)
	place(t, m, 1, 0, 100, Demand{}, 1)
	if err := m.Terminate(1, 5); err != nil {
		t.Fatal(err)
	}
	if m.AliveCount() != 1 {
		t.Errorf("AliveCount = %d after Terminate, want 1", m.AliveCount())
	}
	ft, fin := m.Finished(1)
	if !fin {
		t.Fatal("Terminate did not mark thread 1 finished")
	}
	if ft != 5 {
		t.Errorf("finish time = %v, want 5", ft)
	}
	// The survivor still runs to completion.
	run(t, m, 10_000)
	if !m.Done() {
		t.Error("machine not done after survivor finished")
	}
}

func TestTerminateBeforeArrivalRejectsAtStartTime(t *testing.T) {
	// An admission rejection happens at the thread's arrival instant:
	// terminating a pending thread must not record a finish time earlier
	// than its start (finish < start would corrupt sojourn accounting).
	m := testMachine(t)
	place(t, m, 0, 0, 100, Demand{}, 0)
	if err := m.AddThread(1, 0, ConstProgram{Work: 50, Demand: Demand{}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStart(1, 40); err != nil {
		t.Fatal(err)
	}
	if err := m.Terminate(1, 10); err != nil {
		t.Fatal(err)
	}
	ft, fin := m.Finished(1)
	if !fin {
		t.Fatal("Terminate did not mark thread 1 finished")
	}
	if ft != 40 {
		t.Errorf("finish time = %v, want clamped to start 40", ft)
	}
}

func TestTerminateUnknownAndIdempotent(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 100, Demand{}, 0)
	if err := m.Terminate(99, 0); err == nil {
		t.Error("Terminate(unknown) did not error")
	}
	done := run(t, m, 10_000)
	// Terminating an already-finished thread must keep its real finish
	// time, not overwrite it.
	if err := m.Terminate(0, done+100); err != nil {
		t.Fatal(err)
	}
	ft, _ := m.Finished(0)
	if ft >= done+100 {
		t.Errorf("Terminate overwrote finish time of a finished thread: %v", ft)
	}
}

func TestIdleUntilReportsNextArrival(t *testing.T) {
	m := testMachine(t)
	if err := m.AddThread(0, 0, ConstProgram{Work: 50, Demand: Demand{}}); err != nil {
		t.Fatal(err)
	}
	if err := m.AddThread(1, 0, ConstProgram{Work: 50, Demand: Demand{}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStart(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStart(1, 30); err != nil {
		t.Fatal(err)
	}
	wake, idle := m.IdleUntil(0)
	if !idle || wake != 30 {
		t.Errorf("IdleUntil(0) = (%v, %v), want (30, true)", wake, idle)
	}
	// At t=30 thread 1 has arrived: the machine is no longer idle.
	if _, idle := m.IdleUntil(30); idle {
		t.Error("IdleUntil(30) reports idle with thread 1 arrived")
	}
}

func TestIdleUntilEmptyMachineAtStart(t *testing.T) {
	// A machine that is completely empty at t=0 — every thread has a
	// future start — is idle immediately, waking at the earliest arrival;
	// and driving it through the engine completes the work rather than
	// spinning on the empty interval.
	m := testMachine(t)
	for id, start := range []sim.Time{70, 200} {
		place(t, m, platform.ThreadID(id), 0, 50, Demand{}, platform.CoreID(id))
		if err := m.SetStart(platform.ThreadID(id), start); err != nil {
			t.Fatal(err)
		}
	}
	wake, idle := m.IdleUntil(0)
	if !idle || wake != 70 {
		t.Errorf("IdleUntil(0) = (%v, %v), want (70, true)", wake, idle)
	}
	done := run(t, m, 10_000)
	if !m.Done() {
		t.Fatal("machine not done")
	}
	if done < 200 {
		t.Errorf("completion at %v, before the last thread's arrival at 200", done)
	}
}

func TestIdleUntilSkipsFinishedThreads(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 100, Demand{}, 0)
	if err := m.AddThread(1, 0, ConstProgram{Work: 50, Demand: Demand{}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStart(1, 500); err != nil {
		t.Fatal(err)
	}
	// Thread 0 runs now → busy.
	if _, idle := m.IdleUntil(0); idle {
		t.Error("IdleUntil reports idle while thread 0 is running")
	}
	// Thread 0 departs; only the future arrival remains → idle until 500.
	if err := m.Terminate(0, 10); err != nil {
		t.Fatal(err)
	}
	wake, idle := m.IdleUntil(10)
	if !idle || wake != 500 {
		t.Errorf("IdleUntil(10) = (%v, %v), want (500, true)", wake, idle)
	}
	// Everyone finished → not idle (the run is over, not waiting).
	if err := m.Terminate(1, sim.Time(500)); err != nil {
		t.Fatal(err)
	}
	if _, idle := m.IdleUntil(600); idle {
		t.Error("IdleUntil reports idle on a fully drained machine")
	}
}
