package machine

import (
	"slices"
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// The slot walks below are what Done, IdleUntil and Step's per-tick loops
// did before the live set: oracleDone and oracleIdleUntil are the old
// methods verbatim but for their receivers, and oracleAlive is the filter
// both Step loops applied to every slot. They visit every registered
// thread, so they are the oracle the live set must agree with.

// oracleAlive is the set Step's occupancy and gather loops walked: every
// registered thread that has arrived by now and not finished, in
// registration order.
func oracleAlive(m *Machine, now sim.Time) []platform.ThreadID {
	var out []platform.ThreadID
	for _, t := range m.slots {
		if t.alive(now) {
			out = append(out, t.id)
		}
	}
	return out
}

// oracleDone is the slot-walk Done.
func oracleDone(m *Machine) bool {
	for _, t := range m.slots {
		if !t.finished {
			return false
		}
	}
	return true
}

// oracleIdleUntil is the slot-walk IdleUntil.
func oracleIdleUntil(m *Machine, now sim.Time) (sim.Time, bool) {
	wake := sim.Time(-1)
	for _, t := range m.slots {
		if t.finished {
			continue
		}
		if t.startAt <= now {
			return 0, false // runnable work exists right now
		}
		if wake < 0 || t.startAt < wake {
			wake = t.startAt
		}
	}
	if wake < 0 {
		return 0, false
	}
	return wake, true
}

// liveIDs returns the ids of the threads the last admit left in live:
// after a Step, exactly the threads that Step walked.
func liveIDs(m *Machine) []platform.ThreadID {
	var out []platform.ThreadID
	for _, t := range m.live {
		out = append(out, t.id)
	}
	return out
}

// churnScenario registers a seeded random mix on the Table I machine:
// more threads than lanes, staggered arrivals, short and long programs
// (so threads complete mid-run), and a few barrier groups.
func churnScenario(t *testing.T, rng *sim.RNG) *Machine {
	t.Helper()
	m := testMachine(t)
	n := 1 + rng.Intn(70)
	spread := 1 + rng.Intn(3000) // arrival window: dense to sparse
	for i := 0; i < n; i++ {
		id := platform.ThreadID(i)
		dem := Demand{AccessesPerWork: uniform(rng, 0, 40), MissRatio: uniform(rng, 0, 0.4)}
		if err := m.AddThread(id, i%5, ConstProgram{Work: uniform(rng, 5, 600), Demand: dem}); err != nil {
			t.Fatal(err)
		}
		if err := m.Place(id, platform.CoreID(rng.Intn(m.Topology().NumCores()))); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			if err := m.SetStart(id, sim.Time(rng.Intn(spread))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for g := 0; g+1 < n && g < 12; g += 3 {
		if err := m.AddBarrierGroup(uniform(rng, 5, 50), []platform.ThreadID{platform.ThreadID(g), platform.ThreadID(g + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestLiveSetMatchesSlotWalk drives seeded random scenarios through the
// engine's tick pattern (idle jumps included) while the test terminates
// threads before and after arrival, re-times pending arrivals, migrates
// threads and has the disruptor stall and crash them. Before every Step
// it checks IdleUntil against the slot walk; after it, that Step walked
// exactly the slot walk's alive set in registration order and that Done
// and FinishedCount agree. Each scenario runs for a bounded number of
// ticks rather than to completion: a barrier member whose work lands on
// a segment boundary in floating point can stop advancing.
func TestLiveSetMatchesSlotWalk(t *testing.T) {
	cover := map[string]int{
		"completion": 0, "crash": 0, "idle jump": 0,
		"terminate before arrival": 0, "terminate after arrival": 0,
	}
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		m := churnScenario(t, rng)
		dis := &stubDisruptor{stall: map[platform.ThreadID]bool{}, crash: map[platform.ThreadID]bool{}}
		m.SetDisruptor(dis)
		n := len(m.slots)
		now := sim.Time(0)
		for tick := 0; tick < 4000 && !oracleDone(m); tick++ {
			// Perturb the machine between ticks. Injected stalls last
			// until the next multiple of 20 ticks.
			if tick%20 == 0 {
				clear(dis.stall)
			}
			id := platform.ThreadID(rng.Intn(n))
			switch r := rng.Intn(100); {
			case r < 3:
				if th := m.slots[id]; !th.finished && th.startAt > now {
					cover["terminate before arrival"]++
				} else if th.alive(now) {
					cover["terminate after arrival"]++
				}
				if err := m.Terminate(id, now); err != nil {
					t.Fatal(err)
				}
			case r < 6:
				if start, _ := m.StartOf(id); start > now {
					if err := m.SetStart(id, now+sim.Time(rng.Intn(200))); err != nil {
						t.Fatal(err)
					}
				}
			case r < 10:
				dis.stall[id] = true
			case r < 11:
				dis.crash[id] = true
			case r < 14:
				if err := m.Migrate(id, platform.CoreID(rng.Intn(m.Topology().NumCores())), now); err != nil {
					t.Fatal(err)
				}
			case r < 15 && now > 0:
				// A query for an earlier instant must not corrupt the set.
				past := sim.Time(rng.Intn(int(now)))
				checkIdle(t, m, past, seed, tick)
			}

			dt := sim.Time(1 + rng.Intn(3))
			checkIdle(t, m, now, seed, tick)
			if wake, idle := oracleIdleUntil(m, now); idle && wake > now+dt {
				dt = wake - now
				cover["idle jump"]++
			}
			want := oracleAlive(m, now)
			crashes := dis.crashes
			m.Step(now, dt)
			cover["crash"] += dis.crashes - crashes
			for _, th := range m.live {
				if th.finished && th.tc.Work >= th.prog.TotalWork()-1e-9 {
					cover["completion"]++
				}
			}
			if got := liveIDs(m); !slices.Equal(got, want) {
				t.Fatalf("seed %d tick %d (now %d): Step walked %v, slot walk alive %v", seed, tick, now, got, want)
			}
			if got, want := m.Done(), oracleDone(m); got != want {
				t.Fatalf("seed %d tick %d: Done = %v, slot walk %v", seed, tick, got, want)
			}
			if got, want := m.FinishedCount(), n-len(oracleUnfinished(m)); got != want {
				t.Fatalf("seed %d tick %d: FinishedCount = %d, want %d", seed, tick, got, want)
			}
			now += dt
		}
	}
	for what, n := range cover {
		if n == 0 {
			t.Errorf("no scenario covered %s", what)
		}
	}
}

// oracleUnfinished returns the registered threads not yet finished.
func oracleUnfinished(m *Machine) []platform.ThreadID {
	var out []platform.ThreadID
	for _, t := range m.slots {
		if !t.finished {
			out = append(out, t.id)
		}
	}
	return out
}

// checkIdle compares IdleUntil(now) with the slot walk.
func checkIdle(t *testing.T, m *Machine, now sim.Time, seed uint64, tick int) {
	t.Helper()
	wantWake, wantIdle := oracleIdleUntil(m, now)
	gotWake, gotIdle := m.IdleUntil(now)
	if gotWake != wantWake || gotIdle != wantIdle {
		t.Fatalf("seed %d tick %d: IdleUntil(%d) = (%d, %v), slot walk (%d, %v)",
			seed, tick, now, gotWake, gotIdle, wantWake, wantIdle)
	}
}

// TestArrivedUnplacedThreadPanics pins that a thread which arrives
// unplaced mid-run still panics on the Step that admits it, not before.
func TestArrivedUnplacedThreadPanics(t *testing.T) {
	m := testMachine(t)
	place(t, m, 0, 0, 1e6, Demand{}, 0)
	if err := m.AddThread(1, 0, ConstProgram{Work: 10}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStart(1, 5); err != nil {
		t.Fatal(err)
	}
	for now := sim.Time(0); now < 5; now++ {
		m.Step(now, 1)
	}
	defer func() {
		if recover() == nil {
			t.Error("stepping an arrived, unplaced thread did not panic")
		}
	}()
	m.Step(5, 1)
}
