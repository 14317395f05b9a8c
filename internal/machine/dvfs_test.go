package machine

import (
	"fmt"
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// dvfsSpec builds one socket of 2 perf + 2 eff physical cores with
// per-type frequency ladders, small enough that every edge case below
// runs in microseconds.
func dvfsSpec() *platform.MachineSpec {
	return &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{
			{Name: "perf", Speed: 2.4, SMTWays: 2, SMTPenalty: 0.75,
				DVFS: []float64{1, 0.85, 0.7, 0.55}},
			{Name: "eff", Speed: 1.2, SMTWays: 1, DVFS: []float64{1, 0.8, 0.6}},
		},
		Sockets: []platform.SocketSpec{
			{Cores: []platform.CoreGroup{{Type: "perf", Physical: 2}, {Type: "eff", Physical: 2}},
				Mem: platform.MemSpec{Capacity: 10, BaseLatency: 0.008, MaxUtil: 0.96}},
		},
	}
}

// levelMult is the speed multiplier of level on core c's type: the
// multiplier SetDVFS must leave in coreMult.
func levelMult(m *Machine, c platform.CoreID, level int) float64 {
	if tab := m.dvfsTab[m.topo.Core(c).Kind]; len(tab) > 0 {
		return tab[level]
	}
	return 1
}

func dvfsMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(specConfig(dvfsSpec()))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSetDVFSEdgeCases drives SetDVFS through its argument-validation
// edges: levels a type does not declare must be rejected without
// touching the core's multiplier, and level 0 must always be accepted —
// even on a type with no ladder at all.
func TestSetDVFSEdgeCases(t *testing.T) {
	// Core layout: 0-1 perf SMT lanes of phys 0, 2-3 of phys 1, then
	// eff cores 4-5 (single-lane). perf has 4 levels, eff has 3.
	cases := []struct {
		name  string
		core  platform.CoreID
		level int
		ok    bool
	}{
		{"perf nominal", 0, 0, true},
		{"perf deepest", 0, 3, true},
		{"perf beyond ladder", 0, 4, false},
		{"perf negative", 0, -1, false},
		{"eff deepest", 4, 2, true},
		{"eff beyond ladder", 4, 3, false},
		{"core out of range", 99, 0, false},
		{"negative core", -1, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := dvfsMachine(t)
			err := m.SetDVFS(tc.core, tc.level)
			if tc.ok && err != nil {
				t.Fatalf("SetDVFS(%d, %d): unexpected error %v", tc.core, tc.level, err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatalf("SetDVFS(%d, %d): expected error, got nil", tc.core, tc.level)
				}
				// A rejected call must not have moved the level.
				if int(tc.core) >= 0 && int(tc.core) < m.Topology().NumCores() {
					if got, want := m.coreMult[tc.core], levelMult(m, tc.core, 0); got != want {
						t.Fatalf("rejected SetDVFS moved the multiplier to %v, want %v", got, want)
					}
				}
				return
			}
			if got, want := m.coreMult[tc.core], levelMult(m, tc.core, tc.level); got != want {
				t.Fatalf("core %d multiplier = %v, want level %d's %v", tc.core, got, tc.level, want)
			}
		})
	}
}

// TestSetDVFSNoLadderAcceptsOnlyNominal: a core type that declares no
// DVFS table has exactly one level, the nominal one.
func TestSetDVFSNoLadderAcceptsOnlyNominal(t *testing.T) {
	m, err := New(specConfig(twoSocketSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetDVFS(0, 0); err != nil {
		t.Fatalf("level 0 on ladder-less type: %v", err)
	}
	if err := m.SetDVFS(0, 1); err == nil {
		t.Fatal("level 1 on ladder-less type: expected error")
	}
	if got := m.KindDVFSLevels()[m.topo.Core(0).Kind]; got != 1 {
		t.Fatalf("DVFSLevels = %d, want 1", got)
	}
}

// dvfsScenario runs a fixed thread mix while applying a DVFS schedule
// and returns a digest of everything that should be deterministic:
// per-thread finish times, final multipliers, and cumulative energy.
func dvfsScenario(t *testing.T, schedule func(m *Machine, now sim.Time)) string {
	t.Helper()
	m := dvfsMachine(t)
	dem := Demand{AccessesPerWork: 1, MissRatio: 0.1}
	place(t, m, 0, 0, 3000, dem, 0) // perf phys 0
	place(t, m, 1, 0, 3000, dem, 2) // perf phys 1
	place(t, m, 2, 1, 1500, dem, 4) // eff
	now := sim.Time(0)
	for !m.Done() {
		if now >= 100000 {
			t.Fatal("scenario did not finish")
		}
		if schedule != nil {
			schedule(m, now)
		}
		m.Step(now, 1)
		now++
	}
	digest := ""
	for id := platform.ThreadID(0); id < 3; id++ {
		at, ok := m.Finished(id)
		if !ok {
			t.Fatalf("thread %d not finished", id)
		}
		digest += fmt.Sprintf("t%d@%d;", id, at)
	}
	for c := platform.CoreID(0); int(c) < m.Topology().NumCores(); c++ {
		digest += fmt.Sprintf("c%d=%g;", c, m.coreMult[c])
	}
	digest += fmt.Sprintf("E=%.9g", m.EnergyJoules())
	return digest
}

// TestSetDVFSRepeatedSameLevelMidRun: re-issuing the level a core is
// already at must be a pure no-op — same finish times, same energy —
// and two identical runs of the same schedule must digest identically.
func TestSetDVFSRepeatedSameLevelMidRun(t *testing.T) {
	once := func(m *Machine, now sim.Time) {
		if now == 50 {
			if err := m.SetDVFS(0, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	repeated := func(m *Machine, now sim.Time) {
		// Same transition, then the same level re-issued every 100 ms.
		if now >= 50 && now%100 == 50 {
			if err := m.SetDVFS(0, 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	a, b := dvfsScenario(t, once), dvfsScenario(t, repeated)
	if a != b {
		t.Fatalf("re-issuing the current level changed the run:\n once: %s\n rep:  %s", a, b)
	}
	if again := dvfsScenario(t, once); again != a {
		t.Fatalf("identical schedules digest differently:\n %s\n %s", a, again)
	}
}

// TestSetDVFSMidMigration: throttling a core while a thread is paying
// its migration stall onto it must be legal and deterministic, and the
// throttle must actually slow the thread down versus leaving the core
// at nominal frequency.
func TestSetDVFSMidMigration(t *testing.T) {
	scenario := func(throttle bool) string {
		m := dvfsMachine(t)
		dem := Demand{AccessesPerWork: 1, MissRatio: 0.1}
		place(t, m, 0, 0, 3000, dem, 4) // start on eff core
		now := sim.Time(0)
		for !m.Done() {
			if now >= 100000 {
				t.Fatal("migration scenario did not finish")
			}
			if now == 20 {
				// Move to perf phys 0 (core 0) — the migration stall and
				// cold-cache penalty start here.
				if err := m.Migrate(0, 0, now); err != nil {
					t.Fatal(err)
				}
			}
			if throttle && now == 21 {
				// Throttle the destination while the stall is still being
				// paid.
				if err := m.SetDVFS(0, 3); err != nil {
					t.Fatal(err)
				}
			}
			m.Step(now, 1)
			now++
		}
		at, ok := m.Finished(0)
		if !ok {
			t.Fatal("thread 0 not finished")
		}
		return fmt.Sprintf("t0@%d;mult=%g;E=%.9g", at, m.coreMult[0], m.EnergyJoules())
	}
	throttled := scenario(true)
	if again := scenario(true); again != throttled {
		t.Fatalf("mid-migration throttle digests differently:\n %s\n %s", throttled, again)
	}
	free := scenario(false)
	if throttled == free {
		t.Fatal("throttling the migration target had no effect on the run")
	}
}
