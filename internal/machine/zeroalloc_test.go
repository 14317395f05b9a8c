package machine

import (
	"runtime/debug"
	"testing"

	"dike/internal/platform"
	"dike/internal/sim"
)

// waveProgram alternates between two demands every few ticks, so the
// contention solver's inputs change and its cold path runs as well as
// its memo.
type waveProgram struct{ lo, hi Demand }

func (waveProgram) TotalWork() float64 { return 1e9 }

// DemandAt answers for the current tick only, so the machine refreshes
// its demand cache on every tick.
func (p waveProgram) DemandAt(_ float64, now sim.Time) (Demand, Window) {
	win := Forever()
	win.From, win.To = now, now
	if now%5 < 2 {
		return p.hi, win
	}
	return p.lo, win
}

// TestStepZeroAlloc gates the tick loop at exactly zero allocations per
// Step: both the first Step after placement and the steady state, on the
// Table I machine, on a two-socket machine with one memory controller per
// socket (the per-domain solve), with a pending arrival and a migration
// in flight, under open-loop churn, and with a memory-bound and a mixed
// population. The churn case also measures single ticks and requires
// both kinds of admit among them: ticks that rescan the thread slots for
// arrivals and ticks that only compact out finished threads. The last two
// cases measure single ticks whose solve takes the saturation shortcut
// and ticks whose solve falls through to the damped loop. Four more take
// the paths that rebuild or refresh a cached per-tick input: a burst of
// cross-socket swaps every few ticks, DVFS level changes, a disruptor
// that throttles cores (rates per tick), and programs whose demand
// windows are left by work and by time.
func TestStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	wave := waveProgram{
		lo: Demand{AccessesPerWork: 5, MissRatio: 0.02},
		hi: Demand{AccessesPerWork: 40, MissRatio: 0.3},
	}
	// population places n threads on the Table I machine, one per lane,
	// alternating between the two programs.
	population := func(t *testing.T, n int, even, odd waveProgram) *Machine {
		m := testMachine(t)
		for i := 0; i < n; i++ {
			prog := odd
			if i%2 == 0 {
				prog = even
			}
			if err := m.AddThread(platform.ThreadID(i), 0, prog); err != nil {
				t.Fatal(err)
			}
			if err := m.Place(platform.ThreadID(i), platform.CoreID(i)); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	cases := []struct {
		name  string
		build func(t *testing.T) *Machine
		churn bool
		path  solvePath // the solve path single ticks must include, if any
		// perturb, if set, runs before every measured Step; when it
		// rebuilds, some measured tick must find the occupancy dirty.
		perturb  func(m *Machine, now sim.Time)
		rebuilds bool
	}{
		{name: "table1", build: func(t *testing.T) *Machine {
			m := testMachine(t)
			// 48 threads on 40 lanes: SMT siblings busy and some lanes
			// time-shared; two threads coupled by a barrier.
			for i := 0; i < 48; i++ {
				if err := m.AddThread(platform.ThreadID(i), i/4, wave); err != nil {
					t.Fatal(err)
				}
				if err := m.Place(platform.ThreadID(i), platform.CoreID(i%40)); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.AddBarrierGroup(100, []platform.ThreadID{0, 1}); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{name: "per-socket", build: func(t *testing.T) *Machine {
			m, err := New(specConfig(twoSocketSpec()))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				if err := m.AddThread(platform.ThreadID(i), 0, wave); err != nil {
					t.Fatal(err)
				}
				if err := m.Place(platform.ThreadID(i), platform.CoreID(i%6)); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}},
		{name: "arrival-and-migration", build: func(t *testing.T) *Machine {
			m := testMachine(t)
			for i := 0; i < 6; i++ {
				if err := m.AddThread(platform.ThreadID(i), 0, wave); err != nil {
					t.Fatal(err)
				}
				if err := m.Place(platform.ThreadID(i), platform.CoreID(i)); err != nil {
					t.Fatal(err)
				}
			}
			// Thread 5 arrives mid-window; thread 0 moves across sockets
			// before the first Step and stays stalled for MigrationStall.
			if err := m.SetStart(5, 30); err != nil {
				t.Fatal(err)
			}
			if err := m.Migrate(0, 30, 0); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{name: "traffic-churn", churn: true, build: func(t *testing.T) *Machine {
			m := testMachine(t)
			// 300 requests, one arriving every 3 ms, each done within
			// tens of ticks: far more threads registered than alive.
			for i := 0; i < 300; i++ {
				id := platform.ThreadID(i)
				if err := m.AddThread(id, i%4, ConstProgram{Work: float64(20 + i%7*10), Demand: wave.hi}); err != nil {
					t.Fatal(err)
				}
				if err := m.Place(id, platform.CoreID(i%40)); err != nil {
					t.Fatal(err)
				}
				if err := m.SetStart(id, sim.Time(3*i)); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}},
		{name: "saturated", path: pathShortcut, build: func(t *testing.T) *Machine {
			heavy := waveProgram{lo: wave.hi, hi: Demand{AccessesPerWork: 30, MissRatio: 0.5}}
			return population(t, 40, heavy, heavy)
		}},
		{name: "fall-through", path: pathFellThrough, build: func(t *testing.T) *Machine {
			mem := waveProgram{lo: Demand{AccessesPerWork: 20, MissRatio: 0.25}, hi: Demand{AccessesPerWork: 20, MissRatio: 0.26}}
			cpu := waveProgram{lo: Demand{AccessesPerWork: 3, MissRatio: 0.03}, hi: Demand{AccessesPerWork: 3, MissRatio: 0.02}}
			return population(t, 40, mem, cpu)
		}},
		{name: "migration-burst", rebuilds: true, build: func(t *testing.T) *Machine {
			return population(t, 40, wave, wave)
		}, perturb: func(m *Machine, now sim.Time) {
			// Every 7 ticks, eight threads on socket 0 swap with eight on
			// socket 1.
			if now%7 != 0 {
				return
			}
			for i := 0; i < 8; i++ {
				if err := m.Swap(platform.ThreadID(i), platform.ThreadID(20+i), now); err != nil {
					panic(err)
				}
			}
		}},
		{name: "dvfs-change", rebuilds: true, build: func(t *testing.T) *Machine {
			m := dvfsMachine(t)
			for i := 0; i < 8; i++ {
				if err := m.AddThread(platform.ThreadID(i), 0, wave); err != nil {
					t.Fatal(err)
				}
				if err := m.Place(platform.ThreadID(i), platform.CoreID(i%6)); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}, perturb: func(m *Machine, now sim.Time) {
			if now%3 == 0 {
				c := platform.CoreID(now / 3 % 6)
				if err := m.SetDVFS(c, int(now)%m.KindDVFSLevels()[m.topo.Core(c).Kind]); err != nil {
					panic(err)
				}
			}
		}},
		{name: "disruptor", build: func(t *testing.T) *Machine {
			m := population(t, 40, wave, wave)
			m.SetDisruptor(&stubDisruptor{factor: map[platform.CoreID]float64{0: 0.5, 3: 0, 21: 0.8}})
			return m
		}},
		{name: "window-refresh", build: func(t *testing.T) *Machine {
			// Phases end every 3 work units and demand flips every 4 ms,
			// so windows are left by work and by time within the run.
			stepped := stepProgram{total: 1e9, period: 4, scale: 2}
			for b := 3.0; b < 300; b += 3 {
				stepped.bounds = append(stepped.bounds, b)
				stepped.dems = append(stepped.dems, Demand{AccessesPerWork: b / 10, MissRatio: 0.1})
			}
			stepped.dems = append(stepped.dems, wave.lo)
			m := testMachine(t)
			for i := 0; i < 40; i++ {
				if err := m.AddThread(platform.ThreadID(i), 0, stepped); err != nil {
					t.Fatal(err)
				}
				if err := m.Place(platform.ThreadID(i), platform.CoreID(i)); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// First Step: AllocsPerRun calls f runs+1 times (one warm-up),
			// each on a fresh machine.
			const runs = 5
			fresh := make([]*Machine, runs+1)
			for i := range fresh {
				fresh[i] = tc.build(t)
			}
			next := 0
			first := testing.AllocsPerRun(runs, func() {
				fresh[next].Step(0, 1)
				next++
			})
			if first != 0 {
				t.Errorf("first Step: %v allocs, want 0", first)
			}

			m := tc.build(t)
			now := sim.Time(0)
			dirty := 0
			steady := testing.AllocsPerRun(100, func() {
				if tc.perturb != nil {
					tc.perturb(m, now)
				}
				if m.dirty {
					dirty++
				}
				m.Step(now, 1)
				now++
			})
			if steady != 0 {
				t.Errorf("steady Step: %v allocs/tick, want 0", steady)
			}
			if m.AliveCount() == 0 || m.Done() {
				t.Fatal("threads finished inside the measured window")
			}
			if tc.rebuilds && dirty == 0 {
				t.Error("no measured tick rebuilt the occupancy")
			}
			if tc.churn {
				churnTicks(t, m, now)
			}
			if tc.path != 0 {
				solveTicks(t, m, now, tc.path)
			}
		})
	}
}

// churnTicks measures single ticks of a churning machine, from now on,
// terminating a running thread and a pending one every few ticks. Every
// tick must allocate nothing, and the measured ticks must include both a
// rescan and a compaction.
func churnTicks(t *testing.T, m *Machine, now sim.Time) {
	t.Helper()
	var rescans, compactions int
	for i := 0; i < 40; i++ {
		var rescan bool
		allocs := testing.AllocsPerRun(1, func() {
			if now%5 == 0 && len(m.live) > 0 {
				if err := m.Terminate(m.live[0].id, now); err != nil {
					t.Fatal(err)
				}
				if err := m.Terminate(platform.ThreadID(len(m.slots)-1-int(now)), now); err != nil {
					t.Fatal(err)
				}
			}
			rescan = m.stale(now)
			m.Step(now, 1)
			now++
		})
		if allocs != 0 {
			t.Errorf("tick %d (rescan %v): %v allocs, want 0", now-1, rescan, allocs)
		}
		if rescan {
			rescans++
		} else {
			compactions++
		}
	}
	if rescans == 0 || compactions == 0 {
		t.Errorf("measured %d rescan and %d compaction ticks, want both", rescans, compactions)
	}
}

// solvePath is the way a tick's contention solve went.
type solvePath int

const (
	pathMemo        solvePath = iota + 1 // the memo served it
	pathShortcut                         // the saturation shortcut answered
	pathFellThrough                      // round 0 clamped, the shortcut's pass did not
	pathLoop                             // round 0 did not clamp: the damped loop alone
)

// solveTicks measures single ticks of a single-controller machine, from
// now on. Every tick must allocate nothing, and the measured ticks must
// include one whose solve took path.
func solveTicks(t *testing.T, m *Machine, now sim.Time, path solvePath) {
	t.Helper()
	s := &m.solvers[0]
	seen := map[solvePath]int{}
	for i := 0; i < 40; i++ {
		var before int // passes before the measured (last) call
		allocs := testing.AllocsPerRun(1, func() {
			before = s.passes
			m.Step(now, 1)
			now++
		})
		p := pathOf(s, s.passes-before)
		if allocs != 0 {
			t.Errorf("tick %d (solve path %d): %v allocs, want 0", now-1, p, allocs)
		}
		seen[p]++
	}
	t.Logf("solve paths of the measured ticks: %v", seen)
	if seen[path] == 0 {
		t.Errorf("no measured tick took solve path %d; paths seen %v", path, seen)
	}
}

// pathOf classifies the solve s just ran, which took passes passes, by
// replaying round 0 and the shortcut on a fresh solver over the memoized
// inputs.
func pathOf(s *contentionSolver, passes int) solvePath {
	if passes == 0 {
		return pathMemo
	}
	fresh := contentionSolver{ctrl: s.ctrl, overlap: s.overlap}
	rates, mpw, hit, lat := s.memoRates, s.memoMpw, s.memoHits, s.memoLat
	out := make([]float64, len(rates))
	l0 := s.ctrl.Latency(0)
	next := s.ctrl.Latency(fresh.pass(rates, mpw, hit, lat, l0, out))
	switch _, ok := fresh.saturated(rates, mpw, hit, lat, l0, next, out); {
	case ok:
		return pathShortcut
	case fresh.passes == 2:
		return pathFellThrough
	}
	return pathLoop
}

// TestAddThreadAllocs pins the allocations of registering 1,000 threads
// on a fresh Table I machine: the thread itself, and the amortised growth
// of the by-id map, the slots and the per-thread Step buffers. A thread's
// counter block lives in its thread, so it costs nothing more.
func TestAddThreadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const n, want = 1000, 1198
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = ConstProgram{Work: 100, Demand: Demand{AccessesPerWork: 10, MissRatio: 0.1}}
	}
	build := func(threads int) func() {
		return func() {
			m, err := New(DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for i, prog := range progs[:threads] {
				if err := m.AddThread(platform.ThreadID(i), 0, prog); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A collection may allocate in the runtime while it measures.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	got := testing.AllocsPerRun(5, build(n)) - testing.AllocsPerRun(5, build(0))
	if got != want {
		t.Errorf("registering %d threads allocates %v times, want %d", n, got, want)
	}
}
