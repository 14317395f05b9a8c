package machine

import (
	"math"
	"sync"
	"testing"

	"dike/internal/sim"
)

// TestDecayTableMatchesExp checks the shared tables of both default
// half-lives entry by entry against the expression decay evaluates, bit
// for bit, and their length: 64 half-lives, at most 2^16 ages. A Table I
// machine must hold both, and half-lives that are not positive get no
// table.
func TestDecayTableMatchesExp(t *testing.T) {
	def := DefaultConfig()
	m := testMachine(t)
	for i, half := range []float64{def.ColdHalfLife, def.LocalColdHalfLife} {
		tab := sharedDecayTable(half)
		if got := m.decayTabs[i]; got.half != half || len(got.decay) == 0 || &got.decay[0] != &tab.decay[0] {
			t.Fatalf("half-life %g: the machine holds %d ages of half-life %g, not the shared table", half, len(got.decay), got.half)
		}
		if want := min(1<<16, int(math.Ceil(64*half))); len(tab.decay) != want {
			t.Errorf("half-life %g: %d ages, want %d", half, len(tab.decay), want)
		}
		for age := range tab.decay {
			want := math.Exp(-float64(age) * math.Ln2 / half)
			if math.Float64bits(tab.decay[age]) != math.Float64bits(want) {
				t.Fatalf("half-life %g, age %d: table %v, exp %v", half, age, tab.decay[age], want)
			}
		}
	}
	for _, half := range []float64{0, -1, math.NaN()} {
		if tab := sharedDecayTable(half); len(tab.decay) != 0 {
			t.Errorf("half-life %g: got a table of %d ages", half, len(tab.decay))
		}
	}
}

// TestDecayTablesShared steps identical Table I machines on separate
// goroutines (CI runs it under -race) while their threads swap across and
// within sockets, and one more machine that holds no shared table, so its
// decay takes the memo and exp. All must end with the same work, counters
// and energy, bit for bit, and the machines with tables must never have
// written their memo: with the default half-lives no decay calls exp.
func TestDecayTablesShared(t *testing.T) {
	const n, ticks, workers = 40, 3000, 4
	run := func(tables bool) (*Machine, error) {
		m, err := New(DefaultConfig())
		if err != nil {
			return nil, err
		}
		if !tables {
			m.decayTabs = [2]decayTable{}
		}
		for i := 0; i < n; i++ {
			dem := Demand{AccessesPerWork: float64(5 + i%7*5), MissRatio: 0.05 + float64(i%5)*0.05}
			if err := m.AddThread(ThreadID(i), i/4, ConstProgram{Work: 1e9, Demand: dem}); err != nil {
				return nil, err
			}
			if err := m.Place(ThreadID(i), CoreID(i)); err != nil {
				return nil, err
			}
		}
		for now := sim.Time(0); now < ticks; now++ {
			// Every 50 ms one pair swaps across sockets and one within a
			// socket, so both half-lives stay in use.
			if k := int(now / 50); now%50 == 0 {
				a := ThreadID(k % 20)
				if err := m.Swap(a, a+20, now); err != nil {
					return nil, err
				}
				if err := m.Swap(a, (a+1)%20, now); err != nil {
					return nil, err
				}
			}
			m.Step(now, 1)
		}
		return m, nil
	}
	ms := make([]*Machine, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[w], errs[w] = run(true)
		}()
	}
	wg.Wait()
	ref, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	memoUsed := func(m *Machine) bool {
		for _, e := range m.decays {
			if !math.IsNaN(e.half) {
				return true
			}
		}
		return false
	}
	if !memoUsed(ref) {
		t.Fatal("the machine without tables never used its memo")
	}
	for w, m := range ms {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if memoUsed(m) {
			t.Errorf("goroutine %d: decay took the memo with the default half-lives", w)
		}
		compareMachines(t, m, ref, "after the run")
	}
}
