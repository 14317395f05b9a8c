package machine

import (
	"math"
	"sync"
	"testing"

	"dike/internal/platform"
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
// decay falls back to exp. All must end with the same work, counters and
// energy, bit for bit. Every decay the machines with tables evaluate must
// be one a table covers: with the default half-lives no decay calls exp.
func TestDecayTablesShared(t *testing.T) {
	const n, ticks, workers = 40, 3000, 4
	type result struct {
		m                 *Machine
		tabled, fallbacks int // decays evaluated from a table, and by exp
		err               error
	}
	run := func(tables bool) (r result) {
		m, err := New(DefaultConfig())
		if err != nil {
			return result{err: err}
		}
		r.m = m
		if !tables {
			m.decayTabs = [2]decayTable{}
		}
		for i := 0; i < n; i++ {
			dem := Demand{AccessesPerWork: float64(5 + i%7*5), MissRatio: 0.05 + float64(i%5)*0.05}
			if r.err = m.AddThread(platform.ThreadID(i), i/4, ConstProgram{Work: 1e9, Demand: dem}); r.err != nil {
				return r
			}
			if r.err = m.Place(platform.ThreadID(i), platform.CoreID(i)); r.err != nil {
				return r
			}
		}
		for now := sim.Time(0); now < ticks; now++ {
			// Every 50 ms one pair swaps across sockets and one within a
			// socket, so both half-lives stay in use.
			if k := int(now / 50); now%50 == 0 {
				a := platform.ThreadID(k % 20)
				if r.err = m.Swap(a, a+20, now); r.err != nil {
					return r
				}
				if r.err = m.Swap(a, (a+1)%20, now); r.err != nil {
					return r
				}
			}
			m.Step(now, 1)
			for _, th := range m.scratchT {
				// Step evaluated th's decay unless its penalty had settled
				// at an earlier age.
				if age := max(now-th.migratedAt, 0); th.migratedAt >= 0 && age <= th.settleAge {
					if tabled(m, age, th.coldHalf) {
						r.tabled++
					} else {
						r.fallbacks++
					}
				}
			}
		}
		return r
	}
	rs := make([]result, workers)
	var wg sync.WaitGroup
	for w := range rs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs[w] = run(true)
		}()
	}
	wg.Wait()
	ref := run(false)
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if ref.fallbacks == 0 || ref.tabled != 0 {
		t.Fatalf("the machine without tables took %d decays from exp and %d from a table", ref.fallbacks, ref.tabled)
	}
	for w, r := range rs {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.fallbacks != 0 || r.tabled != ref.fallbacks {
			t.Errorf("goroutine %d: %d decays from a table and %d from exp, want all %d from a table",
				w, r.tabled, r.fallbacks, ref.fallbacks)
		}
		compareMachines(t, r.m, ref.m, "after the run")
	}
}
