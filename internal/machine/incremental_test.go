package machine

import (
	"fmt"
	"math"
	"os"
	"testing"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// oracleStep is Step as it was before its per-tick inputs were cached,
// verbatim but for its receiver and four calls: it rebuilds lane
// occupancy, socket watts and every rate on every tick, asks the program
// for demand on every tick (ignoring the window), evaluates the migration
// decay with its own exp for every thread, gathers in registration order
// and partitions by controller domain in oracleSolveDomains, and divides
// every barrier member's work in oracleLimit. It is the oracle the
// incremental Step must agree with bit for bit. It runs on a machine of
// its own, whose caches it never reads.
func oracleStep(m *Machine, now sim.Time, dt sim.Time) {
	if dt <= 0 {
		return
	}
	m.lastNow = now + dt
	laneCount, physBusy := m.laneCount, m.physBusy
	clear(laneCount)
	clear(physBusy)
	clear(m.sockDyn)
	m.admit(now)
	for _, t := range m.live {
		if !t.placed {
			panic(fmt.Sprintf("machine: thread %d stepped before placement", t.id))
		}
		if laneCount[t.core] == 0 {
			c := &m.cores[t.core]
			share := smtDynShare
			if physBusy[c.Physical] == 0 {
				share = 1
			}
			mult := m.coreMult[t.core]
			m.sockDyn[c.Socket] += m.dynPeak[c.Kind] * mult * mult * mult * share
			physBusy[c.Physical]++
		}
		laneCount[t.core]++
	}
	fdtSec := float64(dt) / 1000
	for s := range m.sockWatts {
		w := m.sockStatic[s] + m.sockDyn[s]
		m.sockWatts[s] = w
		m.energyJ += w * fdtSec
	}

	active := m.scratchT[:0]
	rates := m.scratchRates[:0]
	apws := m.scratchApw[:0]
	mpws := m.scratchMpw[:0]
	hits := m.scratchHit[:0]
	lats := m.scratchLat[:0]
	hitLat := m.cfg.LLCHitLatency
	for _, t := range m.live {
		if t.stallUntil > now {
			t.tc.StallTime += float64(dt)
			continue
		}
		if m.disruptor != nil {
			stalled, crashed := m.disruptor.ThreadFault(t.id, now)
			if crashed {
				t.finished = true
				t.finishAt = now + dt
				m.unfinished--
				continue
			}
			if stalled {
				t.tc.StallTime += float64(dt)
				continue
			}
		}
		core := &m.cores[t.core]
		rate := core.Speed
		rate *= m.coreMult[t.core]
		if m.disruptor != nil {
			factor := m.disruptor.CoreFactor(t.core, now)
			if factor <= 0 {
				t.tc.StallTime += float64(dt)
				continue
			}
			rate *= factor
		}
		if physBusy[core.Physical] > 1 {
			rate *= m.smtPen[core.Kind]
		}
		if n := laneCount[t.core]; n > 1 {
			rate /= float64(n)
		}
		dem, _ := t.prog.DemandAt(t.tc.Work, now)
		cold, numa := oracleMigrationFactors(t, now)
		if cold > 1 {
			dem.MissRatio = math.Min(dem.MissRatio*cold, 1)
		}
		active = append(active, t)
		rates = append(rates, rate)
		apws = append(apws, dem.AccessesPerWork)
		mpws = append(mpws, dem.MissesPerWork())
		hits = append(hits, dem.AccessesPerWork*hitLat)
		lats = append(lats, numa)
	}
	m.scratchT, m.scratchRates, m.scratchLat = active, rates, lats
	m.scratchApw, m.scratchMpw, m.scratchHit = apws, mpws, hits

	if len(active) == 0 {
		return
	}
	prog := m.scratchProg[:len(active)]
	if len(m.ctrls) == 1 {
		offered := m.solvers[0].solve(rates, mpws, hits, lats, prog)
		m.lastUtil = m.ctrls[0].Utilization(offered)
	} else {
		oracleSolveDomains(m, active, rates, mpws, hits, lats, prog)
	}

	fdt := float64(dt)
	for i, t := range active {
		dw := prog[i] * fdt
		limit := t.prog.TotalWork() - t.tc.Work
		if t.barrier != nil {
			if bl := oracleLimit(t.barrier, t, now) - t.tc.Work; bl < limit {
				limit = bl
			}
		}
		if limit < 0 {
			limit = 0
		}
		used := fdt
		if dw > limit {
			if dw > 0 {
				used = fdt * limit / dw
			}
			dw = limit
		}
		tc := &t.tc
		tc.Work += dw
		tc.Instructions += dw * 1000
		tc.Accesses += dw * apws[i]
		misses := dw * mpws[i]
		tc.Misses += misses
		m.coreCtr[t.core].ServedMisses += misses
		if t.tc.Work >= t.prog.TotalWork()-1e-9 {
			t.finished = true
			m.unfinished--
			t.finishAt = now + sim.Time(math.Ceil(used))
			if t.finishAt < now+1 {
				t.finishAt = now + 1
			}
			if t.finishAt > now+dt {
				t.finishAt = now + dt
			}
		}
	}
}

// oracleSolveDomains is the per-domain solve as it was: active threads
// are partitioned by their core's controller domain (preserving
// registration order within each domain), each domain's solver runs over
// its threads' copied sub-slices, and the progress rates are scattered
// back. lastUtil is the hottest controller's utilisation.
func oracleSolveDomains(m *Machine, active []*thread, rates, mpws, hits, lats, prog []float64) {
	nd := len(m.ctrls)
	domIdx := make([][]int, nd)
	m.lastUtil = 0
	for i, t := range active {
		d := m.coreDomain[t.core]
		domIdx[d] = append(domIdx[d], i)
	}
	for d := 0; d < nd; d++ {
		idx := domIdx[d]
		if len(idx) == 0 {
			continue
		}
		var r, mp, ht, lt []float64
		for _, i := range idx {
			r = append(r, rates[i])
			mp = append(mp, mpws[i])
			ht = append(ht, hits[i])
			lt = append(lt, lats[i])
		}
		out := make([]float64, len(idx))
		offered := m.solvers[d].solve(r, mp, ht, lt, out)
		for j, i := range idx {
			prog[i] = out[j]
		}
		if u := m.ctrls[d].Utilization(offered); u > m.lastUtil {
			m.lastUtil = u
		}
	}
}

// oracleMigrationFactors is the migration decay as it was: one exp per
// thread per tick, never settled.
func oracleMigrationFactors(t *thread, now sim.Time) (cold, numa float64) {
	cold, numa = 1, 1
	if t.migratedAt < 0 || (t.coldBoost <= 0 && t.numaBoost <= 0) {
		return cold, numa
	}
	age := float64(now - t.migratedAt)
	if age < 0 {
		age = 0
	}
	decay := math.Exp(-age * math.Ln2 / t.coldHalf)
	if t.coldBoost > 0 {
		cold = 1 + t.coldBoost*decay
	}
	if t.numaBoost > 0 {
		numa = 1 + t.numaBoost*decay
	}
	return cold, numa
}

// oracleLimit is the barrier limit as it was: it divides every member's
// work on every call.
func oracleLimit(g *barrierGroup, t *thread, now sim.Time) float64 {
	minSeg := math.MaxFloat64
	for _, m := range g.members {
		if m.finished || m.startAt > now {
			continue
		}
		seg := math.Floor(m.tc.Work / g.interval)
		if seg < minSeg {
			minSeg = seg
		}
	}
	if minSeg == math.MaxFloat64 {
		return t.prog.TotalWork()
	}
	return (minSeg + 1) * g.interval
}

// stepProgram is a Program whose demand steps with work and with time:
// phase k holds from bounds[k-1] up to bounds[k], and in every odd period
// of period ms the accesses per work are scaled. Its windows are exact.
type stepProgram struct {
	total  float64
	bounds []float64 // ascending phase bounds, one fewer than dems
	dems   []Demand
	period sim.Time // 0: no time variation
	scale  float64
}

func (p stepProgram) TotalWork() float64 { return p.total }

func (p stepProgram) DemandAt(work float64, now sim.Time) (Demand, Window) {
	win := Forever()
	k := 0
	for k < len(p.bounds) && work >= p.bounds[k] {
		win.WorkFrom = p.bounds[k]
		k++
	}
	if k < len(p.bounds) {
		win.WorkTo = math.Nextafter(p.bounds[k], math.Inf(-1))
	}
	d := p.dems[k]
	if p.period > 0 {
		q := now / p.period
		if now%p.period < 0 {
			q--
		}
		if q%2 != 0 {
			d.AccessesPerWork *= p.scale
		}
		win.From, win.To = q*p.period, q*p.period+p.period-1
	}
	return d, win
}

// windowDisruptor is a deterministic disruptor with time windows: cores
// offline or throttled, threads stalled, threads crashing from an instant
// on, and migrations failing by a hash of their arguments. Its answers
// depend only on its arguments, so two machines asking it the same
// questions get the same answers. crashes counts the crashes it
// reported, to either machine.
type windowDisruptor struct {
	offline  map[platform.CoreID][2]sim.Time // [from, to)
	throttle map[platform.CoreID]float64     // factor in every other 40 ms window
	stall    map[platform.ThreadID][2]sim.Time
	crash    map[platform.ThreadID]sim.Time // crashed from then on
	failMod  uint64                         // a migration fails when its hash is 0 mod failMod
	crashes  int
}

func (d *windowDisruptor) CoreFactor(c platform.CoreID, now sim.Time) float64 {
	if w, ok := d.offline[c]; ok && w[0] <= now && now < w[1] {
		return 0
	}
	if f, ok := d.throttle[c]; ok && (now/40)%2 == 1 {
		return f
	}
	return 1
}

func (d *windowDisruptor) MigrationFails(id platform.ThreadID, to platform.CoreID, now sim.Time) bool {
	h := (uint64(id)*31+uint64(to))*0x9E3779B97F4A7C15 ^ uint64(now)
	return h%d.failMod == 0
}

func (d *windowDisruptor) ThreadFault(id platform.ThreadID, now sim.Time) (stalled, crashed bool) {
	if at, ok := d.crash[id]; ok && now >= at {
		d.crashes++
		return false, true
	}
	w, ok := d.stall[id]
	return ok && w[0] <= now && now < w[1], false
}

func (d *windowDisruptor) PerturbDelta(_ platform.ThreadID, _ sim.Time, delta counters.ThreadDelta) (counters.ThreadDelta, bool) {
	return delta, true
}

// exampleSpec parses a machine spec from examples/machines.
func exampleSpec(t testing.TB, name string) *platform.MachineSpec {
	t.Helper()
	data, err := os.ReadFile("../../examples/machines/" + name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := platform.ParseMachineSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// incScenario builds one seeded scenario: a machine (Table I, the DVFS
// single socket, two per-socket controllers, or the dvfs8 and big4x4
// examples), migration half-lives, and a mix of constant, stepped and
// per-tick programs with staggered arrivals and barrier groups. One seed
// in three, seed 1 first, keeps DefaultConfig's half-lives, whose decay
// comes from the shared tables; the others draw short ones, so penalties
// settle within the run, and their decay mostly falls back to exp (the
// process holds at most maxDecayTables tables). Called twice
// with equal seeds it builds two identical machines.
func incScenario(t *testing.T, seed uint64) (*Machine, *windowDisruptor) {
	t.Helper()
	rng := sim.NewRNG(seed)
	var cfg Config
	switch seed % 5 {
	case 0:
		cfg = DefaultConfig()
	case 1:
		cfg = specConfig(dvfsSpec())
	case 2:
		cfg = specConfig(twoSocketSpec())
	case 3:
		cfg = specConfig(exampleSpec(t, "dvfs8.json"))
	default:
		cfg = specConfig(exampleSpec(t, "big4x4.json"))
	}
	if seed%3 != 1 {
		cfg.ColdHalfLife = uniform(rng, 3, 25)
		cfg.LocalColdHalfLife = uniform(rng, 1, 8)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nc := m.Topology().NumCores()
	n := 2 + rng.Intn(3*nc/2+4)
	spread := 1 + rng.Intn(800)
	for i := 0; i < n; i++ {
		id := platform.ThreadID(i)
		dem := func() Demand { return Demand{AccessesPerWork: uniform(rng, 0, 40), MissRatio: uniform(rng, 0, 0.4)} }
		work := uniform(rng, 20, 1500)
		var prog Program
		switch rng.Intn(4) {
		case 0:
			prog = ConstProgram{Work: work, Demand: dem()}
		case 1:
			prog = waveProgram{lo: dem(), hi: dem()}
		default:
			sp := stepProgram{total: work, scale: uniform(rng, 0.2, 3)}
			for b := uniform(rng, 0, work/3); b < work && len(sp.bounds) < 4; b += uniform(rng, 1, work/2) {
				sp.bounds = append(sp.bounds, b)
				sp.dems = append(sp.dems, dem())
			}
			sp.dems = append(sp.dems, dem())
			if rng.Intn(3) > 0 {
				sp.period = sim.Time(1 + rng.Intn(60))
			}
			prog = sp
		}
		if err := m.AddThread(id, i%5, prog); err != nil {
			t.Fatal(err)
		}
		if err := m.Place(id, platform.CoreID(rng.Intn(nc))); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			if err := m.SetStart(id, sim.Time(rng.Intn(spread))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for g := 0; g+2 < n && g < 15; g += 4 {
		members := []platform.ThreadID{platform.ThreadID(g), platform.ThreadID(g + 1), platform.ThreadID(g + 2)}
		if err := m.AddBarrierGroup(uniform(rng, 5, 60), members); err != nil {
			t.Fatal(err)
		}
	}
	dis := &windowDisruptor{
		offline:  map[platform.CoreID][2]sim.Time{},
		throttle: map[platform.CoreID]float64{},
		stall:    map[platform.ThreadID][2]sim.Time{},
		crash:    map[platform.ThreadID]sim.Time{},
		failMod:  uint64(3 + rng.Intn(8)),
	}
	for i := 0; i < 1+nc/4; i++ {
		from := sim.Time(rng.Intn(1500))
		dis.offline[platform.CoreID(rng.Intn(nc))] = [2]sim.Time{from, from + sim.Time(1+rng.Intn(200))}
		dis.throttle[platform.CoreID(rng.Intn(nc))] = uniform(rng, 0.2, 0.95)
	}
	for i := 0; i < 1+n/5; i++ {
		from := sim.Time(rng.Intn(1500))
		dis.stall[platform.ThreadID(rng.Intn(n))] = [2]sim.Time{from, from + sim.Time(1+rng.Intn(100))}
	}
	for i := 0; i < 1+n/20; i++ {
		dis.crash[platform.ThreadID(rng.Intn(n))] = sim.Time(rng.Intn(3000))
	}
	return m, dis
}

// TestIncrementalStepMatchesOracle drives seeded scenarios through two
// identical machines, one stepped by Step and one by oracleStep, applying
// the same perturbations to both between ticks: swaps and migrations
// (some silently failed), Place onto a new core, SetDVFS, Terminate
// before and after arrival, re-timed arrivals, a disruptor attached and
// detached, backwards IdleUntil probes and, rarely, a tick that steps
// time backwards. After every tick the solver's inputs (rates, misses
// and hit stall per work, latency multipliers, accesses per work), the
// socket watts, the energy, every counter and every thread's state must
// be bit-identical.
func TestIncrementalStepMatchesOracle(t *testing.T) {
	cover := map[string]int{
		"swap": 0, "place": 0, "dvfs": 0, "crash": 0, "offline": 0,
		"attach": 0, "detach": 0, "terminate before arrival": 0,
		"terminate after arrival": 0, "idle jump": 0, "backwards probe": 0,
		"backwards step": 0, "barrier": 0, "settled": 0, "completion": 0,
		"decay table": 0, "decay fallback": 0,
	}
	const seeds = 64
	for seed := uint64(1); seed <= seeds; seed++ {
		inc, dis := incScenario(t, seed)
		orc, _ := incScenario(t, seed)
		if seed%2 == 0 {
			inc.SetDisruptor(dis)
			orc.SetDisruptor(dis)
		}
		both := func(f func(m *Machine) error) {
			t.Helper()
			if err := f(inc); err != nil {
				t.Fatal(err)
			}
			if err := f(orc); err != nil {
				t.Fatal(err)
			}
		}
		rng := sim.NewRNG(seed ^ 0xabcdef)
		n := len(inc.slots)
		nc := inc.Topology().NumCores()
		now := sim.Time(0)
		for tick := 0; tick < 1500 && !inc.Done(); tick++ {
			id := platform.ThreadID(rng.Intn(n))
			switch r := rng.Intn(200); {
			case r < 8:
				b := platform.ThreadID(rng.Intn(n))
				cover["swap"]++
				both(func(m *Machine) error { return m.Swap(id, b, now) })
			case r < 14:
				c := platform.CoreID(rng.Intn(nc))
				both(func(m *Machine) error { return m.Migrate(id, c, now) })
			case r < 16:
				c := platform.CoreID(rng.Intn(nc))
				if inc.slots[id].alive(now) && inc.slots[id].core != c {
					cover["place"]++
				}
				both(func(m *Machine) error { return m.Place(id, c) })
			case r < 22:
				c := platform.CoreID(rng.Intn(nc))
				level := rng.Intn(inc.KindDVFSLevels()[inc.topo.Core(c).Kind])
				if level != inc.dvfsLevel[c] {
					cover["dvfs"]++
				}
				both(func(m *Machine) error { return m.SetDVFS(c, level) })
			case r < 24:
				if th := inc.slots[id]; !th.finished && th.startAt > now {
					cover["terminate before arrival"]++
				} else if th.alive(now) {
					cover["terminate after arrival"]++
				}
				both(func(m *Machine) error { return m.Terminate(id, now) })
			case r < 26:
				if start, _ := inc.StartOf(id); start > now {
					at := now + sim.Time(rng.Intn(200))
					both(func(m *Machine) error { return m.SetStart(id, at) })
				}
			case r < 28:
				if inc.disruptor == nil {
					cover["attach"]++
					inc.SetDisruptor(dis)
					orc.SetDisruptor(dis)
				} else {
					cover["detach"]++
					inc.SetDisruptor(nil)
					orc.SetDisruptor(nil)
				}
			case r < 30 && now > 0:
				past := sim.Time(rng.Intn(int(now)))
				cover["backwards probe"]++
				w1, ok1 := inc.IdleUntil(past)
				w2, ok2 := orc.IdleUntil(past)
				if w1 != w2 || ok1 != ok2 {
					t.Fatalf("seed %d tick %d: IdleUntil(%d) = (%d, %v), oracle machine (%d, %v)", seed, tick, past, w1, ok1, w2, ok2)
				}
			case r < 31 && now > 50:
				cover["backwards step"]++
				now -= sim.Time(1 + rng.Intn(50))
			}

			dt := sim.Time(1 + rng.Intn(3))
			wake, idle := inc.IdleUntil(now)
			if w, ok := orc.IdleUntil(now); w != wake || ok != idle {
				t.Fatalf("seed %d tick %d: IdleUntil(%d) = (%d, %v), oracle machine (%d, %v)", seed, tick, now, wake, idle, w, ok)
			}
			if idle && wake > now+dt {
				dt = wake - now
				cover["idle jump"]++
			}
			if inc.disruptor != nil {
				for _, th := range inc.live {
					if dis.CoreFactor(th.core, now) == 0 {
						cover["offline"]++
					}
				}
			}
			crashes := dis.crashes
			inc.Step(now, dt)
			cover["crash"] += dis.crashes - crashes
			oracleStep(orc, now, dt)
			for _, th := range inc.scratchT {
				if age := max(now-th.migratedAt, 0); th.migratedAt >= 0 && age <= th.settleAge {
					if tabled(inc, age, th.coldHalf) {
						cover["decay table"]++
					} else {
						cover["decay fallback"]++
					}
				}
			}
			compareMachines(t, inc, orc, fmt.Sprintf("seed %d tick %d (now %d, dt %d)", seed, tick, now, dt))
			now += dt
		}
		for _, th := range inc.slots {
			if th.settleAge != never {
				cover["settled"]++
			}
			if th.barrier != nil && th.seg > 0 {
				cover["barrier"]++
			}
			if th.finished && th.tc.Work >= th.total-1e-9 {
				cover["completion"]++
			}
		}
	}
	for what, n := range cover {
		if n == 0 {
			t.Errorf("no scenario covered %s", what)
		}
	}
	t.Logf("coverage over %d seeds: %v", seeds, cover)
}

// tabled reports whether m's decay at (age, half) comes from a shared
// table rather than from exp.
func tabled(m *Machine, age sim.Time, half float64) bool {
	for _, tab := range m.decayTabs {
		if tab.half == half && age < sim.Time(len(tab.decay)) {
			return true
		}
	}
	return false
}

// compareMachines fails the test unless inc and orc agree bit for bit on
// the last tick's solver inputs, power, energy, counters and thread state.
// inc's gather buffers are domain-major, so each active thread's inputs
// and progress are read through its segment position; the oracle's are
// in registration order.
func compareMachines(t *testing.T, inc, orc *Machine, where string) {
	t.Helper()
	sameBits := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s has %d entries, oracle %d", where, what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v, oracle %v", where, what, i, a[i], b[i])
			}
		}
	}
	if len(inc.scratchT) != len(orc.scratchT) {
		t.Fatalf("%s: %d active threads, oracle %d", where, len(inc.scratchT), len(orc.scratchT))
	}
	for i, th := range inc.scratchT {
		if th.id != orc.scratchT[i].id {
			t.Fatalf("%s: active[%d] = thread %d, oracle %d", where, i, th.id, orc.scratchT[i].id)
		}
		p := inc.scratchPos[i]
		if d := inc.coreDomain[th.core]; p < inc.segStart[d] || p >= inc.segEnd[d] {
			t.Fatalf("%s: thread %d at position %d, outside domain %d's segment [%d, %d)", where, th.id, p, d, inc.segStart[d], inc.segEnd[d])
		}
		at := func(s []float64) float64 { return s[p] }
		sameBits(fmt.Sprintf("thread %d inputs (rate, mpw, hit, lat, apw, progress)", th.id),
			[]float64{at(inc.scratchRates), at(inc.scratchMpw), at(inc.scratchHit), at(inc.scratchLat), at(inc.scratchApw), at(inc.scratchProg)},
			[]float64{orc.scratchRates[i], orc.scratchMpw[i], orc.scratchHit[i], orc.scratchLat[i], orc.scratchApw[i], orc.scratchProg[i]})
	}
	sameBits("sockWatts", inc.sockWatts, orc.sockWatts)
	sameBits("energy", []float64{inc.energyJ, inc.lastUtil}, []float64{orc.energyJ, orc.lastUtil})
	if a, b := [2]int{inc.swaps, inc.migrations}, [2]int{orc.swaps, orc.migrations}; a != b {
		t.Fatalf("%s: swaps, migrations = %v, oracle %v", where, a, b)
	}
	for i, a := range inc.slots {
		b := orc.slots[i]
		if a.tc != b.tc {
			t.Fatalf("%s: thread %d counters %+v, oracle %+v", where, a.id, a.tc, b.tc)
		}
		if math.Float64bits(a.tc.Work) != math.Float64bits(b.tc.Work) || a.finished != b.finished ||
			a.finishAt != b.finishAt || a.core != b.core {
			t.Fatalf("%s: thread %d state (work %v, finished %v at %d, core %d), oracle (%v, %v at %d, %d)",
				where, a.id, a.tc.Work, a.finished, a.finishAt, a.core, b.tc.Work, b.finished, b.finishAt, b.core)
		}
	}
	for c, a := range inc.coreCtr {
		if b := orc.coreCtr[c]; a != b {
			t.Fatalf("%s: core %d counters %+v, oracle %+v", where, c, a, b)
		}
	}
}

// TestMigrationDecaySettles walks the migration age up one millisecond at
// a time for the default config's penalties (local and cross-socket),
// every socket distance of the example machines, and seeded random
// boosts and half-lives. migrationFactors must match the unsettled
// expression bit for bit at every age; the age at which it settles must
// be one where that expression already gives factors of exactly 1, and
// so must every age from there to 20 half-lives later.
func TestMigrationDecaySettles(t *testing.T) {
	type penalty struct {
		name             string
		cold, numa, half float64
	}
	def := DefaultConfig()
	pens := []penalty{{"default local", def.LocalColdFactor - 1, 0, def.LocalColdHalfLife}}
	distances := map[float64]bool{}
	for _, spec := range []*platform.MachineSpec{def.Spec, exampleSpec(t, "big4x4.json"), exampleSpec(t, "dvfs8.json")} {
		for a := range spec.Sockets {
			for b := range spec.Sockets {
				if d := spec.SocketDistance(a, b); d > 0 {
					distances[d] = true
				}
			}
		}
	}
	for d := range distances {
		pens = append(pens, penalty{fmt.Sprintf("default remote, distance %g", d),
			(def.ColdMissFactor - 1) * d, (def.RemoteLatencyFactor - 1) * d, def.ColdHalfLife})
	}
	rng := sim.NewRNG(11)
	for i := 0; i < 40; i++ {
		p := penalty{fmt.Sprintf("random %d", i), uniform(rng, 0, 50), uniform(rng, 0, 50), uniform(rng, 0.5, 1500)}
		switch i % 4 {
		case 1:
			p.numa = 0
		case 2:
			p.cold = 0
		}
		pens = append(pens, p)
	}
	m := testMachine(t)
	for _, p := range pens {
		th := &thread{migratedAt: 0, coldBoost: p.cold, numaBoost: p.numa, coldHalf: p.half, settleAge: never}
		limit := sim.Time(1 << 22)
		for age := sim.Time(0); age <= limit; age++ {
			cold, numa := m.migrationFactors(th, age)
			wantCold, wantNuma := oracleMigrationFactors(th, age)
			if math.Float64bits(cold) != math.Float64bits(wantCold) || math.Float64bits(numa) != math.Float64bits(wantNuma) {
				t.Fatalf("%s: age %d: factors (%v, %v), unsettled expression (%v, %v)", p.name, age, cold, numa, wantCold, wantNuma)
			}
			if th.settleAge == age {
				limit = age + sim.Time(math.Ceil(20*p.half))
			}
			if age >= th.settleAge && (wantCold != 1 || wantNuma != 1) {
				t.Fatalf("%s: settled at age %d, but at age %d the factors are (%v, %v)", p.name, th.settleAge, age, wantCold, wantNuma)
			}
		}
		if th.settleAge == never {
			t.Fatalf("%s: not settled by age %d", p.name, limit)
		}
		t.Logf("%s: settled at age %d ms (%.1f half-lives)", p.name, th.settleAge, float64(th.settleAge)/p.half)
	}
}
