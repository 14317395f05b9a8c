package power

import (
	"dike/internal/platform"
	"dike/internal/sim"
)

// relaxFrac is the hysteresis band of the capping governors: a socket
// (or machine) must be under relaxFrac·cap before levels step back up,
// so the level does not flap across the budget boundary.
const relaxFrac = 0.85

// grid is the shared actuation state of the built-in governors: the
// per-socket × per-kind DVFS level it believes the machine is at, and
// the core lists to apply a level change to. All iteration is in
// socket, kind, core-id order so actuation streams are deterministic.
type grid struct {
	levels []int                 // per-kind level count
	cores  [][][]platform.CoreID // [socket][kind] -> cores, ascending id
	lvl    [][]int               // [socket][kind] -> current level
}

func (g *grid) bind(topo *platform.Topology, levels []int) {
	nk := topo.NumKinds()
	ns := topo.NumSockets()
	g.levels = make([]int, nk)
	for k := 0; k < nk; k++ {
		if k < len(levels) && levels[k] > 0 {
			g.levels[k] = levels[k]
		} else {
			g.levels[k] = 1
		}
	}
	g.cores = make([][][]platform.CoreID, ns)
	g.lvl = make([][]int, ns)
	for s := 0; s < ns; s++ {
		g.cores[s] = make([][]platform.CoreID, nk)
		g.lvl[s] = make([]int, nk)
	}
	for _, c := range topo.Cores() {
		g.cores[c.Socket][int(c.Kind)] = append(g.cores[c.Socket][int(c.Kind)], c.ID)
	}
}

// set moves (socket, kind) to level, clamped to the kind's table, and
// actuates every affected core. No-op when already there.
func (g *grid) set(act Actuator, socket, kind, level int) {
	if level < 0 {
		level = 0
	}
	if max := g.levels[kind] - 1; level > max {
		level = max
	}
	if g.lvl[socket][kind] == level {
		return
	}
	g.lvl[socket][kind] = level
	for _, c := range g.cores[socket][kind] {
		// Errors are recorded by the interposed actuator; the governor's
		// own level book-keeping stays consistent regardless.
		_ = act.SetDVFS(c, level)
	}
}

// step moves every kind on socket by delta levels.
func (g *grid) step(act Actuator, socket, delta int) {
	for k := range g.lvl[socket] {
		g.set(act, socket, k, g.lvl[socket][k]+delta)
	}
}

// ondemand is the fixed-cap governor: each invocation compares every
// socket's draw against the watt budget and steps the whole socket's
// DVFS one level down (slower) when over, one level up when comfortably
// under.
type ondemand struct {
	grid
	cap float64
}

func (o *ondemand) Name() string { return "ondemand" }

func (o *ondemand) Bind(topo *platform.Topology, levels []int) { o.bind(topo, levels) }

func (o *ondemand) Adapt(now sim.Time, s platform.PowerSample, act Actuator) {
	for sock := range o.lvl {
		w := 0.0
		if sock < len(s.Watts) {
			w = s.Watts[sock]
		}
		switch {
		case w > o.cap:
			o.step(act, sock, +1)
		case w < o.cap*relaxFrac:
			o.step(act, sock, -1)
		}
	}
}

// thermal is the thermal-RC governor: each socket carries a heat state
// that charges toward watts·R with step weight alpha per invocation
// (the discrete RC curve). Above hot it throttles; it only unthrottles
// once the socket has cooled below cool — hysteresis, so the frequency
// does not flap at the trip point.
type thermal struct {
	grid
	r, alpha, hot, cool float64

	temp []float64
	trip []bool
}

func (t *thermal) Name() string { return "thermal" }

func (t *thermal) Bind(topo *platform.Topology, levels []int) {
	t.bind(topo, levels)
	t.temp = make([]float64, topo.NumSockets())
	t.trip = make([]bool, topo.NumSockets())
}

func (t *thermal) Adapt(now sim.Time, s platform.PowerSample, act Actuator) {
	for sock := range t.lvl {
		w := 0.0
		if sock < len(s.Watts) {
			w = s.Watts[sock]
		}
		t.temp[sock] += t.alpha * (w*t.r - t.temp[sock])
		if t.temp[sock] > t.hot {
			t.trip[sock] = true
		} else if t.temp[sock] < t.cool {
			t.trip[sock] = false
		}
		if t.trip[sock] {
			t.step(act, sock, +1)
		} else {
			t.step(act, sock, -1)
		}
	}
}

// fairnessGov is the fairness-coupled governor: it holds the machine to
// a global budget (cap_watts per socket) but spends it asymmetrically.
// When Dike's fairness gate names the core kind limiting the slowest
// thread, that kind is the last to throttle and the first to relax —
// the budget goes where the fairness bottleneck is.
type fairnessGov struct {
	grid
	cap  float64
	feed LimitFeed
}

func (f *fairnessGov) Name() string { return "fairness" }

func (f *fairnessGov) Bind(topo *platform.Topology, levels []int) { f.bind(topo, levels) }

// SetFeed implements FeedSetter.
func (f *fairnessGov) SetFeed(feed LimitFeed) { f.feed = feed }

func (f *fairnessGov) Adapt(now sim.Time, s platform.PowerSample, act Actuator) {
	budget := f.cap * float64(len(f.lvl))
	total := s.Total()
	lim, ok := platform.CoreKind(0), false
	if f.feed != nil {
		lim, ok = f.feed.LimitingKind()
	}
	switch {
	case total > budget:
		// Throttle the non-limiting kinds first; touch the limiting kind
		// only when every other kind is already at its floor.
		stepped := false
		for sock := range f.lvl {
			for k := range f.lvl[sock] {
				if ok && k == int(lim) {
					continue
				}
				if f.lvl[sock][k] < f.levels[k]-1 {
					f.set(act, sock, k, f.lvl[sock][k]+1)
					stepped = true
				}
			}
		}
		if !stepped {
			for sock := range f.lvl {
				f.step(act, sock, +1)
			}
		}
	case total < budget*relaxFrac:
		// Headroom: relax the limiting kind first, everything else after.
		relaxed := false
		if ok {
			for sock := range f.lvl {
				if f.lvl[sock][int(lim)] > 0 {
					f.set(act, sock, int(lim), f.lvl[sock][int(lim)]-1)
					relaxed = true
				}
			}
		}
		if !relaxed {
			for sock := range f.lvl {
				f.step(act, sock, -1)
			}
		}
	}
}
