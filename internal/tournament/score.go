package tournament

import (
	"math"
	"sort"

	"dike/internal/platform"
	"dike/internal/replay"
	"dike/internal/sim"
	"dike/internal/stats"
)

// shadowRun is one candidate's audition over a tape window: the window
// itself, the placement after the candidate's decision at each quantum,
// and the migrations it incurred making those decisions.
type shadowRun struct {
	win        []replay.TapeQuantum
	placements []map[platform.ThreadID]platform.CoreID
	migs       []map[platform.ThreadID]int
	memcap     float64
	quantumMs  float64 // the candidate's native decision cadence
}

// runShadow drives a candidate policy through a forked shadow window at
// the recorded boundary times and collects its placements. Candidates
// are evaluated at the live run's quantum cadence — a candidate with a
// different native quantum length is auditioned at the recorded one
// (documented approximation; the scoreboard compares like with like).
func runShadow(sh *replay.Shadow, pol sim.Policy) (*shadowRun, error) {
	n := sh.Quanta()
	r := &shadowRun{
		win:        make([]replay.TapeQuantum, 0, n),
		placements: make([]map[platform.ThreadID]platform.CoreID, n),
		memcap:     sh.MemCapacity(),
		quantumMs:  float64(pol.QuantaLength()),
	}
	for i := 0; i < n; i++ {
		q := sh.Advance(i)
		r.win = append(r.win, q)
		if err := pol.Quantum(q.Now); err != nil {
			return nil, err
		}
		pl := make(map[platform.ThreadID]platform.CoreID, len(q.Alive))
		for _, id := range q.Alive {
			pl[id] = sh.PlacementOf(id)
		}
		r.placements[i] = pl
	}
	r.migs = sh.Migrations()
	return r, nil
}

// windowEval is the scorer's estimate of how the window would have gone
// under a candidate's placements: per-thread achieved and uncontended
// progress, folded into slowdowns.
type windowEval struct {
	est   map[platform.ThreadID]float64
	ideal map[platform.ThreadID]float64
}

// evaluate replays the window's recorded demand under the candidate's
// placements through a small analytic contention model (the same
// queueing shape as the machine's, with the scorer's own constants —
// the meta policy models costs, it does not peek at machine internals).
// Quantum i's counter deltas describe the interval ending at i, so they
// are priced under the placement the candidate chose at quantum i-1.
func evaluate(cfg Config, topo *platform.Topology, run *shadowRun) windowEval {
	ev := windowEval{
		est:   make(map[platform.ThreadID]float64),
		ideal: make(map[platform.ThreadID]float64),
	}
	maxSpeed := 0.0
	for _, c := range topo.Cores() {
		if c.Speed > maxSpeed {
			maxSpeed = c.Speed
		}
	}
	// Scorer's memory capacity proxy: per-miss stall inflates as offered
	// misses approach capacity, exactly the controller's published shape.
	const rhoMax = 0.97
	const smtShare = 0.6 // throughput share when SMT siblings are both busy
	// Occupancy band over which the arrival-pickup charge ramps from
	// irrelevant (idle machine) to full (contended machine). The colo
	// scenarios run alive/cores ≈ 0.1–0.3 at light load and 0.3–1.1 once
	// the machine is busy; the band sits between those regimes.
	const pickupRhoLo, pickupRhoHi = 0.15, 0.30

	if len(run.win) == 0 {
		return ev
	}
	prevIDs := make(map[platform.ThreadID]bool)
	for id := range run.win[0].Sample.Threads {
		prevIDs[id] = true
	}
	for i := 1; i < len(run.win); i++ {
		q := run.win[i]
		iv := q.Sample.Interval
		if iv <= 0 {
			continue
		}
		// A thread the candidate has placed is priced there; one that
		// arrived after the candidate's last decision is priced at the
		// live run's recorded placement — the same background for every
		// candidate, so only genuine decisions differentiate scores.
		prior := run.placements[i-1]
		coreAt := func(id platform.ThreadID) (platform.CoreID, bool) {
			if c, ok := prior[id]; ok {
				return c, true
			}
			c, ok := q.Placement[id]
			return c, ok
		}
		ids := make([]platform.ThreadID, 0, len(q.Sample.Threads))
		for id := range q.Sample.Threads {
			if _, ok := coreAt(id); ok {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })

		// Occupancy under the candidate's placement.
		occ := make(map[platform.CoreID]int)
		physBusy := make(map[int]int)
		for _, id := range ids {
			c, _ := coreAt(id)
			occ[c]++
		}
		for c, n := range occ {
			if n > 0 {
				physBusy[topo.Core(c).Physical]++
			}
		}

		rate := make([]float64, len(ids))
		mpw := make([]float64, len(ids))
		for k, id := range ids {
			d := q.Sample.Threads[id]
			if d.Work > 0 {
				mpw[k] = d.Misses / d.Work
			}
			c, _ := coreAt(id)
			core := topo.Core(c)
			r := core.Speed / float64(occ[c])
			if physBusy[core.Physical] > 1 {
				r *= smtShare
			}
			rate[k] = r
		}

		// Fixed point between per-miss stall and offered miss rate.
		stall := cfg.StallPerMissMs
		prog := make([]float64, len(ids))
		for it := 0; it < 16; it++ {
			offered := 0.0
			for k := range ids {
				p := rate[k] / (1 + rate[k]*mpw[k]*stall)
				prog[k] = p
				offered += mpw[k] * p
			}
			rho := 0.0
			if run.memcap > 0 {
				rho = offered / run.memcap
			}
			if rho > rhoMax {
				rho = rhoMax
			}
			next := cfg.StallPerMissMs / (1 - rho)
			if diff := next - stall; diff < 1e-9 && diff > -1e-9 {
				stall = next
				break
			}
			stall = 0.5*stall + 0.5*next
		}

		var migQ map[platform.ThreadID]int
		if i-1 < len(run.migs) {
			migQ = run.migs[i-1]
		}
		// Migration charges scale by the cadence ratio: the shadow drives
		// every candidate at the recorded boundary times, so a policy that
		// natively decides k× more often would have churned ~k× as much as
		// the audition shows (and pays the machine's cold-start penalty
		// each time).
		churn := 1.0
		if run.quantumMs > 0 && iv > run.quantumMs {
			churn = iv / run.quantumMs
		}
		// Arrival pickup: on the real machine a thread that arrives between
		// two decision boundaries sits unplaced on the default core until
		// the next one — sharing that core with every other arrival of the
		// same native quantum. So the audition charges each first-seen
		// thread half the candidate's quantum length, discounted by the
		// share of the default core it would have had against its
		// co-waiters. This is how cadence enters the audition: the shadow
		// replays at the live run's boundary times, so without it a 100ms
		// policy and a 1000ms policy would look identical on reaction
		// latency.
		arrived := 0
		for id := range q.Sample.Threads {
			if !prevIDs[id] {
				arrived++
			}
		}
		pickup := 0.0
		if arrived > 0 && run.quantumMs > 0 {
			pile := math.Max(1, float64(arrived)*run.quantumMs/iv)
			pickup = math.Min(0.5*run.quantumMs, iv) * (1 - 1/pile)
			// The charge is gated by occupancy: on a mostly-idle machine
			// the default core has spare capacity and the pile drains at
			// full speed, so late placement costs little — reaction
			// latency only buys anything once cores are contended.
			rho := float64(len(ids)) / float64(topo.NumCores())
			gate := (rho - pickupRhoLo) / (pickupRhoHi - pickupRhoLo)
			if gate < 0 {
				gate = 0
			} else if gate > 1 {
				gate = 1
			}
			pickup *= gate
		}
		for k, id := range ids {
			eff := iv
			if n := migQ[id]; n > 0 {
				eff -= float64(n) * cfg.MigCostMs * churn
			}
			if !prevIDs[id] {
				eff -= pickup
			}
			if eff < 0 {
				eff = 0
			}
			ev.est[id] += prog[k] * eff
			ev.ideal[id] += maxSpeed / (1 + maxSpeed*mpw[k]*cfg.StallPerMissMs) * iv
		}
		for id := range prevIDs {
			delete(prevIDs, id)
		}
		for id := range q.Sample.Threads {
			prevIDs[id] = true
		}
	}
	return ev
}

// slowdowns folds a windowEval into per-thread slowdowns, sorted by
// thread id. Threads with no ideal progress (no samples) are skipped;
// a thread estimated at zero progress is capped at maxSlowdown.
func (ev windowEval) slowdowns() []threadSlowdown {
	const maxSlowdown = 1000.0
	ids := make([]platform.ThreadID, 0, len(ev.ideal))
	for id := range ev.ideal {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	out := make([]threadSlowdown, 0, len(ids))
	for _, id := range ids {
		ideal := ev.ideal[id]
		if ideal <= 0 {
			continue
		}
		sd := maxSlowdown
		if est := ev.est[id]; est > ideal/maxSlowdown {
			sd = ideal / est
		}
		if sd < 1 {
			sd = 1
		}
		out = append(out, threadSlowdown{id: id, sd: sd})
	}
	return out
}

type threadSlowdown struct {
	id platform.ThreadID
	sd float64
}

// score reduces a candidate's shadow run to the configured objective,
// higher is better, roughly in [0, 1].
func score(cfg Config, topo *platform.Topology, procs map[platform.ThreadID]int, run *shadowRun) float64 {
	ev := evaluate(cfg, topo, run)
	sds := ev.slowdowns()
	if len(sds) == 0 {
		return 0
	}
	switch cfg.Objective {
	case ObjectiveFairness:
		return jainOverProcs(procs, sds)
	case ObjectiveTail:
		return 1 / p99(sds)
	case ObjectiveHeadroom:
		worst := 0.0
		for _, g := range procSlowdowns(procs, sds) {
			if g > worst {
				worst = g
			}
		}
		h := (cfg.TargetSlowdown - worst) / cfg.TargetSlowdown
		return math.Max(-1, math.Min(1, h))
	default: // ObjectiveBlend; config is validated upstream
		f := jainOverProcs(procs, sds)
		t := 1 / p99(sds)
		return (cfg.WeightFairness*f + cfg.WeightTail*t) / (cfg.WeightFairness + cfg.WeightTail)
	}
}

// windowGrowth is the fraction-of-machine growth in alive threads over
// the trailing half of a recorded window: (last alive − mid alive)/
// cores, clipped at 0. The half-window baseline matters: a freshly
// started system legitimately fills up during the leading half, and
// that ramp must not read as backlog. The meta policy uses it to demote
// the incumbent — a backlog growing on the live stream is evidence
// against whoever is live, and only the incumbent owns that outcome.
func windowGrowth(topo *platform.Topology, win []replay.TapeQuantum) float64 {
	if len(win) < 2 || topo.NumCores() == 0 {
		return 0
	}
	d := len(win[len(win)-1].Alive) - len(win[len(win)/2].Alive)
	if d <= 0 {
		return 0
	}
	return float64(d) / float64(topo.NumCores())
}

// procSlowdowns averages thread slowdowns per process, ordered by
// process id.
func procSlowdowns(procs map[platform.ThreadID]int, sds []threadSlowdown) []float64 {
	sum := make(map[int]float64)
	n := make(map[int]int)
	for _, ts := range sds {
		p := procs[ts.id]
		sum[p] += ts.sd
		n[p]++
	}
	keys := make([]int, 0, len(sum))
	for p := range sum {
		keys = append(keys, p)
	}
	sort.Ints(keys)
	out := make([]float64, 0, len(keys))
	for _, p := range keys {
		out = append(out, sum[p]/float64(n[p]))
	}
	return out
}

// jainOverProcs computes the Jain index over per-process inverse
// slowdown shares (1 = every tenant slowed equally).
func jainOverProcs(procs map[platform.ThreadID]int, sds []threadSlowdown) float64 {
	groups := procSlowdowns(procs, sds)
	sum, sq := 0.0, 0.0
	for _, sd := range groups {
		x := 1 / sd
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(groups)) * sq)
}

// p99 returns the nearest-rank 99th percentile of the slowdowns (which
// arrive sorted by thread id, not by value).
func p99(sds []threadSlowdown) float64 {
	vals := make([]float64, len(sds))
	for i, ts := range sds {
		vals[i] = ts.sd
	}
	sort.Float64s(vals)
	return stats.Percentile(vals, 0.99)
}
