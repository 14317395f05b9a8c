package core

import (
	"cmp"
	"slices"

	"dike/internal/platform"
)

// Pair is a candidate swap: a low-access thread and a high-access thread
// (the paper's ⟨t_l, t_h⟩).
type Pair struct {
	Low  platform.ThreadID
	High platform.ThreadID
	// Equalize marks an intra-process fairness pair: High is a lagging
	// sibling on a weaker core, Low its most-ahead sibling on a stronger
	// one. The Decider judges these on fairness benefit rather than
	// access-rate profit (§III-D: "each swap benefits fairness or
	// performance").
	Equalize bool
}

// Selector tuning constants.
const (
	// PairDeadband is the minimum relative demand gap between the two
	// members of a cross-process pair. Swapping threads with
	// near-identical demand cannot improve the mapping; the apparent
	// violation is measurement noise at the placement boundary.
	PairDeadband = 0.15
	// ProgressDeadband is the minimum relative progress imbalance
	// (retired instructions, normalised by the process mean) for an
	// intra-process pair. Siblings within it are already fair.
	ProgressDeadband = 0.03
	// EqualizeCapMargin is how much stronger the ahead-sibling's core
	// must be (relative capability) before an equalization swap is
	// worth its migration cost.
	EqualizeCapMargin = 1.05
	// baselineTie is the relative demand difference under which two
	// threads are considered demand-tied and ordered by progress.
	baselineTie = 1e-9
)

// Ranking is the Selector's view of one quantum: threads ordered by
// demand and the placement boundary implied by the number of occupied
// high-bandwidth cores. The paper's ideal mapping "has high-access
// threads bound to high bandwidth cores and low-access threads bound to
// low bandwidth cores"; with k high-bandwidth cores occupied, the ideal
// mapping puts exactly the k most demanding threads on them. A violator
// is a thread on the wrong side of that boundary for its current core.
//
// Two reproduction-motivated refinements over a literal reading of
// Algorithm 1 (recorded in DESIGN.md):
//
//   - Threads are ordered by *demand baseline* (their process's mean
//     access rate) rather than their individual measured rate. The
//     individual rate is endogenous to placement — being on a slow core
//     depresses exactly the rate that would justify staying there — so
//     rate-ranked placement is self-fulfilling and never rotates.
//   - Demand ties (homogeneous siblings) are ordered by progress
//     deficit: the sibling that has retired the fewest instructions
//     ranks highest and therefore claims a high-bandwidth core first.
//     This realises the paper's "Dike will naturally migrate threads so
//     that the rule is obeyed, on average, across several quanta": when
//     a process straddles the boundary, its lagging threads rotate onto
//     fast cores until runtimes equalise.
type Ranking struct {
	// Sorted lists alive threads by ascending demand rank.
	Sorted []platform.ThreadID
	// Boundary is the index in Sorted at which the high-demand region
	// begins: threads at index >= Boundary deserve high-bandwidth cores.
	Boundary int
	obs      *Observation
	// order[i] is the position in obs.Alive of thread Sorted[i].
	order []int
	// procMean caches each process's mean retired-instruction count, by
	// process slot. admissible is called from SelectPairs' pair loop;
	// recomputing the mean there made pair selection O(threads²), which
	// dominates decision cost on 1024-core machines. procN counts each
	// slot's threads while the means are summed.
	procMean []float64
	procN    []int
}

// selectScratch is the Selector's storage inside an Observation: the
// Ranking, the returned pairs and appendEqualizePairs' buffers, all
// reused from quantum to quantum.
type selectScratch struct {
	rank   Ranking
	pairs  []Pair
	used   []bool
	groups []equalizeGroup
	cands  []equalizeCand
}

// equalizeGroup accumulates one process's unpaired threads for
// appendEqualizePairs: its most-ahead and most-behind thread (positions
// in Alive), its summed progress and its thread count.
type equalizeGroup struct {
	ahead, behind int
	sum           float64
	n             int
}

// equalizeCand is a candidate equalization pair and its progress spread.
type equalizeCand struct {
	pair   Pair
	spread float64
}

// NewRanking orders obs's alive threads and locates the placement
// boundary. All orderings break final ties by thread id, so runs are
// deterministic. The Ranking lives in obs and is rebuilt by the next
// NewRanking or SelectPairs on it.
func NewRanking(obs *Observation) *Ranking {
	r := &obs.sel.rank
	r.obs = obs
	n := len(obs.Alive)
	r.order = resize(r.order, n)
	for i := range r.order {
		r.order[i] = i
	}
	// Positions in Alive sort in id order, since Alive ascends. The
	// comparator is not transitive (demand ties are within baselineTie,
	// not equal), so the ranking depends on the sort algorithm and its
	// input order, and the pinned run outputs depend on both staying
	// pdqsort over Alive order. pdqsort consults only cmp < 0, so
	// "not less" may read 1.
	slices.SortFunc(r.order, func(a, b int) int {
		if rankLess(obs, a, b) {
			return -1
		}
		return 1
	})
	r.Sorted = resize(r.Sorted, n)
	for k, i := range r.order {
		r.Sorted[k] = obs.Alive[i]
	}
	// Count high-bandwidth cores, all of them occupied: that is how many
	// threads the ideal mapping can put on the high side.
	k := 0
	for _, high := range obs.HighBW {
		if high {
			k++
		}
	}
	r.Boundary = n - k
	if r.Boundary < 0 {
		r.Boundary = 0
	}
	// Per-process progress means, summed in obs.Alive order.
	np := len(obs.procs)
	r.procMean = resize(r.procMean, np)
	r.procN = resize(r.procN, np)
	clear(r.procMean)
	clear(r.procN)
	for i, s := range obs.slot {
		r.procMean[s] += obs.Instr[i]
		r.procN[s]++
	}
	for s := range r.procMean {
		r.procMean[s] /= float64(r.procN[s])
	}
	return r
}

// rankLess orders the threads at positions a and b of obs.Alive by
// ascending demand rank.
func rankLess(obs *Observation, a, b int) bool {
	ba, bb := obs.Baseline[a], obs.Baseline[b]
	if diff := ba - bb; diff < -baselineTie || diff > baselineTie {
		return ba < bb
	}
	// Demand tie: more progress sorts lower (less deserving of a
	// fast core). Only meaningful within a process, but harmless as
	// a global rule since cross-process exact ties are accidental.
	ia, ib := obs.Instr[a], obs.Instr[b]
	if ia != ib {
		return ia > ib
	}
	return a < b
}

// HighDeserving reports whether the thread at sorted index i belongs in
// the high-demand region.
func (r *Ranking) HighDeserving(i int) bool { return i >= r.Boundary }

// Violator reports whether the thread at sorted index i breaks the
// placement rule: a high-demand thread on a low-bandwidth core, or a
// low-demand thread on a high-bandwidth core.
func (r *Ranking) Violator(i int) bool {
	onHigh := r.obs.HighBW[r.obs.CoreOf[r.order[i]]]
	return r.HighDeserving(i) != onHigh
}

// admissible reports whether the candidate pair (low-side index h,
// high-side index t in r.Sorted) clears the dead-bands.
func (r *Ranking) admissible(h, t int) bool {
	lo, hi := r.order[h], r.order[t]
	obs := r.obs
	if s := obs.slot[lo]; s == obs.slot[hi] {
		// Intra-process rotation: only worthwhile if the sibling on the
		// better core is materially ahead.
		mean := r.procMean[s]
		if mean == 0 {
			return false
		}
		return (obs.Instr[lo]-obs.Instr[hi])/mean > ProgressDeadband
	}
	bl, bh := obs.Baseline[lo], obs.Baseline[hi]
	return bh-bl > PairDeadband*bh
}

// SelectPairs implements Algorithm 1: rank the alive threads by demand,
// then walk two pointers inward pairing placement violators — the
// lowest-demand violator (a thread squatting on a high-bandwidth core)
// with the highest-demand violator (a demanding thread stuck on a
// low-bandwidth core) — until swapSize threads are covered or the
// pointers cross. Swapping such a pair repairs both placements at once.
// If every thread has the same class, pairs are formed from both ends
// regardless of the placement rule (Algorithm 1 lines 10–15).
//
// The fairness gate (skip the quantum when the system is fair) lives in
// Dike's quantum loop; SelectPairs assumes the system is already known
// to be unfair.
//
// The returned slice lives in obs: the next SelectPairs on obs reuses
// it, and the Observer's next Observe invalidates it.
func SelectPairs(obs *Observation, swapSize int) []Pair {
	n := len(obs.Alive)
	if n < 2 || swapSize < 2 {
		return nil
	}
	maxPairs := swapSize / 2
	r := NewRanking(obs)
	pairs := obs.sel.pairs[:0]

	if sameClass(obs) {
		// All threads the same type: pair from both ends regardless of
		// the placement rule.
		for k := 0; k < maxPairs && k < n-1-k; k++ {
			if !r.admissible(k, n-1-k) {
				continue
			}
			pairs = append(pairs, Pair{Low: r.Sorted[k], High: r.Sorted[n-1-k]})
		}
	} else {
		head, tail := 0, n-1
		for len(pairs) < maxPairs && head < tail {
			// Advance head to the next low-side violator.
			for head < n && !(r.Violator(head) && !r.HighDeserving(head)) {
				head++
			}
			// Retreat tail to the next high-side violator.
			for tail >= 0 && !(r.Violator(tail) && r.HighDeserving(tail)) {
				tail--
			}
			if head >= tail || head >= n || tail < 0 {
				break // pointers crossed: fewer violators than swapSize
			}
			if !r.admissible(head, tail) {
				head++ // look for a more distinct low-side candidate
				continue
			}
			pairs = append(pairs, Pair{Low: r.Sorted[head], High: r.Sorted[tail]})
			head++
			tail--
		}
		pairs = appendEqualizePairs(obs, pairs, maxPairs)
	}
	obs.sel.pairs = pairs
	return pairs
}

// appendEqualizePairs fills remaining pair slots with intra-process
// equalization swaps: for each process whose siblings have drifted apart
// in progress, pair the most-behind thread (High) with the most-ahead
// one (Low) when the ahead thread holds a materially stronger core.
// Swapping them hands the laggard the better core, which is how the
// placement rule is "obeyed, on average, across several quanta" even for
// imbalances the rule itself cannot see — e.g. luck in SMT-sibling
// pairings or leftover migration penalties.
func appendEqualizePairs(obs *Observation, pairs []Pair, maxPairs int) []Pair {
	if len(pairs) >= maxPairs {
		return pairs
	}
	sc := &obs.sel
	sc.used = resize(sc.used, len(obs.Alive))
	clear(sc.used)
	for _, p := range pairs {
		sc.used[obs.Index(p.Low)] = true
		sc.used[obs.Index(p.High)] = true
	}
	// One pass in Alive order gathers each process's unpaired threads:
	// the sum folds in the same order as a per-process walk would.
	sc.groups = resize(sc.groups, len(obs.procs))
	clear(sc.groups)
	for i, s := range obs.slot {
		if sc.used[i] {
			continue
		}
		g := &sc.groups[s]
		if g.n == 0 {
			g.ahead, g.behind = i, i
		}
		g.sum += obs.Instr[i]
		if obs.Instr[i] > obs.Instr[g.ahead] {
			g.ahead = i
		}
		if obs.Instr[i] < obs.Instr[g.behind] {
			g.behind = i
		}
		g.n++
	}
	cands := sc.cands[:0]
	for _, g := range sc.groups {
		if g.n < 2 {
			continue
		}
		mean := g.sum / float64(g.n)
		if mean <= 0 {
			continue
		}
		spread := (obs.Instr[g.ahead] - obs.Instr[g.behind]) / mean
		if spread <= 2*ProgressDeadband {
			continue
		}
		capAhead := obs.Capability[obs.CoreOf[g.ahead]]
		capBehind := obs.Capability[obs.CoreOf[g.behind]]
		if capAhead <= capBehind*EqualizeCapMargin {
			continue
		}
		pair := Pair{Low: obs.Alive[g.ahead], High: obs.Alive[g.behind], Equalize: true}
		cands = append(cands, equalizeCand{pair: pair, spread: spread})
	}
	// Widest spread first, then ascending laggard id: a total order over
	// distinct processes, so the input order does not matter.
	slices.SortFunc(cands, func(a, b equalizeCand) int {
		if a.spread != b.spread {
			if a.spread > b.spread {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.pair.High, b.pair.High)
	})
	sc.cands = cands
	for _, c := range cands {
		if len(pairs) >= maxPairs {
			break
		}
		pairs = append(pairs, c.pair)
	}
	return pairs
}

// sameClass reports whether every alive thread has the same class.
func sameClass(obs *Observation) bool {
	for _, c := range obs.Class {
		if c != obs.Class[0] {
			return false
		}
	}
	return true
}
