package core

import (
	"testing"
	"testing/quick"

	"dike/internal/platform"
)

// randomObs derives a syntactically valid Observation from fuzz input:
// up to 40 threads across up to 6 processes on distinct cores, with
// arbitrary classes, rates and progress.
func randomObs(seeds []uint32) *Observation {
	n := len(seeds)
	if n > 40 {
		n = 40
	}
	var specs []obsSpec
	procBase := map[int]float64{}
	for i := 0; i < n; i++ {
		s := seeds[i]
		proc := int(s % 6)
		base, ok := procBase[proc]
		if !ok {
			base = 0.1 + float64(s%500)/100 // 0.1 .. 5.1
			procBase[proc] = base
		}
		class := ComputeClass
		if base > 1 {
			class = MemoryClass
		}
		specs = append(specs, obsSpec{
			id:       platform.ThreadID(i),
			proc:     proc,
			class:    class,
			rate:     base * (0.8 + float64(s%40)/100),
			baseline: base,
			instr:    float64(s % 10000),
			core:     platform.CoreID(i),
			coreHigh: s%3 == 0,
			coreCap:  0.7 + float64(s%7)/10,
		})
	}
	return makeObs(specs)
}

// TestSelectPairsInvariants checks, for arbitrary observations and swap
// sizes, that SelectPairs never pairs a thread with itself, never uses a
// thread twice, and never exceeds swapSize/2 pairs.
func TestSelectPairsInvariants(t *testing.T) {
	f := func(seeds []uint32, swapRaw uint8) bool {
		if len(seeds) < 2 {
			return true
		}
		obs := randomObs(seeds)
		swapSize := int(swapRaw%16) + 2
		pairs := SelectPairs(obs, swapSize)
		if len(pairs) > swapSize/2 {
			return false
		}
		used := map[platform.ThreadID]bool{}
		for _, p := range pairs {
			if p.Low == p.High {
				return false
			}
			if used[p.Low] || used[p.High] {
				return false
			}
			used[p.Low] = true
			used[p.High] = true
			// Members must be alive threads on distinct cores.
			if obs.CoreOf[obs.Index(p.Low)] == obs.CoreOf[obs.Index(p.High)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPlacementPairsCrossBoundary checks that non-equalize pairs always
// combine a low-side squatter with a high-side violator: swapping them
// must strictly reduce the number of placement violations.
func TestPlacementPairsCrossBoundary(t *testing.T) {
	f := func(seeds []uint32, swapRaw uint8) bool {
		if len(seeds) < 2 {
			return true
		}
		obs := randomObs(seeds)
		if sameClass(obs) {
			return true // the same-class branch pairs unconditionally
		}
		pairs := SelectPairs(obs, int(swapRaw%16)+2)
		r := NewRanking(obs)
		rank := map[platform.ThreadID]int{}
		for i, id := range r.Sorted {
			rank[id] = i
		}
		for _, p := range pairs {
			if p.Equalize {
				continue
			}
			// Low side: a low-demand thread on a high-bandwidth core.
			if r.HighDeserving(rank[p.Low]) || !obs.HighBW[obs.CoreOf[obs.Index(p.Low)]] {
				return false
			}
			// High side: a high-demand thread on a low-bandwidth core.
			if !r.HighDeserving(rank[p.High]) || obs.HighBW[obs.CoreOf[obs.Index(p.High)]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEqualizePairsInvariants checks that equalization pairs stay within
// one process and always hand the laggard the stronger core.
func TestEqualizePairsInvariants(t *testing.T) {
	f := func(seeds []uint32, swapRaw uint8) bool {
		if len(seeds) < 2 {
			return true
		}
		obs := randomObs(seeds)
		pairs := SelectPairs(obs, int(swapRaw%16)+2)
		for _, p := range pairs {
			if !p.Equalize {
				continue
			}
			lo, hi := obs.Index(p.Low), obs.Index(p.High)
			if obs.Proc[lo] != obs.Proc[hi] {
				return false
			}
			// Low = ahead sibling, High = behind sibling.
			if obs.Instr[lo] < obs.Instr[hi] {
				return false
			}
			// The ahead sibling's core must be materially stronger.
			if obs.Capability[obs.CoreOf[lo]] <= obs.Capability[obs.CoreOf[hi]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRankingIsPermutation checks the ranking is a permutation of the
// alive threads with a boundary inside range.
func TestRankingIsPermutation(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		obs := randomObs(seeds)
		r := NewRanking(obs)
		if len(r.Sorted) != len(obs.Alive) {
			return false
		}
		if r.Boundary < 0 || r.Boundary > len(r.Sorted) {
			return false
		}
		seen := map[platform.ThreadID]bool{}
		for _, id := range r.Sorted {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		// Sorted by baseline (non-decreasing).
		for i := 1; i < len(r.Sorted); i++ {
			if obs.Baseline[obs.Index(r.Sorted[i])] < obs.Baseline[obs.Index(r.Sorted[i-1])]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
