package cluster

import (
	"fmt"
	"testing"

	"dike/internal/serve"
	"dike/internal/serve/api"
)

func testWorkers(n int) []string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = fmt.Sprintf("http://worker-%d:8080", i)
	}
	return ws
}

func TestRingRejectsBadFleets(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}); err == nil {
		t.Error("duplicate worker accepted")
	}
}

func TestRingOrderDeterministicAndComplete(t *testing.T) {
	r, err := NewRing(testWorkers(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("digest-%d", i)
		order := r.Order(key)
		if len(order) != 5 {
			t.Fatalf("Order(%q) returned %d workers, want 5", key, len(order))
		}
		seen := map[string]bool{}
		for _, w := range order {
			if seen[w] {
				t.Fatalf("Order(%q) repeats %s", key, w)
			}
			seen[w] = true
		}
		again := r.Order(key)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("Order(%q) unstable at position %d", key, j)
			}
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	workers := testWorkers(4)
	r, err := NewRing(workers)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.Order(fmt.Sprintf("digest-%d", i))[0]]++
	}
	for _, w := range workers {
		// Perfect balance is keys/4 = 1000; with 64 virtual nodes per
		// worker the spread stays well inside a factor of two.
		if counts[w] < keys/8 || counts[w] > keys/2 {
			t.Errorf("worker %s owns %d of %d keys — ring badly skewed: %v", w, counts[w], keys, counts)
		}
	}
}

func TestRingRemovalOnlyRemapsLostKeys(t *testing.T) {
	all := testWorkers(4)
	rAll, err := NewRing(all)
	if err != nil {
		t.Fatal(err)
	}
	rLess, err := NewRing(all[:3])
	if err != nil {
		t.Fatal(err)
	}
	lost := all[3]
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("digest-%d", i)
		before := rAll.Order(key)[0]
		after := rLess.Order(key)[0]
		if before != lost {
			// A key not owned by the removed worker must keep its owner —
			// the property that keeps the fleet's caches warm across
			// membership changes.
			if after != before {
				t.Fatalf("key %q moved from %s to %s though %s was removed", key, before, after, lost)
			}
		} else {
			moved++
			// The lost worker's keys re-home to its ring successor.
			if want := rAll.Order(key)[1]; after != want {
				t.Errorf("key %q re-homed to %s, want ring successor %s", key, after, want)
			}
		}
	}
	if moved == 0 {
		t.Fatal("removed worker owned no keys; test is vacuous")
	}
}

func TestRingHealthAppliedAtLookup(t *testing.T) {
	// Order returns the full preference list; health is the caller's
	// filter. Simulate it the way pickWorker does.
	r, err := NewRing(testWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	order := r.Order("some-digest")
	down := map[string]bool{order[0]: true}
	var healthy []string
	for _, w := range order {
		if !down[w] {
			healthy = append(healthy, w)
		}
	}
	if len(healthy) != 2 || healthy[0] != order[1] {
		t.Fatalf("next-in-ring selection wrong: %v (order %v)", healthy, order)
	}
}

// TestRingSplitsSweepAcrossLocalPorts: two workers on loopback ports,
// as the cluster tests boot them, must each own part of a 32-point
// sweep. With plain FNV-1a about one port pair in a hundred gave one
// worker no point at all, so a test waiting for that worker to receive
// a shard waited in vain.
func TestRingSplitsSweepAcrossLocalPorts(t *testing.T) {
	seed := uint64(9)
	rs, err := serve.ResolveSweep(api.SweepRequest{Workload: 1, Seed: &seed, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for port := 32768; port < 61000; port += 41 {
		for _, gap := range []int{1, 7, 1000} {
			a := fmt.Sprintf("http://127.0.0.1:%d", port)
			r, err := NewRing([]string{a, fmt.Sprintf("http://127.0.0.1:%d", port+gap)})
			if err != nil {
				t.Fatal(err)
			}
			owned := 0
			for _, p := range rs.Points {
				if r.Order(p)[0] == a {
					owned++
				}
			}
			if owned == 0 || owned == len(rs.Points) {
				t.Fatalf("ports %d and %d: the first worker owns %d of %d sweep points", port, port+gap, owned, len(rs.Points))
			}
		}
	}
}
