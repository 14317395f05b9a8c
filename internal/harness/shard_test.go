package harness

import (
	"context"
	"fmt"
	"regexp"
	"slices"
	"testing"

	"dike/internal/workload"
)

// TestSweepShardMergeMatchesFullSweep is the core determinism property
// the cluster layer rests on: running the grid in arbitrary disjoint
// shards and merging by index reproduces the single-node sweep exactly.
func TestSweepShardMergeMatchesFullSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	w := workload.MustTable2(1)
	opts := Options{Seed: 42, SweepScale: 0.01, Workers: 4}

	full, err := Sweep(context.Background(), w, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved shards, deliberately not contiguous, delivered odd
	// shard first.
	var even, odd []int
	for i := range full {
		if i%2 == 0 {
			even = append(even, i)
		} else {
			odd = append(odd, i)
		}
	}
	specs, meta := SweepGrid(w, opts)
	all, err := ShardIndices(nil, len(specs))
	if err != nil {
		t.Fatal(err)
	}
	merge := NewGridMerge[ConfigResult](all)
	for _, indices := range [][]int{odd, even} {
		sub := make([]RunSpec, len(indices))
		for i, idx := range indices {
			sub[i] = specs[idx]
		}
		outs, err := RunAll(context.Background(), sub, opts.Workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range indices {
			r := meta[idx]
			r.Fill(outs[i])
			if err := merge.Put(idx, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	merged, err := merge.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if merged[i] != full[i] {
			t.Fatalf("grid point %d differs: sharded %+v vs full %+v", i, merged[i], full[i])
		}
	}
}

func TestSweepGridStableOrder(t *testing.T) {
	w := workload.MustTable2(1)
	specs, meta := SweepGrid(w, Options{Seed: 42, SweepScale: 0.05})
	if len(specs) != len(meta) || len(specs) == 0 {
		t.Fatalf("grid specs/meta mismatch: %d vs %d", len(specs), len(meta))
	}
	specs2, meta2 := SweepGrid(w, Options{Seed: 42, SweepScale: 0.05})
	for i := range specs {
		if meta[i] != meta2[i] {
			t.Fatalf("grid meta order unstable at %d", i)
		}
		d1, err1 := specs[i].Digest()
		d2, err2 := specs2[i].Digest()
		if err1 != nil || err2 != nil || d1 != d2 {
			t.Fatalf("grid spec %d digest unstable: %v %v", i, err1, err2)
		}
	}
}

func TestValidateShard(t *testing.T) {
	cases := []struct {
		name    string
		indices []int
		total   int
		ok      bool
	}{
		{"full", []int{0, 1, 2, 3}, 4, true},
		{"subset", []int{1, 3}, 4, true},
		{"empty", []int{}, 4, false},
		{"negative", []int{-1, 0}, 4, false},
		{"out of range", []int{0, 4}, 4, false},
		{"duplicate", []int{1, 1}, 4, false},
		{"unsorted", []int{2, 1}, 4, false},
	}
	for _, tc := range cases {
		got, err := ShardIndices(tc.indices, tc.total)
		if (err == nil) != tc.ok {
			t.Errorf("%s: ShardIndices(%v, %d) = %v, want ok=%v", tc.name, tc.indices, tc.total, err, tc.ok)
		}
		if tc.ok && !slices.Equal(got, tc.indices) {
			t.Errorf("%s: ShardIndices(%v, %d) = %v, want the shard itself", tc.name, tc.indices, tc.total, got)
		}
	}
	if got, err := ShardIndices(nil, 4); err != nil || !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Errorf("ShardIndices(nil, 4) = %v, %v, want the whole grid", got, err)
	}
}

// TestMergeShardsStrict pins GridMerge: points land by grid index
// whatever the delivery order, and every error names the offending
// index.
func TestMergeShardsStrict(t *testing.T) {
	type put struct{ idx, v int }
	cases := []struct {
		name    string
		indices []int
		puts    []put
		want    []int
		errIdx  int // the index the error must name; -1 for no error
	}{
		{"complete", []int{0, 1, 2}, []put{{0, 2}, {1, 4}, {2, 8}}, []int{2, 4, 8}, -1},
		{"missing", []int{0, 1, 2}, []put{{0, 0}, {2, 0}}, nil, 1},
		{"out of range", []int{0, 1}, []put{{0, 0}, {5, 0}}, nil, 5},

		{"full grid", []int{0, 1, 2, 3}, []put{{0, 10}, {1, 11}, {2, 12}, {3, 13}}, []int{10, 11, 12, 13}, -1},
		{"interleaved shard", []int{1, 3, 5}, []put{{1, 11}, {3, 13}, {5, 15}}, []int{11, 13, 15}, -1},
		{"out of order", []int{0, 2, 4, 6}, []put{{6, 16}, {0, 10}, {4, 14}, {2, 12}}, []int{10, 12, 14, 16}, -1},
		{"delivered twice", []int{0, 1, 2}, []put{{0, 0}, {2, 2}, {2, 2}}, nil, 2},
		{"outside shard", []int{1, 3, 5}, []put{{1, 0}, {4, 0}}, nil, 4},
	}
	for _, tc := range cases {
		m := NewGridMerge[int](tc.indices)
		var err error
		for _, p := range tc.puts {
			if err = m.Put(p.idx, p.v); err != nil {
				break
			}
		}
		var grid []int
		if err == nil {
			grid, err = m.Grid()
		}
		names := regexp.MustCompile(fmt.Sprintf(`\b%d\b`, tc.errIdx))
		switch {
		case tc.errIdx < 0 && (err != nil || !slices.Equal(grid, tc.want)):
			t.Errorf("%s: merged %v, %v; want %v", tc.name, grid, err, tc.want)
		case tc.errIdx >= 0 && err == nil:
			t.Errorf("%s: merge accepted, want an error naming index %d", tc.name, tc.errIdx)
		case tc.errIdx >= 0 && !names.MatchString(err.Error()):
			t.Errorf("%s: error %q does not name index %d", tc.name, err, tc.errIdx)
		}
	}
}

func TestSweepDigestDerivedFromSpecs(t *testing.T) {
	w := workload.MustTable2(1)
	opts := Options{Seed: 42, SweepScale: 0.05}
	base, points, err := SweepDigest(w, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 64 {
		t.Fatalf("digest %q is not a hex sha256", base)
	}
	// The point digests it returns are the grid's run digests, by index.
	specs, _ := SweepGrid(w, opts)
	if len(points) != len(specs) {
		t.Fatalf("%d point digests for %d grid points", len(points), len(specs))
	}
	for i, spec := range specs {
		if d := mustDigest(t, spec); points[i] != d {
			t.Errorf("point %d digest %s, want %s", i, points[i], d)
		}
	}

	// Identical inputs → identical digest.
	again, _, err := SweepDigest(w, opts, nil)
	if err != nil || again != base {
		t.Fatalf("sweep digest unstable: %s vs %s (%v)", base, again, err)
	}

	// Anything that changes a constituent run's digest changes the sweep
	// digest; a shard of the sweep keys differently from the whole.
	cases := []struct {
		name string
		w    *workload.Workload
		opts Options
		idx  []int
	}{
		{"seed", w, Options{Seed: 43, SweepScale: 0.05}, nil},
		{"scale", w, Options{Seed: 42, SweepScale: 0.1}, nil},
		{"workload", workload.MustTable2(2), opts, nil},
		{"shard", w, opts, []int{0, 1}},
		{"other shard", w, opts, []int{2, 3}},
	}
	seen := map[string]string{base: "base"}
	for _, tc := range cases {
		d, _, err := SweepDigest(tc.w, tc.opts, tc.idx)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("%s collides with %s: %s", tc.name, prev, d)
		}
		seen[d] = tc.name
	}

	// Workers is execution concurrency, not a result input: it must not
	// split the key (mirrors Digest ignoring observers).
	par := Options{Seed: 42, SweepScale: 0.05, Workers: 7}
	if d, _, err := SweepDigest(w, par, nil); err != nil || d != base {
		t.Errorf("Workers changed the sweep digest: %s vs %s (%v)", d, base, err)
	}

	if _, _, err := SweepDigest(w, opts, []int{99}); err == nil {
		t.Error("out-of-range shard indices accepted")
	}
}
