package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"dike/internal/core"
	"dike/internal/workload"
)

// SweepGrid returns the sweep's resolved run specs and the matching grid
// metadata (one skeleton ConfigResult per spec, SwapSize/Quanta filled),
// in the sweep's stable order (quanta-major, swap sizes ascending). It
// is the single source of truth for what "grid index i" means: sharded
// and single-node sweeps both derive their spec list from it, so an
// index routed to a remote worker names exactly the run a local sweep
// would execute at that position.
func SweepGrid(w *workload.Workload, optsIn Options) ([]RunSpec, []ConfigResult) {
	opts := optsIn.withDefaults()
	return sweepGrid(w, opts)
}

// sweepGrid is SweepGrid over already-defaulted options.
func sweepGrid(w *workload.Workload, opts Options) ([]RunSpec, []ConfigResult) {
	var specs []RunSpec
	var meta []ConfigResult
	for _, q := range core.QuantaLevels {
		for _, ss := range core.SwapSizeLevels() {
			cfg := core.DefaultConfig()
			cfg.QuantaLength = q
			cfg.SwapSize = ss
			specs = append(specs, RunSpec{
				Workload: w, Policy: PolicyDike, DikeConfig: &cfg,
				Seed: opts.Seed, Scale: opts.SweepScale,
			})
			meta = append(meta, ConfigResult{SwapSize: ss, Quanta: q})
		}
	}
	return specs, meta
}

// ShardIndices resolves a requested shard of a total-point grid to the
// grid positions it covers. A nil shard means the whole grid, every
// index in order. Otherwise the shard must be non-empty, strictly
// increasing (sorted, no duplicates) and within [0, total), and is
// returned as given.
func ShardIndices(shard []int, total int) ([]int, error) {
	if shard == nil {
		all := make([]int, total)
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	if len(shard) == 0 {
		return nil, fmt.Errorf("harness: empty shard")
	}
	for i, idx := range shard {
		if idx < 0 || idx >= total {
			return nil, fmt.Errorf("harness: shard index %d outside grid [0, %d)", idx, total)
		}
		if i > 0 && idx <= shard[i-1] {
			return nil, fmt.Errorf("harness: shard indices not strictly increasing at %d", idx)
		}
	}
	return shard, nil
}

// GridMerge assembles the points of a sweep, or of one shard of it,
// strictly by grid index. Points are placed by index, never by arrival
// order, so the merged grid is the same however the points were
// scheduled or routed. It is strict: an index outside the requested
// shard, an index delivered twice, and an index never delivered are all
// errors naming the index, so a dropped or double-executed point can
// never be silently papered over. A GridMerge is not safe for
// concurrent use.
type GridMerge[T any] struct {
	indices []int // requested grid positions, strictly increasing
	grid    []T   // grid[k] is the point for indices[k]
	have    []bool
	n       int
}

// NewGridMerge returns an empty merge over indices, which must be
// strictly increasing, as ShardIndices returns them.
func NewGridMerge[T any](indices []int) *GridMerge[T] {
	return &GridMerge[T]{indices: indices, grid: make([]T, len(indices)), have: make([]bool, len(indices))}
}

// Put delivers the point for grid index idx.
func (m *GridMerge[T]) Put(idx int, v T) error {
	k, ok := slices.BinarySearch(m.indices, idx)
	if !ok {
		return fmt.Errorf("harness: grid index %d outside the requested shard", idx)
	}
	if m.have[k] {
		return fmt.Errorf("harness: grid index %d delivered twice", idx)
	}
	m.grid[k], m.have[k] = v, true
	m.n++
	return nil
}

// Len returns the number of points delivered so far.
func (m *GridMerge[T]) Len() int { return m.n }

// Missing returns the requested grid indices not yet delivered, in grid
// order.
func (m *GridMerge[T]) Missing() []int {
	var out []int
	for k, idx := range m.indices {
		if !m.have[k] {
			out = append(out, idx)
		}
	}
	return out
}

// Grid returns the merged points in grid order, or an error naming the
// indices still missing.
func (m *GridMerge[T]) Grid() ([]T, error) {
	if missing := m.Missing(); len(missing) > 0 {
		return nil, fmt.Errorf("harness: merge missing grid indices %v", missing)
	}
	return m.grid, nil
}

// SweepDigest content-addresses a sweep (or a shard of one, when
// indices is non-nil) by the digests of its resolved run specs, in grid
// order. Deriving the sweep key from RunSpec.Digest — rather than
// hashing the raw request fields — means a sweep's cache key moves in
// lockstep with the run cache keys: anything that would change any
// constituent run's digest (workload content, resolved Dike or machine
// configuration, seed, scale) changes the sweep digest too, and nothing
// else does. It also returns the point digests of the whole grid, by
// grid index, so callers that key each point by its digest need not
// compute them again.
func SweepDigest(w *workload.Workload, opts Options, indices []int) (digest string, points []string, err error) {
	specs, _ := SweepGrid(w, opts)
	if _, err := ShardIndices(indices, len(specs)); err != nil {
		return "", nil, err
	}
	digests := make([]string, len(specs))
	for i, spec := range specs {
		d, err := spec.Digest()
		if err != nil {
			return "", nil, err
		}
		digests[i] = d
	}
	blob, err := json.Marshal(struct {
		Kind    string
		Specs   []string
		Indices []int `json:",omitempty"`
	}{"sweep", digests, indices})
	if err != nil {
		return "", nil, fmt.Errorf("harness: sweep digest: %w", err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), digests, nil
}
