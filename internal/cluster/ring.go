package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringReplicas is the number of virtual nodes per worker. 64 keeps the
// per-worker load spread within a few percent of even for small fleets
// while the ring stays tiny (a handful of workers × 64 points).
const ringReplicas = 64

// Ring is a consistent-hash ring over the configured workers. Routing a
// run by its spec digest through the ring gives two properties the
// cluster leans on: identical specs always land on the same worker
// (so its digest-keyed LRU cache and singleflight dedup keep working
// fleet-wide), and adding or removing one worker only remaps the keys
// that worker owned, not the whole key space.
//
// The ring is built once over the full static fleet; health is applied
// at lookup time by walking successors, so a worker coming back up
// reclaims exactly its old keys.
type Ring struct {
	points  []ringPoint // sorted by hash
	members []string    // distinct worker URLs, config order
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds a ring over the worker URLs.
func NewRing(workers []string) (*Ring, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one worker")
	}
	r := &Ring{}
	seen := make(map[string]bool, len(workers))
	for _, w := range workers {
		if seen[w] {
			return nil, fmt.Errorf("cluster: duplicate worker %q", w)
		}
		seen[w] = true
		r.members = append(r.members, w)
		for i := 0; i < ringReplicas; i++ {
			r.points = append(r.points, ringPoint{
				hash:   ringHash(fmt.Sprintf("%s#%d", w, i)),
				member: w,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break deterministically so equal hashes (vanishingly rare
		// but possible) cannot make Order depend on sort internals.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the workers on the ring, in configuration order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Order returns every worker in preference order for key: the ring
// owner first, then each distinct successor clockwise. Callers walk the
// list skipping unhealthy workers, so "retry on the next worker in the
// ring" is Order(key)[1], [2], … with mark-downs applied.
func (r *Ring) Order(key string) []string {
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	order := make([]string, 0, len(r.members))
	seen := make(map[string]bool, len(r.members))
	for i := 0; i < len(r.points) && len(order) < len(r.members); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			order = append(order, p.member)
		}
	}
	return order
}

// ringHash places a key or a virtual node on the ring. FNV-1a alone
// leaves strings that differ only in their last bytes (one worker's
// "url#0" … "url#63", or two workers on neighbouring ports) on a
// lattice, so a whole fleet's virtual nodes interleave unevenly. The
// 64-bit MurmurHash3 finaliser spreads them.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}
