package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dike/internal/harness"
	"dike/internal/serve"
	"dike/internal/serve/api"
)

// TestCoordinatorMemoRoutesLikeBuildRunSpec: the coordinator resolves a
// resubmitted body from its run memo, and still routes it by the digest
// BuildRunSpec computes, to that digest's ring owner, which serves it
// from its cache.
func TestCoordinatorMemoRoutesLikeBuildRunSpec(t *testing.T) {
	var calls atomic.Int64
	var mu sync.Mutex
	ranOn := map[string]int{} // spec digest → index of the worker that simulated it
	urls := make([]string, 3)
	for i := range urls {
		_, ts := newWorker(t, serve.Config{Workers: 1, Simulate: func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
			d, err := spec.Digest()
			if err != nil {
				return nil, err
			}
			mu.Lock()
			if prev, ok := ranOn[d]; ok {
				t.Errorf("digest %.12s simulated on worker %d and again on %d", d, prev, i)
			}
			ranOn[d] = i
			mu.Unlock()
			return stubRun(&calls)(ctx, spec)
		}})
		urls[i] = ts.URL
	}
	c, coord := newCoord(t, urls, nil)

	const n = 6
	for seed := 1; seed <= n; seed++ {
		body := fmt.Sprintf(`{"workload": 2, "policy": "cfs", "seed": %d, "scale": 0.05}`, seed)
		var req api.RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		_, want, err := serve.BuildRunSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"first", "memo hit"} {
			sub := submit(t, coord.URL, "/v1/runs", body)
			if sub.Digest != want {
				t.Fatalf("seed %d %s: coordinator digest %s, BuildRunSpec %s", seed, kind, sub.Digest, want)
			}
			if v := await(t, coord.URL, sub.ID, 10*time.Second); v.Status != api.StatusDone {
				t.Fatalf("seed %d %s: %s: %s", seed, kind, v.Status, v.Error)
			}
		}
		mu.Lock()
		got, ok := ranOn[want]
		mu.Unlock()
		if owner := c.ringOrder(want)[0]; !ok || urls[got] != owner {
			t.Errorf("seed %d simulated on worker %d (ran %v), ring owner %s", seed, got, ok, owner)
		}
	}
	if got := calls.Load(); got != n {
		t.Errorf("%d simulations for %d distinct bodies each sent twice", got, n)
	}
	if primary, rerouted, _ := c.RoutingStats(); primary != 2*n || rerouted != 0 {
		t.Errorf("routing stats: primary=%d rerouted=%d, want %d/0", primary, rerouted, 2*n)
	}
}
