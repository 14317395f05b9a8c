package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dike/internal/harness"
	simmetrics "dike/internal/metrics"
	"dike/internal/serve"
	"dike/internal/serve/api"
	"dike/internal/store"
	"dike/internal/workload"
)

// newWorker boots a started dikeserved worker over httptest.
func newWorker(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// newCoord boots a coordinator over the worker URLs with test-fast
// timings; mut tweaks the config before construction.
func newCoord(t *testing.T, urls []string, mut func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers:       urls,
		ProbeInterval: -1, // passive health only, unless a test opts in
		ShardTimeout:  20 * time.Second,
		SubmitTimeout: 5 * time.Second,
		PollInterval:  5 * time.Millisecond,
		RetryBudget:   3,
		RetryBase:     5 * time.Millisecond,
		RetryMax:      20 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Drain(ctx)
	})
	return c, ts
}

// submit POSTs body and decodes the submission response.
func submit(t *testing.T, base, path, body string) api.SubmitResponse {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("submit %s: %s: %s", path, resp.Status, buf.String())
	}
	var sub api.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// await polls a job to a terminal state.
func await(t *testing.T, base, id string, timeout time.Duration) api.JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/runs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v api.JobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if api.Terminal(v.Status) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish within %v", id, timeout)
	return api.JobView{}
}

// gridRun is a simulate stub whose result is a pure function of the
// spec's Dike swap size and quanta length, so every sweep grid point
// gets distinct, position-identifiable values.
func gridRun(spec harness.RunSpec) *harness.RunOutput {
	ss, q := spec.DikeConfig.SwapSize, float64(spec.DikeConfig.QuantaLength)
	return &harness.RunOutput{
		Result: &simmetrics.RunResult{
			Policy: spec.Policy, Workload: spec.Workload.Name,
			Fairness: float64(ss) / q, Makespan: q + float64(ss), AvgTime: q,
			Swaps: ss * int(q),
		},
		CompletedAt: 100,
	}
}

// stubRun returns a simulate stub that counts executions.
func stubRun(calls *atomic.Int64) func(context.Context, harness.RunSpec) (*harness.RunOutput, error) {
	return func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		calls.Add(1)
		return &harness.RunOutput{
			Result: &simmetrics.RunResult{
				Policy: spec.Policy, Workload: spec.Workload.Name,
				Fairness: 1, Makespan: 100, AvgTime: 100,
			},
			CompletedAt: 100,
		}, nil
	}
}

// TestShardedSweepByteIdenticalToSingleNode is the acceptance property:
// the same sweep, run on one node and sharded across two, produces
// byte-identical result JSON. Real harness, no stubs.
func TestShardedSweepByteIdenticalToSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweeps in -short mode")
	}
	// The real harness does the work; the seam only counts each worker's
	// simulations so the test can prove the sweep was actually split
	// across the fleet.
	var simsA, simsB atomic.Int64
	counting := func(n *atomic.Int64) func(context.Context, harness.RunSpec) (*harness.RunOutput, error) {
		return func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
			n.Add(1)
			return harness.Run(ctx, spec)
		}
	}
	_, tsA := newWorker(t, serve.Config{Workers: 2, SweepWorkers: 4, Simulate: counting(&simsA)})
	_, tsB := newWorker(t, serve.Config{Workers: 2, SweepWorkers: 4, Simulate: counting(&simsB)})
	_, coord := newCoord(t, []string{tsA.URL, tsB.URL}, nil)

	const body = `{"workload": 1, "seed": 7, "scale": 0.01}`

	// Single node: the full sweep on worker A.
	single := submit(t, tsA.URL, "/v1/sweeps", body)
	sv := await(t, tsA.URL, single.ID, 2*time.Minute)
	if sv.Status != api.StatusDone {
		t.Fatalf("single-node sweep %s: %s", sv.Status, sv.Error)
	}
	if a, b := simsA.Load(), simsB.Load(); a != 32 || b != 0 {
		t.Fatalf("single-node sweep simulated A=%d B=%d, want 32/0", a, b)
	}

	// Sharded: the same sweep through the coordinator.
	sharded := submit(t, coord.URL, "/v1/sweeps", body)
	cv := await(t, coord.URL, sharded.ID, 2*time.Minute)
	if cv.Status != api.StatusDone {
		t.Fatalf("sharded sweep %s: %s", cv.Status, cv.Error)
	}

	if !bytes.Equal(sv.Result, cv.Result) {
		t.Fatalf("sharded sweep differs from single-node:\nsingle:  %s\nsharded: %s", sv.Result, cv.Result)
	}

	// The sweep must actually have been sharded: both workers simulated
	// part of it, and together exactly the grid.
	a, b := simsA.Load()-32, simsB.Load()
	if a == 0 || b == 0 || a+b != 32 {
		t.Fatalf("sweep not sharded across both workers: simulations A=%d B=%d, want both > 0 summing to 32", a, b)
	}
}

// TestWorkerKilledMidSweepReroutes kills one worker while its shard is
// in flight and requires the sweep to complete — no duplicate, no
// missing grid point — via re-route to the surviving worker, with the
// retry recorded in metrics.
func TestWorkerKilledMidSweepReroutes(t *testing.T) {
	gate := make(chan struct{})
	defer func() {
		select {
		case <-gate:
		default:
			close(gate)
		}
	}()
	entered := make(chan struct{}, 1)

	// Worker A hangs in its first grid point until killed; worker B
	// answers instantly with deterministic points.
	_, tsA := newWorker(t, serve.Config{Workers: 2, Simulate: func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-gate:
		case <-ctx.Done():
		}
		return gridRun(spec), ctx.Err()
	}})
	_, tsB := newWorker(t, serve.Config{Workers: 2, Simulate: func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		return gridRun(spec), nil
	}})
	// One-strike breaker: this test asserts the kill is reflected in the
	// fleet view after a single failed poll; gentler thresholds are
	// covered by the breaker tests.
	c, coord := newCoord(t, []string{tsA.URL, tsB.URL}, func(cfg *Config) {
		cfg.Breaker = BreakerConfig{DownAfter: 1, UpAfter: 1, OpenFor: time.Minute}
	})

	sub := submit(t, coord.URL, "/v1/sweeps", `{"workload": 1, "seed": 9, "scale": 0.05}`)

	// Wait until worker A is actually executing a shard, then kill it.
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker A never received a shard")
	}
	tsA.CloseClientConnections()
	tsA.Close()

	v := await(t, coord.URL, sub.ID, 30*time.Second)
	if v.Status != api.StatusDone {
		t.Fatalf("sweep after worker kill: %s: %s", v.Status, v.Error)
	}
	var res api.SweepResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	specs, _ := harness.SweepGrid(workload.MustTable2(1), harness.Options{Seed: 9, SweepScale: 0.05})
	if len(res.Grid) != len(specs) {
		t.Fatalf("merged grid has %d points, want %d", len(res.Grid), len(specs))
	}
	for i, p := range res.Grid {
		cfg := specs[i].DikeConfig
		want := gridRun(specs[i]).Result
		if p.SwapSize != cfg.SwapSize || p.QuantaMs != cfg.QuantaLength.Millis() ||
			p.Fairness != want.Fairness || p.Swaps != want.Swaps {
			t.Fatalf("grid point %d corrupted by re-route: %+v", i, p)
		}
	}
	if _, rerouted, retries := c.RoutingStats(); retries == 0 || rerouted == 0 {
		t.Fatalf("re-route not recorded: rerouted=%d retries=%d", rerouted, retries)
	}
	wv := c.Workers()
	downs := 0
	for _, w := range wv.Workers {
		if !w.Healthy {
			downs++
		}
	}
	if downs != 1 {
		t.Fatalf("killed worker not marked down: %+v", wv)
	}
}

// TestRunRoutingIsCacheAffine: identical runs land on the same worker,
// so the second submission is served from that worker's digest cache.
// A traffic body under the meta policy, routed to store-backed workers,
// is simulated once and its repeat not at all.
func TestRunRoutingIsCacheAffine(t *testing.T) {
	// realRun counts executions of the real harness.
	realRun := func(calls *atomic.Int64) func(context.Context, harness.RunSpec) (*harness.RunOutput, error) {
		return func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
			calls.Add(1)
			return harness.Run(ctx, spec)
		}
	}
	cases := []struct {
		name     string
		body     string
		store    bool // each worker writes through to its own durable store
		simulate func(*atomic.Int64) func(context.Context, harness.RunSpec) (*harness.RunOutput, error)
	}{
		{"table2", `{"workload": 2, "policy": "cfs", "seed": 5, "scale": 0.05}`, false, stubRun},
		// An open-loop body under the meta policy with its own
		// tournament config, as a tournament grid cell submits it.
		{"traffic-meta-store", `{"policy": "meta", "seed": 7, "meta": {"epoch_ms": 250},
			"traffic": {"name": "colo", "horizon_ms": 1000, "load": 0.5, "classes": [
				{"name": "web", "profile": "hotspot", "mean_work": 300, "slo_ms": 500,
				 "arrival": {"process": "poisson", "rate_per_sec": 20}},
				{"name": "batch", "profile": "jacobi", "mean_work": 2000,
				 "arrival": {"process": "poisson", "rate_per_sec": 2}}]}}`, true, realRun},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var callsA, callsB atomic.Int64
			worker := func(calls *atomic.Int64) (*serve.Server, *httptest.Server) {
				cfg := serve.Config{Workers: 2, Simulate: tc.simulate(calls)}
				if tc.store {
					st, err := store.Open(t.TempDir(), store.Options{})
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { st.Close() }) // runs after the worker drains
					cfg.Store = st
				}
				return newWorker(t, cfg)
			}
			wA, tsA := worker(&callsA)
			wB, tsB := worker(&callsB)
			c, coord := newCoord(t, []string{tsA.URL, tsB.URL}, nil)

			first := submit(t, coord.URL, "/v1/runs", tc.body)
			v := await(t, coord.URL, first.ID, 20*time.Second)
			if v.Status != api.StatusDone {
				t.Fatalf("first run: %s: %s", v.Status, v.Error)
			}
			var res api.RunResult
			if err := json.Unmarshal(v.Result, &res); err != nil {
				t.Fatal(err)
			}
			if tc.store && (res.Traffic == nil || res.MetaFinalPolicy == "") {
				t.Fatalf("traffic meta body ran as %+v", res)
			}
			if n := callsA.Load() + callsB.Load(); n != 1 {
				t.Fatalf("first run simulated %d times across the fleet, want 1", n)
			}
			second := submit(t, coord.URL, "/v1/runs", tc.body)
			if v := await(t, coord.URL, second.ID, 10*time.Second); v.Status != api.StatusDone {
				t.Fatalf("second run: %s: %s", v.Status, v.Error)
			}
			if first.Digest != second.Digest {
				t.Fatalf("identical requests got different digests: %s vs %s", first.Digest, second.Digest)
			}

			if n := callsA.Load() + callsB.Load(); n != 1 {
				t.Fatalf("identical runs simulated %d times across the fleet, want 1 (ring affinity + worker cache)", n)
			}
			hitsA, _, _, _ := wA.CacheStats()
			hitsB, _, _, _ := wB.CacheStats()
			if hitsA+hitsB != 1 {
				t.Fatalf("second submission not served from the routed worker's cache: hits A=%d B=%d", hitsA, hitsB)
			}
			if primary, rerouted, _ := c.RoutingStats(); primary != 2 || rerouted != 0 {
				t.Fatalf("routing stats: primary=%d rerouted=%d, want 2/0", primary, rerouted)
			}
		})
	}
}

// TestAllWorkersDownFailsFastWithAttribution: with the whole fleet
// unreachable, runs and sweeps fail promptly (no hang) and the error
// names the workers that were tried.
func TestAllWorkersDownFailsFastWithAttribution(t *testing.T) {
	// Real listeners, immediately closed: connection refused.
	dead1 := httptest.NewServer(http.NotFoundHandler())
	dead2 := httptest.NewServer(http.NotFoundHandler())
	url1, url2 := dead1.URL, dead2.URL
	dead1.Close()
	dead2.Close()

	_, coord := newCoord(t, []string{url1, url2}, nil)

	start := time.Now()
	run := submit(t, coord.URL, "/v1/runs", `{"workload": 1, "policy": "dike", "scale": 0.05}`)
	v := await(t, coord.URL, run.ID, 10*time.Second)
	if v.Status != api.StatusFailed {
		t.Fatalf("run against dead fleet: %s", v.Status)
	}
	if !strings.Contains(v.Error, url1) && !strings.Contains(v.Error, url2) {
		t.Fatalf("failure lacks worker attribution: %q", v.Error)
	}

	sweep := submit(t, coord.URL, "/v1/sweeps", `{"workload": 1, "scale": 0.05}`)
	sv := await(t, coord.URL, sweep.ID, 10*time.Second)
	if sv.Status != api.StatusFailed {
		t.Fatalf("sweep against dead fleet: %s", sv.Status)
	}
	if !strings.Contains(sv.Error, "shard") {
		t.Fatalf("sweep failure lacks per-shard attribution: %q", sv.Error)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("dead fleet took %v to fail — not degrading gracefully", elapsed)
	}
}

// TestProbeMarksDownAndUp: the prober takes a worker out of rotation
// when /healthz fails and returns it when health comes back.
func TestProbeMarksDownAndUp(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(false)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(fake.Close)

	c, _ := newCoord(t, []string{fake.URL}, func(cfg *Config) {
		cfg.ProbeInterval = 20 * time.Millisecond
	})

	waitHealth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.Workers().Healthy == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("fleet health never reached %d: %+v", want, c.Workers())
	}
	waitHealth(0)
	healthy.Store(true)
	waitHealth(1)
}

// TestCoordinatorDrain: draining refuses new submissions with 503 but
// lets in-flight jobs finish.
func TestCoordinatorDrain(t *testing.T) {
	var calls atomic.Int64
	_, tsA := newWorker(t, serve.Config{Workers: 2, Simulate: stubRun(&calls)})
	c, coord := newCoord(t, []string{tsA.URL}, nil)

	sub := submit(t, coord.URL, "/v1/runs", `{"workload": 1, "policy": "cfs", "scale": 0.05}`)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if v := await(t, coord.URL, sub.ID, 5*time.Second); v.Status != api.StatusDone {
		t.Fatalf("in-flight job after drain: %s: %s", v.Status, v.Error)
	}
	resp, err := http.Post(coord.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"workload": 1, "policy": "cfs"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: %s, want 503", resp.Status)
	}
}

// TestCoordinatorEventsAndWorkersEndpoints exercises the remaining API
// surface: the terminal NDJSON event and the fleet view.
func TestCoordinatorEventsAndWorkersEndpoints(t *testing.T) {
	var calls atomic.Int64
	_, tsA := newWorker(t, serve.Config{Workers: 2, Simulate: stubRun(&calls)})
	_, coord := newCoord(t, []string{tsA.URL}, nil)

	sub := submit(t, coord.URL, "/v1/runs", `{"workload": 1, "policy": "cfs", "scale": 0.05}`)
	await(t, coord.URL, sub.ID, 10*time.Second)

	resp, err := http.Get(coord.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ev api.Event
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Status != api.StatusDone {
		t.Fatalf("terminal event status %q", ev.Status)
	}

	var wv api.WorkersView
	wresp, err := http.Get(coord.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	if err := json.NewDecoder(wresp.Body).Decode(&wv); err != nil {
		t.Fatal(err)
	}
	if len(wv.Workers) != 1 || wv.Healthy != 1 || wv.Workers[0].URL != tsA.URL {
		t.Fatalf("fleet view wrong: %+v", wv)
	}
	if wv.Workers[0].Requests == 0 {
		t.Fatalf("per-worker request count not recorded: %+v", wv.Workers[0])
	}

	mresp, err := http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	for _, metric := range []string{
		"dike_cluster_workers_healthy 1",
		"dike_cluster_worker_requests_total",
		"dike_cluster_ring_hit_ratio",
		"dike_cluster_shard_seconds_count",
		fmt.Sprintf("dike_cluster_jobs_total{status=%q} 1", "done"),
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}
}
