package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dike/internal/chaos"
	"dike/internal/cluster"
	"dike/internal/harness"
	simmetrics "dike/internal/metrics"
	"dike/internal/serve"
	"dike/internal/serve/api"
)

// TestReservoirSmallRunPercentiles is the regression test for the
// small-run percentile bug: below the reservoir size the sample sits in
// arrival order, and percentile must rank it, not index it raw.
func TestReservoirSmallRunPercentiles(t *testing.T) {
	r := newReservoir(reservoirSize, 1)
	// Deliberately unsorted arrival order: descending 100ms..1ms.
	for ms := 100; ms >= 1; ms-- {
		r.observe(time.Duration(ms) * time.Millisecond)
	}
	if r.count != 100 {
		t.Fatalf("count = %d, want 100", r.count)
	}
	if got, want := r.percentile(0), 1*time.Millisecond; got != want {
		t.Errorf("p0 = %v, want %v", got, want)
	}
	if got, want := r.percentile(0.50), 50*time.Millisecond; got != want {
		t.Errorf("p50 = %v, want %v (raw arrival order would give ~51ms descending)", got, want)
	}
	if got, want := r.percentile(0.99), 99*time.Millisecond; got != want {
		t.Errorf("p99 = %v, want %v", got, want)
	}
	if got, want := r.max, 100*time.Millisecond; got != want {
		t.Errorf("max = %v, want %v", got, want)
	}
	// percentile must not mutate the sample (report prints several).
	if got := r.percentile(0.50); got != 50*time.Millisecond {
		t.Errorf("second p50 = %v, want 50ms", got)
	}
}

// TestReservoirBounded checks the sampler caps memory while keeping
// exact count and max over the full stream.
func TestReservoirBounded(t *testing.T) {
	r := newReservoir(64, 1)
	const n = 10_000
	for i := 1; i <= n; i++ {
		r.observe(time.Duration(i) * time.Microsecond)
	}
	if len(r.sample) != 64 {
		t.Fatalf("sample size = %d, want 64", len(r.sample))
	}
	if r.count != n {
		t.Fatalf("count = %d, want %d", r.count, n)
	}
	if r.max != n*time.Microsecond {
		t.Fatalf("max = %v, want %v", r.max, n*time.Microsecond)
	}
	// The sampled median of 1..n µs must land in the interior — a
	// sampler that kept only the first 64 observations would report
	// ≤64µs.
	p50 := r.percentile(0.50)
	if p50 < 1000*time.Microsecond || p50 > time.Duration(n-1000)*time.Microsecond {
		t.Errorf("sampled p50 = %v, implausible for uniform 1..%dµs", p50, n)
	}
}

// TestAwaitEndsOnPollStatus checks that a poll answered with a status
// outside 2xx fails the job at once instead of polling it until
// -job-timeout: a 404 body carries no job status to wait on.
func TestAwaitEndsOnPollStatus(t *testing.T) {
	var gets atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			api.WriteJSON(w, http.StatusAccepted, api.SubmitResponse{ID: "j1", Status: api.StatusQueued})
			return
		}
		gets.Add(1)
		api.WriteError(w, http.StatusNotFound, errors.New("no such job"))
	}))
	defer ts.Close()
	lg := newLoad(ts.URL, 1, nil)
	start := time.Now()
	lg.run(0)
	if gets.Load() != 1 || lg.jobFailed != 1 || lg.completed != 0 || lg.transport != 0 {
		t.Errorf("GETs=%d failed=%d completed=%d transport=%d; want one GET and one failed job",
			gets.Load(), lg.jobFailed, lg.completed, lg.transport)
	}
	if lg.codes[http.StatusAccepted] != 1 {
		t.Errorf("status counts %v, want one 202", lg.codes)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("took %v: the poll waited for the job timeout", d)
	}
}

// pureRun is a simulate stub whose result is a function of the spec
// alone, so every worker, and an undisturbed reference, answers a
// digest with the same bytes.
func pureRun(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
	return &harness.RunOutput{
		Result: &simmetrics.RunResult{
			Policy:   spec.Policy,
			Workload: spec.Workload.Name,
			Fairness: float64(spec.Seed%97) / 97,
			AvgTime:  float64(100 + spec.Seed%13),
			Makespan: float64(1000 + spec.Seed%7),
		},
		CompletedAt: 100,
	}, nil
}

// newWorker boots a started worker over httptest; it drains at
// cleanup.
func newWorker(t *testing.T, simulate func(context.Context, harness.RunSpec) (*harness.RunOutput, error)) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(serve.Config{Workers: 2, SweepWorkers: 2, Simulate: simulate})
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

// newCoord boots a started coordinator over the worker URLs with fast
// probing, retries and breakers; it drains at cleanup.
func newCoord(t *testing.T, workers []string) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Workers:            workers,
		Breaker:            cluster.BreakerConfig{DownAfter: 2, UpAfter: 1, OpenFor: 200 * time.Millisecond},
		ProbeInterval:      50 * time.Millisecond,
		ShardTimeout:       10 * time.Second,
		PollInterval:       5 * time.Millisecond,
		RetryBudget:        4,
		RetryBase:          5 * time.Millisecond,
		RetryMax:           20 * time.Millisecond,
		LeaseSweepInterval: 20 * time.Millisecond,
	})
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

// newLoad is dikeload's loadgen as main builds it with -n n against
// base; mut sets the other flags.
func newLoad(base string, n int, mut func(*loadgen)) *loadgen {
	lg := &loadgen{
		api: &api.Client{Base: base, HTTP: &http.Client{Timeout: 10 * time.Second}},
		n:   n, scale: 0.01, seed: 1, runW: 1, poll: true, timeout: time.Minute,
		codes: make(map[int]int), lat: newReservoir(reservoirSize, 1),
		results: make(map[string]map[string]int),
	}
	if mut != nil {
		mut(lg)
	}
	return lg
}

// counter reads one series of a /metrics scrape; 0 when absent.
func counter(t *testing.T, base, series string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return n
		}
	}
	return 0
}

// TestLoadWorkerAndCoordinator runs dikeload's closed loop against a
// worker and through a coordinator: no run may end in a hard error,
// and a small seed space must be answered from the worker's cache.
func TestLoadWorkerAndCoordinator(t *testing.T) {
	w1, ts1 := newWorker(t, pureRun)
	_, ts2 := newWorker(t, pureRun)
	_, coord := newCoord(t, []string{ts1.URL, ts2.URL})

	for _, tc := range []struct {
		name    string
		base    string
		n       int
		space   int
		sweepsW int
	}{
		{"worker/fresh", ts1.URL, 50, 0, 0},
		{"worker/seed-space", ts1.URL, 30, 4, 1},
		{"coordinator", coord.URL, 20, 0, 1},
	} {
		lg := newLoad(tc.base, tc.n, func(lg *loadgen) { lg.space, lg.runW, lg.sweepW = tc.space, 10, tc.sweepsW })
		lg.drive(4)
		if n := lg.hardErrors(); n != 0 || lg.completed != tc.n {
			var out strings.Builder
			lg.report(&out, 0, 4)
			t.Errorf("%s: %d hard errors, %d of %d jobs completed:\n%s", tc.name, n, lg.completed, tc.n, out.String())
		}
		if tc.space > 0 {
			if hits, _, _, _ := w1.CacheStats(); hits == 0 || lg.cached == 0 {
				t.Errorf("%s: cache hits %d on the worker, %d cached replies; want both > 0", tc.name, hits, lg.cached)
			}
		}
	}
}

// TestChurnSoakExactlyOnce is the soak gate of dikeload -churn: three
// workers behind fault-injecting proxies and a fourth without one
// front a coordinator; a fifth joins with a lease once a third of the
// specs have simulated, and the unproxied one dies once half have.
// Every spec must complete (lost=0) with one result hash per digest
// (divergent=0), the soak digest must equal an undisturbed single
// worker's, the joined worker must be a leased member, and the dead
// worker's breaker must have opened; without a proxy, only the kill
// can open it.
func TestChurnSoakExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const nSpecs, clients = 24, 6
	soak := func(base string) *loadgen {
		return newLoad(base, nSpecs, func(lg *loadgen) { lg.churn, lg.seed = true, 5000 })
	}

	_, ref := newWorker(t, pureRun)
	want := soak(ref.URL)
	want.drive(clients)
	if want.hardErrors() != 0 {
		t.Fatalf("reference soak: lost=%d divergent=%d", want.lost, want.divergent())
	}

	// Simulations past a third of the specs wait for the join, past
	// half for the kill, so both land mid-soak.
	var sims atomic.Int64
	joined, killed := make(chan struct{}), make(chan struct{})
	gated := func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		var gate chan struct{}
		switch n := sims.Add(1); {
		case n > nSpecs/2:
			gate = killed // closed after joined
		case n > nSpecs/3:
			gate = joined
		}
		if gate != nil {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return pureRun(ctx, spec)
	}
	_, wA := newWorker(t, gated)
	_, wB := newWorker(t, gated)
	_, wC := newWorker(t, gated)
	_, wD := newWorker(t, gated)
	_, wK := newWorker(t, gated)
	pA, pB, pC := chaosFront(t, wA.URL, 101), chaosFront(t, wB.URL, 202), chaosFront(t, wC.URL, 303)
	coord, coordTS := newCoord(t, []string{pA, pB, pC, wK.URL})

	got := soak(coordTS.URL)
	done := make(chan struct{})
	go func() {
		defer close(done)
		got.drive(clients)
	}()
	waitSims := func(n int64) {
		for sims.Load() <= n {
			select {
			case <-done:
				t.Fatalf("soak ended after %d simulations, before the churn at %d", sims.Load(), n)
			case <-time.After(time.Millisecond):
			}
		}
	}
	waitSims(nSpecs / 3)
	join, _ := json.Marshal(api.WorkerJoinRequest{URL: wD.URL, TTLMs: time.Minute.Milliseconds()})
	if code, err := (&api.Client{Base: coordTS.URL}).Do(context.Background(), http.MethodPost, "/v1/cluster/workers", join, nil); code != http.StatusCreated {
		t.Fatalf("join: %d %v", code, err)
	}
	close(joined)
	waitSims(nSpecs / 2)
	wK.CloseClientConnections() // no drain, no goodbye
	wK.Close()
	close(killed)
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("soak did not finish")
	}

	if got.lost != 0 || got.divergent() != 0 || got.completed != nSpecs {
		t.Errorf("churn soak: lost=%d divergent=%d completed=%d of %d", got.lost, got.divergent(), got.completed, nSpecs)
	}
	if g, w := got.soakDigest(), want.soakDigest(); g != w {
		t.Errorf("soak digest %s, undisturbed single worker %s", g, w)
	}
	var leased bool
	for _, w := range coord.Workers().Workers {
		leased = leased || (w.URL == wD.URL && w.Source == "lease")
	}
	if !leased {
		t.Errorf("joined worker %s not a leased member: %+v", wD.URL, coord.Workers())
	}
	opened := `dike_cluster_breaker_transitions_total{worker="` + wK.URL + `",to="open"}`
	for deadline := time.Now().Add(5 * time.Second); counter(t, coordTS.URL, opened) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("killed worker's breaker never opened: no %s", opened)
		}
	}
	if n := counter(t, coordTS.URL, `dike_cluster_membership_changes_total{op="join"}`); n != 1 {
		t.Errorf("membership joins counted %d, want 1", n)
	}
}

// chaosFront puts a deterministic chaos proxy in front of a worker URL
// and returns the proxy's URL.
func chaosFront(t *testing.T, target string, seed uint64) string {
	t.Helper()
	p, err := chaos.NewProxy(target, chaos.Config{
		Seed:       seed,
		Rate:       0.2,
		Classes:    []chaos.Class{chaos.ClassReset, chaos.ClassError5xx, chaos.ClassTruncate, chaos.ClassLatency},
		MaxLatency: 20 * time.Millisecond,
		BurstLen:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return front.URL
}
