package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dike/internal/serve"
)

// TestFlappingProbeCausesNoRouteChurn: with default breaker thresholds
// a worker whose /healthz drops every third probe never leaves
// rotation — the one-strike eviction the breaker was built to stop.
func TestFlappingProbeCausesNoRouteChurn(t *testing.T) {
	var calls atomic.Int64
	inner, innerTS := newWorker(t, serve.Config{Workers: 2, Simulate: stubRun(&calls)})
	_ = inner

	// Flaky health front: every 3rd /healthz 500s, everything else is
	// proxied through untouched.
	innerURL, err := url.Parse(innerTS.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(innerURL)
	var probes atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && probes.Add(1)%3 == 0 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	coord, coordTS := newCoord(t, []string{flaky.URL}, func(cfg *Config) {
		cfg.ProbeInterval = 10 * time.Millisecond // default breaker thresholds
	})

	// Let ~30 probes happen; the breaker must never open.
	time.Sleep(300 * time.Millisecond)
	if n := coord.met.breakerTransitionCount(""); n != 0 {
		t.Fatalf("flapping probe caused %d breaker transitions with default thresholds", n)
	}
	sub := submit(t, coordTS.URL, "/v1/runs", `{"workload": 2, "policy": "cfs", "seed": 5001, "scale": 0.01}`)
	if v := await(t, coordTS.URL, sub.ID, 10*time.Second); v.Status != "done" {
		t.Fatalf("run on flapping-probe worker: %+v", v)
	}
}

// TestMembershipAPIAndLeaseExpiry covers the HTTP membership protocol:
// join validation, lease-carrying views, sweeper expiry, and leave.
func TestMembershipAPIAndLeaseExpiry(t *testing.T) {
	var calls atomic.Int64
	_, w1 := newWorker(t, serve.Config{Workers: 2, Simulate: stubRun(&calls)})
	_, w2 := newWorker(t, serve.Config{Workers: 2, Simulate: stubRun(&calls)})

	_, coordTS := newCoord(t, []string{w1.URL}, func(cfg *Config) {
		cfg.LeaseSweepInterval = 10 * time.Millisecond
	})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(coordTS.URL+"/v1/cluster/workers", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Join validation.
	if resp := post(`{"url": "not-a-url"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad URL join: %s", resp.Status)
	}
	if resp := post(`{"url": "http://x", "ttl_ms": -5}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative TTL join: %s", resp.Status)
	}

	// Leased join appears in the fleet view with its lease.
	if resp := post(fmt.Sprintf(`{"url": %q, "ttl_ms": 150}`, w2.URL)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("join: %s", resp.Status)
	}
	// Renewal answers 200, not 201.
	if resp := post(fmt.Sprintf(`{"url": %q, "ttl_ms": 150}`, w2.URL)); resp.StatusCode != http.StatusOK {
		t.Fatalf("renewal: %s", resp.Status)
	}

	workers := func() []map[string]any {
		t.Helper()
		resp, err := http.Get(coordTS.URL + "/v1/cluster/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v struct {
			Workers []map[string]any `json:"workers"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v.Workers
	}

	ws := workers()
	if len(ws) != 2 {
		t.Fatalf("fleet view has %d workers, want 2", len(ws))
	}
	var leased map[string]any
	for _, w := range ws {
		if w["url"] == w2.URL {
			leased = w
		}
	}
	if leased == nil {
		t.Fatalf("joined worker missing from view: %v", ws)
	}
	if leased["source"] != "lease" {
		t.Fatalf("joined worker source %v, want lease", leased["source"])
	}
	if exp, ok := leased["lease_expires_ms"].(float64); !ok || exp <= 0 {
		t.Fatalf("joined worker lease_expires_ms %v", leased["lease_expires_ms"])
	}

	// Unrenewed, the lease lapses and the sweeper removes the worker.
	deadline := time.Now().Add(3 * time.Second)
	for len(workers()) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("leased worker never expired: %v", workers())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Leave: unknown URL 404s, a member leaves cleanly.
	del := func(u string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, coordTS.URL+"/v1/cluster/workers?url="+u, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("http://nope"); code != http.StatusNotFound {
		t.Fatalf("unknown leave: %d", code)
	}
	if code := del(w1.URL); code != http.StatusOK {
		t.Fatalf("leave: %d", code)
	}
	if n := len(workers()); n != 0 {
		t.Fatalf("fleet not empty after leave: %d", n)
	}

	// Membership metrics made it to the scrape.
	resp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body) //nolint:errcheck
	if !strings.Contains(buf.String(), "dike_cluster_membership_changes_total") {
		t.Fatal("membership metrics missing from /metrics")
	}
}
