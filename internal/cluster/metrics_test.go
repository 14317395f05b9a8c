package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dike/internal/serve/api"
)

// checkGolden compares a full scrape byte for byte with
// testdata/<name>. GEN_METRICS_GOLDEN=1 rewrites the file instead.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GEN_METRICS_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scrape differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

const (
	goldenW1 = "http://10.0.0.1:8080"
	goldenW2 = "http://10.0.0.2:8080"
	goldenW3 = "http://10.0.0.3:8080"
)

// populatedClusterMetrics drives every coordinator family: each
// terminal status, breaker target state and membership op, three
// workers in the three breaker positions, and shard latencies exactly
// on a bucket bound and above the last one.
func populatedClusterMetrics() *metrics {
	m := newClusterMetrics(
		func() (int, int) { return 2, 3 },
		func() int64 { return 4 },
		func() (map[string]int64, map[string]int64) {
			return map[string]int64{goldenW1: int64(breakerClosed), goldenW2: int64(breakerHalfOpen), goldenW3: int64(breakerOpen)},
				map[string]int64{goldenW1: 3, goldenW2: 1, goldenW3: 0}
		})
	m.jobs.Add(6, api.StatusDone)
	m.jobs.Add(2, api.StatusFailed)
	m.jobs.Add(1, api.StatusCanceled)
	m.workerRequests.Add(4, goldenW1)
	m.workerRequests.Add(2, goldenW2)
	m.workerRequests.Inc(goldenW3)
	m.ringPrimary.Add(5)
	m.ringRerouted.Add(2)
	m.workerFailures.Inc(goldenW2)
	m.workerFailures.Add(2, goldenW3)
	m.retries.Add(2)
	m.shardLatency.Observe(0.025)
	m.shardLatency.Observe(1.75)
	m.shardLatency.Observe(301)
	m.breakerTransitions.Inc(goldenW3, "open")
	m.breakerTransitions.Inc(goldenW2, "open")
	m.breakerTransitions.Inc(goldenW2, "half-open")
	m.breakerTransitions.Inc(goldenW1, "open")
	m.breakerTransitions.Inc(goldenW1, "half-open")
	m.breakerTransitions.Inc(goldenW1, "closed")
	m.membershipChanges.Add(2, "join")
	m.membershipChanges.Inc("leave")
	m.membershipChanges.Inc("expire")
	m.spillovers.Inc()
	m.abandonedCancels.Add(2)
	return m
}

// TestClusterMetricsGolden pins both a fresh coordinator's scrape and
// one with every family populated, byte for byte.
func TestClusterMetricsGolden(t *testing.T) {
	c, err := New(Config{ProbeInterval: -1, LeaseSweepInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	checkGolden(t, "metrics_fresh.prom", rec.Body.Bytes())

	var buf bytes.Buffer
	if _, err := populatedClusterMetrics().reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_populated.prom", buf.Bytes())
}

// TestScrapeAfterOpenForDoesNotDeadlock: the scrape that first sees an
// open breaker's OpenFor elapse moves it to half-open, and that
// transition is counted. The scrape must finish within its deadline,
// show the transition, and leave later placements unblocked.
func TestScrapeAfterOpenForDoesNotDeadlock(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	worker := dead.URL
	dead.Close() // connection refused from here on

	const openFor = 150 * time.Millisecond
	c, err := New(Config{
		Workers:            []string{worker},
		Breaker:            BreakerConfig{DownAfter: 1, OpenFor: openFor},
		ProbeInterval:      -1,
		LeaseSweepInterval: -1,
		RetryBudget:        1,
		SubmitTimeout:      time.Second,
		PollInterval:       5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	ts := httptest.NewServer(c.Handler())
	// A deadlocked handler would make Close wait forever; only clean up
	// after the scrape came back.
	scraped := false
	t.Cleanup(func() {
		if !scraped {
			return
		}
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		c.Drain(ctx)
	})

	const body = `{"workload": 1, "policy": "dike", "scale": 0.05}`
	if v := await(t, ts.URL, submit(t, ts.URL, "/v1/runs", body).ID, 5*time.Second); v.Status != api.StatusFailed {
		t.Fatalf("run on a dead worker: %s", v.Status)
	}
	time.Sleep(openFor + 50*time.Millisecond)

	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("scrape after OpenFor did not return: %v", err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	scraped = true
	for _, want := range []string{
		fmt.Sprintf("dike_cluster_breaker_state{worker=%q} 1\n", worker),
		fmt.Sprintf("dike_cluster_breaker_transitions_total{worker=%q,to=\"half-open\"} 1\n", worker),
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("scrape lacks %q:\n%s", want, out)
		}
	}
	if v := await(t, ts.URL, submit(t, ts.URL, "/v1/runs", body).ID, 5*time.Second); v.Status != api.StatusFailed {
		t.Fatalf("run after the scrape: %s", v.Status)
	}
}

// TestJoinedWorkerLabelEscaping: a worker URL with a zero-width space in
// its host passes validation; the scrape writes it as is, since the
// exposition format escapes only backslash, double quote and line feed
// (a Go-style \u200b escape would make strict parsers reject the scrape).
func TestJoinedWorkerLabelEscaping(t *testing.T) {
	_, coord := newCoord(t, nil, nil)
	const worker = "http://a\u200bb:8080"
	resp, err := http.Post(coord.URL+"/v1/cluster/workers", "application/json", strings.NewReader(`{"url": "http://a\u200bb:8080"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("join: %s", resp.Status)
	}
	resp, err = http.Get(coord.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dike_cluster_breaker_state{worker=\"" + worker + "\"} 0\n",
		"dike_cluster_membership_changes_total{op=\"join\"} 1\n",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("scrape lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), `\u200b`) {
		t.Errorf("scrape carries a Go escape:\n%s", out)
	}
}
