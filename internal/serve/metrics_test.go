package serve

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"dike/internal/serve/api"
	"dike/internal/store"
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

// populatedMetrics drives every serve family: each terminal status and
// route, several codes, latencies exactly on a bucket bound and above
// the last one, and store stats large enough that an integer printed
// as a float would show.
func populatedMetrics() *metrics {
	stats := func() store.Stats {
		return store.Stats{
			Segments: 3, SizeBytes: 123456789, Results: 5,
			Appends: 6, AppendedBytes: 4096, Hits: 10, Misses: 4,
			RecoveredRecords: 12, TruncatedRecords: 1, CorruptRecords: 2,
			Compactions: 1, ReclaimedBytes: 2048,
		}
	}
	m := newMetrics(func() int64 { return 5 }, 8, 2, func() int64 { return 3 }, stats)
	m.jobs.Add(5, api.StatusDone)
	m.jobs.Add(2, api.StatusFailed)
	m.jobs.Add(1, api.StatusCanceled)
	m.simulations.Add(4)
	m.cacheHits.Add(3)
	m.dedup.Inc()
	m.cacheMisses.Add(2)
	m.rejected.Add(2)
	m.storeErrors.Inc()
	for _, r := range []struct {
		route   string
		code    int
		seconds float64
	}{
		{"POST /v1/runs", 202, 0.001},
		{"POST /v1/runs", 200, 0.0042},
		{"POST /v1/runs", 400, 0.0005},
		{"POST /v1/runs", 429, 0.002},
		{"POST /v1/runs", 503, 0.001},
		{"POST /v1/sweeps", 202, 2.5},
		{"GET /v1/runs", 404, 0.003},
		{"GET /v1/runs", 200, 0.004},
		{"GET /v1/store/stats", 200, 0.0001},
		{"GET /v1/runs/{id}", 200, 0.0002},
		{"GET /v1/runs/{id}", 404, 0.0002},
		{"DELETE /v1/runs/{id}", 200, 0.01},
		{"DELETE /v1/runs/{id}", 409, 0.01},
		{"GET /v1/runs/{id}/events", 200, 61},
		{"GET /healthz", 200, 0.00003},
		{"GET /healthz", 503, 0.00003},
		{"GET /metrics", 200, 0.0007},
	} {
		m.http.Inc(r.route, strconv.Itoa(r.code))
		m.latency.Observe(r.seconds, r.route)
	}
	return m
}

// TestServeMetricsGolden pins both a fresh server's scrape and one with
// every family populated, byte for byte.
func TestServeMetricsGolden(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	checkGolden(t, "metrics_fresh.prom", rec.Body.Bytes())

	var buf bytes.Buffer
	if _, err := populatedMetrics().reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics_populated.prom", buf.Bytes())
}
