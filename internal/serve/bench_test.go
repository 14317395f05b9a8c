package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dike/internal/harness"
	"dike/internal/serve/api"
)

// BenchmarkServeCacheHit measures one POST /v1/runs answered from the
// in-memory LRU: request decoding, spec resolution and digest, the cache
// lookup, job registration and the response body. The handler is called
// directly, so no socket or client time is included; the simulation is
// stubbed and runs once, before the clock starts.
func BenchmarkServeCacheHit(b *testing.B) {
	s := New(Config{Workers: 1, QueueDepth: 4,
		Simulate: func(context.Context, harness.RunSpec) (*harness.RunOutput, error) { return stubOutput(), nil }})
	s.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			b.Error(err)
		}
	}()
	h := s.Handler()
	const body = `{"workload":6,"policy":"dike-af","scale":0.05,"seed":7}`
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		return rec
	}

	// Populate the cache: submit once and wait for the job to finish.
	rec := post()
	var sub api.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatalf("submit = %d %s: %v", rec.Code, rec.Body, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/runs/"+sub.ID, nil))
		var v JobView
		if err := json.Unmarshal(get.Body.Bytes(), &v); err != nil {
			b.Fatal(err)
		}
		if v.Status == StatusDone {
			break
		}
		if api.Terminal(v.Status) || time.Now().After(deadline) {
			b.Fatalf("priming job = %+v", v)
		}
		time.Sleep(time.Millisecond)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := post(); rec.Code != http.StatusOK {
			b.Fatalf("cache hit = %d %s", rec.Code, rec.Body)
		}
	}
}
