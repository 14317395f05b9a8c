package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dike/internal/harness"
	"dike/internal/serve/api"
)

// BenchmarkServeCacheHit measures one POST /v1/runs answered from the
// in-memory LRU: request decoding, the run memo, the cache lookup, job
// registration and the response body. The handler is called directly,
// so no socket or client time is included; the simulation is stubbed
// and runs once, before the clock starts.
//
//   - memo-hit repeats one body, so the memo supplies the digest and
//     the spec is never built;
//   - first-submission sends a body the server has not seen, which
//     differs only in its deadline and so resolves to the cached
//     digest: BuildRunSpec and RunSpec.Digest run every time.
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
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/runs", strings.NewReader(body)))
		return rec
	}

	// Populate the cache: submit once and wait for the job to finish.
	rec := post(body)
	var sub api.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatalf("submit = %d %s: %v", rec.Code, rec.Body, err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		get := httptest.NewRecorder()
		h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/v1/runs/"+sub.ID, nil))
		var v api.JobView
		if err := json.Unmarshal(get.Body.Bytes(), &v); err != nil {
			b.Fatal(err)
		}
		if v.Status == api.StatusDone {
			break
		}
		if api.Terminal(v.Status) || time.Now().After(deadline) {
			b.Fatalf("priming job = %+v", v)
		}
		time.Sleep(time.Millisecond)
	}

	b.Run("memo-hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rec := post(body); rec.Code != http.StatusOK {
				b.Fatalf("cache hit = %d %s", rec.Code, rec.Body)
			}
		}
	})
	// Each call of the sub-benchmark continues the deadlines where the
	// last one stopped, so no body repeats.
	unseen := 1
	b.Run("first-submission", func(b *testing.B) {
		bodies := make([]string, b.N)
		for i := range bodies {
			bodies[i] = fmt.Sprintf(`{"workload":6,"policy":"dike-af","scale":0.05,"seed":7,"deadline_ms":%d}`, unseen+i)
		}
		unseen += b.N
		b.ReportAllocs()
		b.ResetTimer()
		for _, body := range bodies {
			if rec := post(body); rec.Code != http.StatusOK {
				b.Fatalf("cache hit = %d %s", rec.Code, rec.Body)
			}
		}
	})
}
