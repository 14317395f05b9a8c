package main

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

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
	lg := &loadgen{
		api: &api.Client{Base: ts.URL, HTTP: ts.Client()}, n: 1, runW: 1,
		poll: true, timeout: time.Minute,
		codes: make(map[int]int), lat: newReservoir(reservoirSize, 1),
	}
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
