package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"dike/internal/harness"
	"dike/internal/serve/api"
)

func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
}

// TestServeEventsClientDisconnect: a client that walks away from the
// NDJSON stream mid-run must have its subscription released promptly,
// and the simulation must keep publishing (OnProgress never blocks on a
// dead consumer) and run to completion.
func TestServeEventsClientDisconnect(t *testing.T) {
	started := make(chan string, 1)
	release := make(chan struct{})
	// A run that emits a progress event every millisecond until released.
	chatty := func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		started <- spec.Policy
		for q := 1; ; q++ {
			select {
			case <-release:
				return stubOutput(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Millisecond):
				if spec.OnProgress != nil {
					spec.OnProgress(harness.Progress{Quantum: q, Alive: 4})
				}
			}
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1, Simulate: chatty})

	resp, body := postJSON(t, ts.URL+"/v1/runs", `{"workload": 1, "policy": "dike"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var sub api.SubmitResponse
	mustUnmarshal(t, body, &sub)
	<-started

	job := s.jobs.lookup(sub.ID)
	if job == nil {
		t.Fatalf("job %s not found", sub.ID)
	}

	// Attach a streaming client, read one event, then hang up.
	ctx, hangUp := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/runs/"+sub.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if _, err := bufio.NewReader(stream.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading first event: %v", err)
	}
	waitSubscribers := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if job.events.subscriberCount() == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("subscriber count stuck at %d, want %d", job.events.subscriberCount(), want)
	}
	waitSubscribers(1)
	hangUp()

	// The handler must notice the disconnect and release the
	// subscription even though events keep flowing.
	waitSubscribers(0)

	// The run was never throttled by the dead client: it still finishes.
	close(release)
	if v := waitDone(t, ts.URL, sub.ID); v.Status != api.StatusDone {
		t.Fatalf("run after client disconnect: %s: %s", v.Status, v.Error)
	}
}

// TestServeConcurrentDuplicateSubmissions: with the queue full, a burst
// of submissions identical to an already-queued job is absorbed by
// singleflight (every client gets the leader's ID, nothing rejected,
// one simulation total), while a submission with a distinct spec is
// rejected with 429 + Retry-After.
func TestServeConcurrentDuplicateSubmissions(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		Simulate:   blockingStub(started, release),
	})

	// Occupy the single worker...
	respA, bodyA := postJSON(t, ts.URL+"/v1/runs", `{"workload": 1, "policy": "cfs"}`)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("run A: %s: %s", respA.Status, bodyA)
	}
	var subA api.SubmitResponse
	mustUnmarshal(t, bodyA, &subA)
	<-started

	// ...and fill the queue with run B.
	const bodyB = `{"workload": 1, "policy": "dike"}`
	respB, rawB := postJSON(t, ts.URL+"/v1/runs", bodyB)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("run B: %s: %s", respB.Status, rawB)
	}
	var subB api.SubmitResponse
	mustUnmarshal(t, rawB, &subB)

	// Queue full. A concurrent burst of duplicates of B must all coalesce
	// onto B — deduplication, not rejection.
	const burst = 8
	var wg sync.WaitGroup
	type outcome struct {
		code int
		sub  api.SubmitResponse
	}
	outcomes := make([]outcome, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJSON(t, ts.URL+"/v1/runs", bodyB)
			outcomes[i].code = resp.StatusCode
			mustUnmarshal(t, raw, &outcomes[i].sub)
		}(i)
	}
	wg.Wait()
	for i, o := range outcomes {
		if o.code != http.StatusOK || !o.sub.Deduped {
			t.Fatalf("duplicate %d: code=%d deduped=%v, want 200 + deduped", i, o.code, o.sub.Deduped)
		}
		if o.sub.ID != subB.ID {
			t.Fatalf("duplicate %d coalesced onto %s, want leader %s", i, o.sub.ID, subB.ID)
		}
	}

	// A distinct spec cannot coalesce and the queue is full: 429 with a
	// Retry-After hint.
	respC, rawC := postJSON(t, ts.URL+"/v1/runs", `{"workload": 1, "policy": "dio"}`)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("distinct spec on full queue: %s: %s", respC.Status, rawC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(release)
	if v := waitDone(t, ts.URL, subB.ID); v.Status != api.StatusDone {
		t.Fatalf("run B: %s: %s", v.Status, v.Error)
	}

	// Exactly one admission for the nine identical submissions: B ran
	// once, the burst rode along.
	_, _, dedup, sims := s.CacheStats()
	if dedup != burst {
		t.Errorf("dedup count = %d, want %d", dedup, burst)
	}
	if sims != 2 {
		t.Errorf("simulations = %d, want 2 (run A + one shared run B)", sims)
	}
}
