package serve

import (
	"bufio"
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
	"dike/internal/serve/api"
	"dike/internal/workload"
)

// newTestServer boots a started Server over httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
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

// stubOutput is a minimal successful harness output for stubbed runs.
func stubOutput() *harness.RunOutput {
	return &harness.RunOutput{
		Result: &simmetrics.RunResult{
			Policy: "null", Workload: "stub", Fairness: 1, Makespan: 100, AvgTime: 100,
		},
		CompletedAt: 100,
	}
}

// blockingStub returns a simulate stub that signals each start on
// started and blocks until release is closed (or ctx is cancelled).
func blockingStub(started chan<- string, release <-chan struct{}) func(context.Context, harness.RunSpec) (*harness.RunOutput, error) {
	return func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		started <- spec.Policy
		select {
		case <-release:
			return stubOutput(), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, base, id string) api.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var v api.JobView
		getJSON(t, base+"/v1/runs/"+id, &v)
		if api.Terminal(v.Status) {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return api.JobView{}
}

func TestServeRunEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"dike","scale":0.05,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cached || sub.Deduped {
		t.Fatalf("first submission flagged cached/deduped: %+v", sub)
	}
	if len(sub.Digest) != 64 {
		t.Fatalf("digest %q is not a sha256", sub.Digest)
	}

	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("job = %+v, want done", v)
	}
	var res api.RunResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Policy != "dike" || res.Fairness <= 0 || res.MakespanMs <= 0 || len(res.Benches) == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.DecisionSHA256 == "" {
		t.Error("dike run has no decision digest")
	}

	// The identical submission must be served from the cache: same
	// digest, no second simulation.
	_, _, _, simsBefore := s.CacheStats()
	resp2, body2 := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"dike","scale":0.05,"seed":7}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, body %s", resp2.StatusCode, body2)
	}
	var sub2 api.SubmitResponse
	json.Unmarshal(body2, &sub2)
	if !sub2.Cached || sub2.Status != api.StatusDone || sub2.Digest != sub.Digest {
		t.Fatalf("resubmit not served from cache: %+v", sub2)
	}
	v2 := waitDone(t, ts.URL, sub2.ID)
	if !bytes.Equal(v2.Result, v.Result) {
		t.Error("cached result differs from the simulated one")
	}
	hits, _, _, simsAfter := s.CacheStats()
	if hits == 0 {
		t.Error("cache hit not counted")
	}
	if simsAfter != simsBefore {
		t.Errorf("cache hit ran a simulation (%d -> %d)", simsBefore, simsAfter)
	}

	// A different seed is a different digest and a fresh simulation.
	resp3, body3 := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"dike","scale":0.05,"seed":8}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("different-seed submit = %d, body %s", resp3.StatusCode, body3)
	}
}

func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	cases := []string{
		`{"workload":1,"policy":"bogus"}`,
		`{"workload":99,"policy":"dike"}`,
		`{"workload":1,"policy":"dike","scale":7}`,
		`{"workload":1,"policy":"dike","unknown_field":1}`,
		`not json`,
		`{"apps":["no-such-app"],"policy":"dike"}`,
		`{"workload":1,"policy":"dike","faults":{"classes":"martian"}}`,
	}
	for _, body := range cases {
		resp, b := postJSON(t, ts.URL+"/v1/runs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = %d (%s), want 400", body, resp.StatusCode, b)
		}
	}
	if resp := getJSON(t, ts.URL+"/v1/runs/nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", resp.StatusCode)
	}
}

func TestServeBackpressure(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	s.simulate = blockingStub(started, release)
	defer close(release)

	submit := func(seed int) (*http.Response, api.SubmitResponse) {
		resp, body := postJSON(t, ts.URL+"/v1/runs",
			fmt.Sprintf(`{"workload":1,"policy":"null","seed":%d}`, seed))
		var sub api.SubmitResponse
		json.Unmarshal(body, &sub)
		return resp, sub
	}

	// First job occupies the worker...
	respA, _ := submit(1)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A = %d", respA.StatusCode)
	}
	<-started // A is running, queue is empty again
	// ...second fills the queue...
	respB, _ := submit(2)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("submit B = %d", respB.StatusCode)
	}
	// ...third must bounce with 429 + Retry-After, not queue unboundedly.
	respC, bodyC := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","seed":3}`)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit C = %d (%s), want 429", respC.StatusCode, bodyC)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	rm, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	m.ReadFrom(rm.Body)
	rm.Body.Close()
	if !strings.Contains(m.String(), "dike_serve_rejected_total 1") {
		t.Errorf("metrics do not count the rejection:\n%s", m.String())
	}
}

func TestServeSingleflightDedup(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.simulate = blockingStub(started, release)

	respA, subA := func() (*http.Response, api.SubmitResponse) {
		resp, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","seed":1}`)
		var sub api.SubmitResponse
		json.Unmarshal(body, &sub)
		return resp, sub
	}()
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("submit A = %d", respA.StatusCode)
	}
	<-started

	// The identical spec while A is in flight coalesces onto A's job.
	respB, bodyB := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","seed":1}`)
	if respB.StatusCode != http.StatusOK {
		t.Fatalf("dedup submit = %d (%s), want 200", respB.StatusCode, bodyB)
	}
	var subB api.SubmitResponse
	json.Unmarshal(bodyB, &subB)
	if !subB.Deduped || subB.ID != subA.ID {
		t.Fatalf("second submission not coalesced: %+v vs leader %s", subB, subA.ID)
	}

	close(release)
	v := waitDone(t, ts.URL, subA.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("leader finished as %q", v.Status)
	}
	_, _, dedup, sims := s.CacheStats()
	if dedup != 1 {
		t.Errorf("dedup count = %d, want 1", dedup)
	}
	if sims != 1 {
		t.Errorf("simulations = %d, want 1 (one run serves both submitters)", sims)
	}
}

func TestServeCancel(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	s.simulate = blockingStub(started, release)
	defer close(release)

	_, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","seed":1}`)
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d, want 202", resp.StatusCode)
	}
	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != api.StatusCanceled {
		t.Fatalf("cancelled job finished as %q", v.Status)
	}
	// A cancelled job must not poison the cache: the same spec resubmitted
	// is a fresh simulation, not a cache hit.
	resp2, body2 := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","seed":1}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after cancel = %d (%s), want 202 (fresh job)", resp2.StatusCode, body2)
	}
	<-started
}

func TestServeEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})

	_, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"dike","scale":0.05,"seed":7}`)
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	waitDone(t, ts.URL, sub.ID)

	resp, err := http.Get(ts.URL + "/v1/runs/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type %q", ct)
	}
	var events []api.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev api.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want progress + terminal", len(events))
	}
	last := events[len(events)-1]
	if last.Status != api.StatusDone {
		t.Errorf("terminal event %+v, want status done", last)
	}
	for i, ev := range events[:len(events)-1] {
		if ev.Quantum != i+1 {
			t.Fatalf("event %d has quantum %d", i, ev.Quantum)
		}
	}
}

func TestServeDrain(t *testing.T) {
	started := make(chan string, 8)
	release := make(chan struct{})
	s := New(Config{Workers: 1, QueueDepth: 4})
	s.simulate = blockingStub(started, release)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","seed":1}`)
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// While draining: no new work, health reports it, old jobs readable.
	resp, _ := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","seed":2}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}

	// The in-flight job survives the drain and completes.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("in-flight job finished as %q during drain, want done", v.Status)
	}
}

func TestServeSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is 32 simulations")
	}
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2, SweepWorkers: 4})

	resp, body := postJSON(t, ts.URL+"/v1/sweeps", `{"workload":1,"scale":0.02,"seed":7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit = %d (%s)", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("sweep finished as %q: %s", v.Status, v.Error)
	}
	var res api.SweepResult
	if err := json.Unmarshal(v.Result, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Grid) != 32 {
		t.Fatalf("sweep grid has %d points, want 32", len(res.Grid))
	}
	for _, p := range res.Grid {
		if p.Fairness <= 0 || p.InvMakespan <= 0 {
			t.Fatalf("implausible sweep point %+v", p)
		}
	}

	// Sweeps are cached by their own digest too.
	resp2, body2 := postJSON(t, ts.URL+"/v1/sweeps", `{"workload":1,"scale":0.02,"seed":7}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("sweep resubmit = %d (%s), want cached 200", resp2.StatusCode, body2)
	}
}

func TestServeGeneratorWorkload(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	resp, body := postJSON(t, ts.URL+"/v1/runs",
		`{"generator":{"benchmarks":2,"threads_per":4,"seed":9},"policy":"cfs","scale":0.05}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("generator submit = %d (%s)", resp.StatusCode, body)
	}
	var sub api.SubmitResponse
	json.Unmarshal(body, &sub)
	v := waitDone(t, ts.URL, sub.ID)
	if v.Status != api.StatusDone {
		t.Fatalf("generator run finished as %q: %s", v.Status, v.Error)
	}
	var res api.RunResult
	json.Unmarshal(v.Result, &res)
	if !strings.HasPrefix(res.Workload, "gen-") {
		t.Errorf("workload %q, want generated", res.Workload)
	}
}

func TestServeMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	getJSON(t, ts.URL+"/healthz", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()
	for _, want := range []string{
		"# TYPE dike_serve_queue_depth gauge",
		"dike_serve_queue_capacity 2",
		"dike_serve_workers 1",
		"# TYPE dike_serve_jobs_total counter",
		"# TYPE dike_serve_http_request_seconds histogram",
		`dike_serve_http_requests_total{route="GET /healthz",code="200"} 1`,
		`le="+Inf"`,
		"dike_serve_cache_hit_ratio",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q:\n%s", want, text)
		}
	}
}

// TestServeWorkloadReuse guards the digest against workload aliasing:
// two custom workloads over different app lists must never collide.
func TestServeWorkloadDigestsDiffer(t *testing.T) {
	specA, digA, err := BuildRunSpec(api.RunRequest{Apps: []string{"jacobi", "srad"}, Policy: "cfs"})
	if err != nil {
		t.Fatal(err)
	}
	_, digB, err := BuildRunSpec(api.RunRequest{Apps: []string{"jacobi", "hotspot"}, Policy: "cfs"})
	if err != nil {
		t.Fatal(err)
	}
	if digA == digB {
		t.Error("different app lists share a digest")
	}
	if specA.Scale != 0.1 {
		t.Errorf("default scale = %g, want 0.1", specA.Scale)
	}
	if got := specA.Workload.Benchmarks[0].Profile.Name; got != "jacobi" {
		t.Errorf("first app = %q, want jacobi", got)
	}
}

// oversizedBodies name more threads (a generator) or more logical cores
// (a machine) than a run may hold: a few bytes that would otherwise make
// a worker allocate in proportion to the number they name.
var oversizedBodies = []string{
	`{"generator":{"benchmarks":4,"threads_per":20000},"policy":"cfs","scale":0.01,"max_time_ms":10}`,
	`{"workload":1,"policy":"cfs","scale":0.01,"max_time_ms":10,"machine":{"core_types":[{"name":"a","speed":1,"smt_ways":1}],"sockets":[{"cores":[{"type":"a","physical":100000}],"mem":{"capacity":1,"base_latency":0.01,"max_util":0.9}}]}}`,
	`{"apps":[` + strings.Repeat(`"jacobi",`, workload.MaxThreads/workload.ThreadsPerBenchmark) + `"jacobi"],"policy":"cfs"}`,
}

func TestServeOversizedAskRejected(t *testing.T) {
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Simulate: countingStub(&sims)})
	for _, body := range oversizedBodies {
		if resp, raw := postJSON(t, ts.URL+"/v1/runs", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%.60s… = %d, body %s, want 400", body, resp.StatusCode, raw)
		}
	}
	if sims.Load() != 0 {
		t.Errorf("rejected bodies ran %d simulations", sims.Load())
	}
}
