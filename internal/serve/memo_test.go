package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dike/internal/harness"
	"dike/internal/serve/api"
)

// exampleRequests is a corpus of valid run request bodies, one or more
// per workload source and option: a Table II row, an app list, a
// generated mix, every example machine inline, the example traffic
// scenario, a governed run, a meta run with the example tournament
// configuration, and a fault plan.
func exampleRequests(tb testing.TB) []string {
	tb.Helper()
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			tb.Fatal(err)
		}
		return string(b)
	}
	bodies := []string{
		`{"workload":6,"policy":"dike-af","scale":0.05,"seed":7}`,
		`{"apps":["jacobi","srad","hotspot"],"policy":"dike","scale":0.05}`,
		`{"generator":{"benchmarks":4,"threads_per":4,"memory_apps":2,"seed":3},"policy":"dio","scale":0.02}`,
		`{"workload":1,"policy":"dike","scale":0.02,"faults":{"classes":"all","rate":20,"seed":3}}`,
	}
	machines, err := filepath.Glob("../../examples/machines/*.json")
	if err != nil || len(machines) == 0 {
		tb.Fatalf("example machines: %v (%d files)", err, len(machines))
	}
	for _, m := range machines {
		bodies = append(bodies, fmt.Sprintf(`{"workload":3,"policy":"dike-af","scale":0.02,"machine":%s}`, read(m)))
	}
	dvfs8 := read("../../examples/machines/dvfs8.json")
	colo := read("../../examples/traffic/colo.json")
	meta := read("../../examples/tournament/meta.json")
	return append(bodies,
		fmt.Sprintf(`{"policy":"cfs","seed":2,"traffic":%s}`, colo),
		fmt.Sprintf(`{"workload":6,"policy":"dike-ea","scale":0.05,"machine":%s,"power":{"governor":"fairness","cap_watts":20}}`, dvfs8),
		fmt.Sprintf(`{"policy":"meta","seed":4,"meta":%s,"traffic":%s}`, meta, colo),
	)
}

// decodeBody decodes a body the way the submit handlers do.
func decodeBody(body []byte) (api.RunRequest, error) {
	var req api.RunRequest
	err := api.DecodeJSON(httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body)), &req)
	return req, err
}

// TestRunMemoServesBuildRunSpecDigest: over the example corpus, the
// digest a memo hit serves, on the memo and through the submit
// handler, equals the digest BuildRunSpec computes.
func TestRunMemoServesBuildRunSpecDigest(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 32, Simulate: func(context.Context, harness.RunSpec) (*harness.RunOutput, error) {
		return stubOutput(), nil
	}})
	m := NewRunMemo()
	for i, body := range exampleRequests(t) {
		req, err := decodeBody([]byte(body))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		_, want, err := BuildRunSpec(req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		encoded, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for pass, kind := range []string{"miss", "hit"} {
			got, digest, err := m.Resolve(req)
			if err != nil || digest != want || !bytes.Equal(got, encoded) {
				t.Errorf("request %d %s: digest %s, body equal %v, err %v; want %s", i, kind, digest, bytes.Equal(got, encoded), err, want)
			}
			if m.size() != i+1 {
				t.Errorf("request %d pass %d: memo holds %d, want %d", i, pass, m.size(), i+1)
			}
		}
		for _, kind := range []string{"miss", "hit"} {
			resp, b := postJSON(t, ts.URL+"/v1/runs", body)
			var sub api.SubmitResponse
			if err := json.Unmarshal(b, &sub); err != nil || resp.StatusCode/100 != 2 || sub.Digest != want {
				t.Errorf("request %d submit %s = %d %s, want digest %s", i, kind, resp.StatusCode, b, want)
			}
		}
	}
	if s.runs.size() != m.size() {
		t.Errorf("server memo holds %d, want %d", s.runs.size(), m.size())
	}
}

// TestRunMemoConcurrent: handlers share one memo; resolving the corpus
// from several goroutines at once yields BuildRunSpec's digests.
func TestRunMemoConcurrent(t *testing.T) {
	var reqs []api.RunRequest
	var want []string
	for _, body := range exampleRequests(t) {
		req, err := decodeBody([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		_, d, err := BuildRunSpec(req)
		if err != nil {
			t.Fatal(err)
		}
		reqs, want = append(reqs, req), append(want, d)
	}
	m := NewRunMemo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				for i, req := range reqs {
					if _, d, err := m.Resolve(req); err != nil || d != want[i] {
						t.Errorf("request %d: digest %s, %v; want %s", i, d, err, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
	if m.size() != len(reqs) {
		t.Errorf("memo holds %d, want %d", m.size(), len(reqs))
	}
}

// TestRunMemoRejectsBadBodyEveryTime: a body BuildRunSpec rejects is
// never memoised, so its resubmission is rejected with the same error.
func TestRunMemoRejectsBadBodyEveryTime(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	for _, body := range []string{
		`{"workload":1,"policy":"bogus"}`,
		`{"workload":1,"policy":"dike","scale":7}`,
		`{"workload":1,"policy":"dike-af","power":{"governor":"turbo","cap_watts":20}}`,
	} {
		resp, first := postJSON(t, ts.URL+"/v1/runs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d %s, want 400", body, resp.StatusCode, first)
		}
		resp, again := postJSON(t, ts.URL+"/v1/runs", body)
		if resp.StatusCode != http.StatusBadRequest || !bytes.Equal(first, again) {
			t.Errorf("%s resubmitted = %d %s, want 400 %s", body, resp.StatusCode, again, first)
		}
	}
	if n := s.runs.size(); n != 0 {
		t.Errorf("memo holds %d entries after only bad bodies", n)
	}
}

// TestRunMemoBounded: the memo never holds more than maxMemoEntries
// resolutions; a full memo is cleared and refills.
func TestRunMemoBounded(t *testing.T) {
	m := NewRunMemo()
	const extra = 10
	for i := 0; i < maxMemoEntries+extra; i++ {
		seed := uint64(i)
		if _, _, err := m.Resolve(api.RunRequest{Workload: 1, Policy: "cfs", Seed: &seed}); err != nil {
			t.Fatal(err)
		}
		if n := m.size(); n > maxMemoEntries {
			t.Fatalf("after %d requests the memo holds %d, bound %d", i+1, n, maxMemoEntries)
		}
	}
	if n := m.size(); n != extra {
		t.Errorf("memo holds %d after overflowing by %d, want %d", n, extra, extra)
	}
}

// TestRunMemoHitStillSimulates: a memo hit whose digest is in neither
// the LRU (disabled here) nor a store still simulates, with the real
// harness, and returns the bytes a server that never saw the body
// returns.
func TestRunMemoHitStillSimulates(t *testing.T) {
	const body = `{"workload":2,"policy":"dike","scale":0.01,"seed":3}`
	run := func(ts string) []byte {
		t.Helper()
		resp, b := postJSON(t, ts+"/v1/runs", body)
		var sub api.SubmitResponse
		if err := json.Unmarshal(b, &sub); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d %s, want 202", resp.StatusCode, b)
		}
		v := waitDone(t, ts, sub.ID)
		if v.Status != api.StatusDone || v.Cached {
			t.Fatalf("job = %+v, want a simulated done job", v)
		}
		return v.Result
	}

	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	first := run(ts.URL)
	if s.runs.size() != 1 {
		t.Fatalf("memo holds %d after one body, want 1", s.runs.size())
	}
	hit := run(ts.URL)
	if _, _, _, sims := s.CacheStats(); sims != 2 {
		t.Errorf("simulations = %d, want 2", sims)
	}
	_, fresh := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	if other := run(fresh.URL); !bytes.Equal(hit, other) || !bytes.Equal(hit, first) {
		t.Errorf("memo-hit result differs:\nhit   %s\nfirst %s\nfresh %s", hit, first, other)
	}
}
