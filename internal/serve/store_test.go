package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dike/internal/harness"
	"dike/internal/serve/api"
	"dike/internal/store"
	"dike/internal/workload"
)

// openStore opens a durable store in dir and closes it with the test.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// countingStub is a simulate stub that counts invocations.
func countingStub(calls *atomic.Int64) func(context.Context, harness.RunSpec) (*harness.RunOutput, error) {
	return func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
		calls.Add(1)
		return stubOutput(), nil
	}
}

// TestServeStoreWriteThrough drives the tentpole's core promise: a
// result computed by one server process is served by the next process
// from disk — byte-identical, flagged Stored, with zero simulations.
func TestServeStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	body := `{"workload":1,"policy":"null","scale":0.05,"seed":11}`

	var sims1 atomic.Int64
	_, ts1 := newTestServer(t, Config{
		Workers: 1, Store: openStore(t, dir), Simulate: countingStub(&sims1),
	})
	resp, raw := postJSON(t, ts1.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, body %s", resp.StatusCode, raw)
	}
	var sub api.SubmitResponse
	json.Unmarshal(raw, &sub)
	v1 := waitDone(t, ts1.URL, sub.ID)
	if v1.Status != api.StatusDone || sims1.Load() != 1 {
		t.Fatalf("first run: status %s, sims %d", v1.Status, sims1.Load())
	}

	// "Restart": a brand-new server (empty LRU) over the same directory.
	var sims2 atomic.Int64
	_, ts2 := newTestServer(t, Config{
		Workers: 1, Store: openStore(t, dir), Simulate: countingStub(&sims2),
	})
	resp2, raw2 := postJSON(t, ts2.URL+"/v1/runs", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit = %d, body %s", resp2.StatusCode, raw2)
	}
	var sub2 api.SubmitResponse
	json.Unmarshal(raw2, &sub2)
	if !sub2.Cached || !sub2.Stored || sub2.Digest != sub.Digest {
		t.Fatalf("resubmit not served from store: %+v", sub2)
	}
	v2 := waitDone(t, ts2.URL, sub2.ID)
	if !v2.Stored {
		t.Errorf("job view not flagged stored: %+v", v2)
	}
	if !bytes.Equal(v2.Result, v1.Result) {
		t.Errorf("stored result differs:\n  first  %s\n  second %s", v1.Result, v2.Result)
	}
	if sims2.Load() != 0 {
		t.Errorf("second process simulated %d times, want 0", sims2.Load())
	}

	// The store hit repopulated the LRU: a third submission is a plain
	// cache hit, not another store read.
	resp3, raw3 := postJSON(t, ts2.URL+"/v1/runs", body)
	var sub3 api.SubmitResponse
	json.Unmarshal(raw3, &sub3)
	if resp3.StatusCode != http.StatusOK || !sub3.Cached || sub3.Stored {
		t.Fatalf("third submission should be an LRU hit: %d %+v", resp3.StatusCode, sub3)
	}
}

// TestServeLookupRun exercises GET /v1/runs?digest=… across both tiers.
func TestServeLookupRun(t *testing.T) {
	dir := t.TempDir()
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 1, Store: openStore(t, dir), Simulate: countingStub(&sims),
	})

	if resp := getJSON(t, ts.URL+"/v1/runs?digest="+strings.Repeat("ab", 32), nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest = %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/runs"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing digest = %d, want 400", resp.StatusCode)
	}

	_, raw := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","scale":0.05,"seed":12}`)
	var sub api.SubmitResponse
	json.Unmarshal(raw, &sub)
	v := waitDone(t, ts.URL, sub.ID)

	var got api.StoredResult
	if resp := getJSON(t, ts.URL+"/v1/runs?digest="+sub.Digest, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("lookup = %d", resp.StatusCode)
	}
	if got.Source != "cache" || !bytes.Equal(got.Result, v.Result) {
		t.Fatalf("lookup = source %q, result match %v", got.Source, bytes.Equal(got.Result, v.Result))
	}

	// A fresh process over the same dir answers from the store tier.
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: openStore(t, dir)})
	var got2 api.StoredResult
	if resp := getJSON(t, ts2.URL+"/v1/runs?digest="+sub.Digest, &got2); resp.StatusCode != http.StatusOK {
		t.Fatalf("restart lookup = %d", resp.StatusCode)
	}
	if got2.Source != "store" || !bytes.Equal(got2.Result, v.Result) {
		t.Fatalf("restart lookup = source %q", got2.Source)
	}
}

// TestServeStoreStats covers /v1/store/stats with and without a store.
func TestServeStoreStats(t *testing.T) {
	_, tsOff := newTestServer(t, Config{Workers: 1})
	var off api.StoreStatsView
	getJSON(t, tsOff.URL+"/v1/store/stats", &off)
	if off.Enabled || off.Stats != nil {
		t.Fatalf("store-less server reports %+v", off)
	}

	dir := t.TempDir()
	var sims atomic.Int64
	_, ts := newTestServer(t, Config{
		Workers: 1, Store: openStore(t, dir), Simulate: countingStub(&sims),
	})
	_, raw := postJSON(t, ts.URL+"/v1/runs", `{"workload":1,"policy":"null","scale":0.05,"seed":13}`)
	var sub api.SubmitResponse
	json.Unmarshal(raw, &sub)
	waitDone(t, ts.URL, sub.ID)

	var on api.StoreStatsView
	getJSON(t, ts.URL+"/v1/store/stats", &on)
	if !on.Enabled || on.Dir != dir {
		t.Fatalf("stats view = %+v", on)
	}
	var st store.Stats
	if err := json.Unmarshal(on.Stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Results != 1 || st.Appends != 1 {
		t.Fatalf("stats = %+v, want 1 result from 1 append", st)
	}
}

// TestServeSweepCheckpointResume interrupts a sweep mid-flight, then
// resumes it on a fresh server over the same store. The per-point run
// records the interrupted sweep stored are its checkpoint: only the
// points missing from the store simulate, and the grid is byte-identical to an
// uninterrupted harness.Sweep. Both phases run the real harness, and
// the reference is harness.Sweep called directly, so equality pins the
// per-point executor to the harness path's exact bytes.
func TestServeSweepCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two real 32-point sweeps")
	}
	dir := t.TempDir()
	sweepBody := `{"workload":1,"scale":0.02,"seed":21}`

	// Phase 1: fail after a handful of real points. SweepWorkers 1 makes
	// the count deterministic.
	const failAfter = 5
	var calls1 atomic.Int64
	_, ts1 := newTestServer(t, Config{
		Workers: 1, SweepWorkers: 1, Store: openStore(t, dir),
		Simulate: func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
			if calls1.Add(1) > failAfter {
				return nil, errors.New("injected mid-sweep failure")
			}
			return harness.Run(ctx, spec)
		},
	})
	_, raw := postJSON(t, ts1.URL+"/v1/sweeps", sweepBody)
	var sub api.SubmitResponse
	json.Unmarshal(raw, &sub)
	if v := waitDone(t, ts1.URL, sub.ID); v.Status != api.StatusFailed {
		t.Fatalf("interrupted sweep = %s, want failed", v.Status)
	}

	// Phase 2: fresh server, same store. Only the missing points run.
	var calls2 atomic.Int64
	_, ts2 := newTestServer(t, Config{
		Workers: 1, SweepWorkers: 1, Store: openStore(t, dir),
		Simulate: func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
			calls2.Add(1)
			return harness.Run(ctx, spec)
		},
	})
	_, raw2 := postJSON(t, ts2.URL+"/v1/sweeps", sweepBody)
	var sub2 api.SubmitResponse
	json.Unmarshal(raw2, &sub2)
	if sub2.Digest != sub.Digest {
		t.Fatalf("sweep digest changed across restart: %s vs %s", sub2.Digest, sub.Digest)
	}
	v2 := waitDone(t, ts2.URL, sub2.ID)
	if v2.Status != api.StatusDone {
		t.Fatalf("resumed sweep = %s: %s", v2.Status, v2.Error)
	}
	if got := calls2.Load(); got != 32-failAfter {
		t.Errorf("resume simulated %d points, want %d", got, 32-failAfter)
	}

	// Reference: harness.Sweep itself, independent of the executor.
	if ref := harnessSweepJSON(t, 1, 21, 0.02); !bytes.Equal(v2.Result, ref) {
		t.Errorf("resumed grid differs from harness.Sweep:\n  resumed   %s\n  reference %s", v2.Result, ref)
	}
}

// TestServeShardCheckpointResume: a shard resumes from its stored
// per-point records like a full sweep, even though
// its grid indices exceed the shard's size.
func TestServeShardCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	const body = `{"workload":1,"scale":0.01,"seed":5,"shard":[20,25]}`
	var calls1 atomic.Int64
	_, ts1 := newTestServer(t, Config{
		Workers: 1, SweepWorkers: 1, Store: openStore(t, dir),
		Simulate: func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error) {
			if calls1.Add(1) > 1 {
				return nil, errors.New("injected mid-shard failure")
			}
			return stubOutput(), nil
		},
	})
	_, raw := postJSON(t, ts1.URL+"/v1/sweeps", body)
	var sub api.SubmitResponse
	json.Unmarshal(raw, &sub)
	if v := waitDone(t, ts1.URL, sub.ID); v.Status != api.StatusFailed {
		t.Fatalf("interrupted shard = %s, want failed", v.Status)
	}

	var calls2 atomic.Int64
	_, ts2 := newTestServer(t, Config{Workers: 1, SweepWorkers: 1, Store: openStore(t, dir), Simulate: countingStub(&calls2)})
	_, raw2 := postJSON(t, ts2.URL+"/v1/sweeps", body)
	var sub2 api.SubmitResponse
	json.Unmarshal(raw2, &sub2)
	if v := waitDone(t, ts2.URL, sub2.ID); v.Status != api.StatusDone {
		t.Fatalf("resumed shard = %s: %s", v.Status, v.Error)
	}
	if got := calls2.Load(); got != 1 {
		t.Errorf("resumed shard simulated %d points, want 1", got)
	}
	if got := scrapeCounter(t, ts2.URL, "dike_store_hits_total"); got != 1 {
		t.Errorf("store hits = %v, want 1 (the point stored before the interruption)", got)
	}
}

// TestServeSweepAppendsOnlyResults: a 32-point sweep over a store
// appends one result record per grid point plus the sweep's own, and
// nothing else, so the log grows linearly in the grid.
func TestServeSweepAppendsOnlyResults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real 32-point sweep")
	}
	st := openStore(t, t.TempDir())
	_, ts := newTestServer(t, Config{Workers: 1, SweepWorkers: 1, Store: st})
	_, raw := postJSON(t, ts.URL+"/v1/sweeps", `{"workload":1,"scale":0.02,"seed":21}`)
	var sub api.SubmitResponse
	json.Unmarshal(raw, &sub)
	if v := waitDone(t, ts.URL, sub.ID); v.Status != api.StatusDone {
		t.Fatalf("sweep = %s: %s", v.Status, v.Error)
	}
	stats := st.Stats()
	t.Logf("one 32-point sweep appended %d records, %d bytes", stats.Appends, stats.AppendedBytes)
	resultBytes := 0
	for _, rec := range st.Records() {
		resultBytes += rec.Bytes
	}
	if stats.Appends != 33 || stats.Results != 33 || stats.AppendedBytes != uint64(resultBytes) {
		t.Fatalf("appended %d records (%d bytes) for %d results of %d bytes, want 33 result records and nothing else",
			stats.Appends, stats.AppendedBytes, stats.Results, resultBytes)
	}
}

// harnessSweepJSON renders harness.Sweep of Table II workload wl as the
// service's sweep result: the reference that every executed sweep must
// match byte for byte. Each (wl, seed, scale) is swept once per test
// binary, so repeated passes (-count) compare against the same bytes.
func harnessSweepJSON(t *testing.T, wl int, seed uint64, scale float64) []byte {
	t.Helper()
	v, _ := sweepRefs.LoadOrStore(sweepRefKey{wl, seed, scale}, new(sweepRef))
	ref := v.(*sweepRef)
	ref.once.Do(func() { ref.raw, ref.err = renderHarnessSweep(wl, seed, scale) })
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	return ref.raw
}

type sweepRefKey struct {
	wl    int
	seed  uint64
	scale float64
}

// sweepRef is one memoised harnessSweepJSON result.
type sweepRef struct {
	once sync.Once
	raw  []byte
	err  error
}

var sweepRefs sync.Map // sweepRefKey -> *sweepRef

func renderHarnessSweep(wl int, seed uint64, scale float64) ([]byte, error) {
	w := workload.MustTable2(wl)
	grid, err := harness.Sweep(context.Background(), w, harness.Options{Seed: seed, SweepScale: scale, Workers: 2})
	if err != nil {
		return nil, err
	}
	res := api.SweepResult{Workload: w.Name}
	for _, g := range grid {
		res.Grid = append(res.Grid, api.SweepPoint{
			SwapSize: g.SwapSize, QuantaMs: g.Quanta.Millis(),
			Fairness: g.Fairness, InvMakespan: g.Perf, Swaps: g.Swaps,
		})
	}
	return json.Marshal(res)
}

// TestSweepCountsSimulations: every grid point a sweep simulates counts
// in dike_serve_simulations_total, with or without a store, and a cached
// resubmission simulates nothing.
func TestSweepCountsSimulations(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("store=%v", durable), func(t *testing.T) {
			var calls atomic.Int64
			cfg := Config{Workers: 1, SweepWorkers: 4, Simulate: countingStub(&calls)}
			if durable {
				cfg.Store = openStore(t, t.TempDir())
			}
			s, ts := newTestServer(t, cfg)
			const body = `{"workload":1,"scale":0.01,"seed":3}`
			_, raw := postJSON(t, ts.URL+"/v1/sweeps", body)
			var sub api.SubmitResponse
			json.Unmarshal(raw, &sub)
			if v := waitDone(t, ts.URL, sub.ID); v.Status != api.StatusDone {
				t.Fatalf("sweep = %s: %s", v.Status, v.Error)
			}
			if _, _, _, sims := s.CacheStats(); sims != 32 || calls.Load() != 32 {
				t.Fatalf("after one sweep: counted %d simulations, ran %d, want 32 and 32", sims, calls.Load())
			}
			if got := scrapeCounter(t, ts.URL, "dike_serve_simulations_total"); got != 32 {
				t.Fatalf("dike_serve_simulations_total = %v, want 32", got)
			}

			resp, raw2 := postJSON(t, ts.URL+"/v1/sweeps", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("resubmit = %d (%s), want cached 200", resp.StatusCode, raw2)
			}
			if _, _, _, sims := s.CacheStats(); sims != 32 || calls.Load() != 32 {
				t.Fatalf("after cached resubmit: counted %d simulations, ran %d, want 32 and 32", sims, calls.Load())
			}
		})
	}
}

// TestMetricsHitRatioCountsDedup is the regression test for the
// hit-ratio bug: a singleflight-coalesced duplicate got a result
// without a simulation, so the ratio must count it as a hit.
func TestMetricsHitRatioCountsDedup(t *testing.T) {
	gauge := func() int64 { return 0 }
	m := newMetrics(gauge, 0, 0, gauge, nil)
	m.cacheHits.Inc()
	m.dedup.Inc()
	m.cacheMisses.Inc()
	var buf bytes.Buffer
	if _, err := m.reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("dike_serve_cache_hit_ratio %s\n", strconv.FormatFloat(2.0/3.0, 'g', -1, 64))
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("metrics missing %q (dedup must count as a hit):\n%s", want, grepMetric(buf.String(), "hit_ratio"))
	}
}

// TestMetricsStoreSection checks the dike_store_* family appears
// exactly when a store is attached.
func TestMetricsStoreSection(t *testing.T) {
	gauge := func() int64 { return 0 }
	m := newMetrics(gauge, 0, 0, gauge, nil)
	var buf bytes.Buffer
	m.reg.WriteTo(&buf)
	if strings.Contains(buf.String(), "dike_store_") {
		t.Fatal("store metrics present without a store")
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.Put(strings.Repeat("cd", 32), nil, []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	m = newMetrics(gauge, 0, 0, gauge, st.Stats)
	m.storeErrors.Inc()
	buf.Reset()
	m.reg.WriteTo(&buf)
	out := buf.String()
	for _, want := range []string{
		"dike_store_appends_total 1",
		"dike_store_results 1",
		"dike_store_errors_total 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q:\n%s", want, grepMetric(out, "dike_store_"))
		}
	}
}

// grepMetric filters an exposition dump to lines containing substr, to
// keep failure output readable.
func grepMetric(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) && !strings.HasPrefix(line, "#") {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
