package serve

import (
	"dike/internal/obs"
	"dike/internal/store"
)

// latencyBuckets are the upper bounds (seconds) of the per-endpoint
// request-latency histograms. Simulation jobs run for seconds, metadata
// endpoints for microseconds, so the range is wide.
var latencyBuckets = []float64{
	0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metrics is the server's registry and the counters its call sites
// increment; newMetrics registers them in scrape order.
type metrics struct {
	reg *obs.Registry
	// jobs counts jobs by terminal status (done/failed/canceled).
	jobs *obs.Counter
	// simulations counts actual harness executions — the number the
	// cache exists to minimise. A cache hit serves a job without
	// incrementing it.
	simulations, cacheHits, cacheMisses, dedup, rejected *obs.Counter
	// storeErrors counts durable-store writes that failed (the job still
	// completes; only durability degrades).
	storeErrors *obs.Counter
	// http counts requests by route and status code; latency histograms
	// their duration per route.
	http    *obs.Counter
	latency *obs.Histogram
}

// newMetrics registers the server's families. queueDepth and running
// are sampled at scrape time. storeStats snapshots the durable store's
// own counters; it is nil when the server runs without a store, and so
// are the dike_store_* families.
func newMetrics(queueDepth func() int64, capacity, workers int, running func() int64, storeStats func() store.Stats) *metrics {
	r := new(obs.Registry)
	m := &metrics{reg: r}
	r.Gauge("dike_serve_queue_depth", "Jobs waiting in the bounded queue.", queueDepth)
	r.Gauge("dike_serve_queue_capacity", "Bounded queue capacity.", func() int64 { return int64(capacity) })
	r.Gauge("dike_serve_workers", "Size of the simulation worker pool.", func() int64 { return int64(workers) })
	r.Gauge("dike_serve_inflight_jobs", "Jobs currently executing.", running)
	m.jobs = r.Counter("dike_serve_jobs_total", "Jobs finished, by terminal status.", "status")
	m.simulations = r.Counter("dike_serve_simulations_total", "Simulations actually executed (cache hits serve jobs without one).")
	m.cacheHits = r.Counter("dike_serve_cache_hits_total", "Submissions served from the result cache.")
	m.cacheMisses = r.Counter("dike_serve_cache_misses_total", "Submissions that missed the result cache.")
	// A singleflight-coalesced duplicate is a hit for dashboard purposes:
	// the submitter got a result without a new simulation, exactly like a
	// cache hit, so excluding dedups would understate cache effectiveness
	// under concurrent identical load.
	r.Ratio("dike_serve_cache_hit_ratio", "Hits (including coalesced duplicates) over lookups since start.",
		[]string{"dike_serve_cache_hits_total", "dike_serve_dedup_total"}, []string{"dike_serve_cache_misses_total"})
	m.dedup = r.Counter("dike_serve_dedup_total", "Submissions coalesced onto an identical in-flight job.")
	m.rejected = r.Counter("dike_serve_rejected_total", "Submissions rejected with 429 because the queue was full.")

	// Without a store storeErrors is never incremented; it lives on a
	// registry nobody scrapes.
	sr := new(obs.Registry)
	if storeStats != nil {
		sr = r
		stat := func(v func(store.Stats) int64) func() int64 { return func() int64 { return v(storeStats()) } }
		r.CounterFunc("dike_store_hits_total", "Lookups served from the durable run store.", stat(func(s store.Stats) int64 { return int64(s.Hits) }))
		r.CounterFunc("dike_store_misses_total", "Lookups that missed the durable run store.", stat(func(s store.Stats) int64 { return int64(s.Misses) }))
		r.CounterFunc("dike_store_appends_total", "Records appended to the segment log.", stat(func(s store.Stats) int64 { return int64(s.Appends) }))
		r.CounterFunc("dike_store_appended_bytes_total", "Bytes appended to the segment log.", stat(func(s store.Stats) int64 { return int64(s.AppendedBytes) }))
		r.Gauge("dike_store_size_bytes", "Total on-disk size of all segments.", stat(func(s store.Stats) int64 { return s.SizeBytes }))
		r.Gauge("dike_store_segments", "Segment files in the store directory.", stat(func(s store.Stats) int64 { return int64(s.Segments) }))
		r.Gauge("dike_store_results", "Live result records in the index.", stat(func(s store.Stats) int64 { return int64(s.Results) }))
		r.CounterFunc("dike_store_recovered_records_total", "Records replayed from disk at open.", stat(func(s store.Stats) int64 { return int64(s.RecoveredRecords) }))
		r.CounterFunc("dike_store_truncated_records_total", "Torn tail records truncated during recovery.", stat(func(s store.Stats) int64 { return int64(s.TruncatedRecords) }))
		r.CounterFunc("dike_store_corrupt_records_total", "Corrupt records skipped during recovery.", stat(func(s store.Stats) int64 { return int64(s.CorruptRecords) }))
		r.CounterFunc("dike_store_compactions_total", "Compaction passes completed.", stat(func(s store.Stats) int64 { return int64(s.Compactions) }))
		r.CounterFunc("dike_store_reclaimed_bytes_total", "Bytes reclaimed by compaction.", stat(func(s store.Stats) int64 { return int64(s.ReclaimedBytes) }))
	}
	m.storeErrors = sr.Counter("dike_store_errors_total", "Durable-store writes that failed (job still served).")

	m.http = r.Counter("dike_serve_http_requests_total", "HTTP requests, by route and status code.", "route", "code")
	m.latency = r.Histogram("dike_serve_http_request_seconds", "HTTP request latency, by route.", latencyBuckets, "route")
	return m
}
