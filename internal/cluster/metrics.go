package cluster

import "dike/internal/obs"

// shardBuckets are the upper bounds (seconds) of the shard-latency
// histogram: a shard is a batch of simulations plus polling, so the
// range runs from sub-second stub shards to multi-minute sweeps.
var shardBuckets = []float64{
	0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// metrics is the coordinator's registry, extending the fleet's
// observability with what only the coordinator can see: which worker
// served what, how often routing had to leave the ring owner, and how
// long shards take end to end. newClusterMetrics registers the families
// in scrape order.
type metrics struct {
	reg *obs.Registry
	// jobs counts coordinator jobs by terminal status.
	jobs *obs.Counter
	// workerRequests/workerFailures count coordinator→worker job
	// placements and their failures, per worker.
	workerRequests, workerFailures *obs.Counter
	// breakerTransitions counts circuit-breaker state changes, per
	// worker and target state — the number a soak asserts stays at zero
	// when a single probe flaps.
	breakerTransitions *obs.Counter
	// membershipChanges counts fleet mutations by op (join/leave/expire).
	membershipChanges *obs.Counter
	// spillovers counts placements that skipped a saturated worker;
	// abandonedCancels the best-effort DELETEs fired at workers whose
	// placements the coordinator gave up on mid-flight.
	spillovers, abandonedCancels *obs.Counter
	// retries counts re-route attempts beyond each job's first.
	retries *obs.Counter
	// ringPrimary/ringRerouted split placements by whether they landed
	// on the key's ring owner (cache-affine) or a successor.
	ringPrimary, ringRerouted *obs.Counter
	// shardLatency histograms successful shard round-trips (submit
	// through terminal poll), seconds.
	shardLatency *obs.Histogram
}

// newClusterMetrics registers the coordinator's families. fleet,
// inflight and breakers sample live state at scrape time; breakers
// returns each member's breaker position (0 closed, 1 half-open, 2
// open) and inflight placements.
func newClusterMetrics(fleet func() (healthy, total int), inflight func() int64, breakers func() (state, inflight map[string]int64)) *metrics {
	r := new(obs.Registry)
	m := &metrics{reg: r}
	r.Gauge("dike_cluster_workers_total", "Configured fleet size.", func() int64 { _, total := fleet(); return int64(total) })
	r.Gauge("dike_cluster_workers_healthy", "Workers currently marked healthy.", func() int64 { healthy, _ := fleet(); return int64(healthy) })
	r.Gauge("dike_cluster_inflight_jobs", "Coordinator jobs currently in flight.", inflight)
	m.jobs = r.Counter("dike_cluster_jobs_total", "Coordinator jobs finished, by terminal status.", "status")
	m.workerRequests = r.Counter("dike_cluster_worker_requests_total", "Jobs and shards placed on each worker.", "worker")
	m.workerFailures = r.Counter("dike_cluster_worker_failures_total", "Placements that failed, per worker.", "worker")
	r.GaugeVec("dike_cluster_breaker_state", "Per-worker circuit-breaker position (0 closed, 1 half-open, 2 open).", "worker",
		func() map[string]int64 { state, _ := breakers(); return state })
	r.GaugeVec("dike_cluster_worker_inflight", "Coordinator placements currently running on each worker.", "worker",
		func() map[string]int64 { _, inflight := breakers(); return inflight })
	m.breakerTransitions = r.Counter("dike_cluster_breaker_transitions_total", "Circuit-breaker state changes, per worker and target state.", "worker", "to")
	m.membershipChanges = r.Counter("dike_cluster_membership_changes_total", "Fleet membership mutations, by op.", "op")
	m.spillovers = r.Counter("dike_cluster_spillover_total", "Placements that routed around a saturated worker.")
	m.abandonedCancels = r.Counter("dike_cluster_abandoned_cancels_total", "Best-effort cancels sent for abandoned placements.")
	m.retries = r.Counter("dike_cluster_retries_total", "Re-route attempts beyond each job's first placement.")
	m.ringPrimary = r.Counter("dike_cluster_ring_primary_total", "Placements that landed on the key's ring owner.")
	m.ringRerouted = r.Counter("dike_cluster_ring_rerouted_total", "Placements routed past the ring owner (unhealthy or retried).")
	r.Ratio("dike_cluster_ring_hit_ratio", "Primary placements over all placements since start.",
		[]string{"dike_cluster_ring_primary_total"}, []string{"dike_cluster_ring_rerouted_total"})
	m.shardLatency = r.Histogram("dike_cluster_shard_seconds", "Successful shard round-trip latency (submit through terminal poll).", shardBuckets)
	return m
}

func (m *metrics) requestsFor(worker string) uint64 { return m.workerRequests.Value(worker) }

func (m *metrics) failuresFor(worker string) uint64 { return m.workerFailures.Value(worker) }
