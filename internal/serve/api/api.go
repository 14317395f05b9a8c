// Package api holds the wire format of the simulation service: the
// JSON request, response and event types spoken on /v1/runs and
// /v1/sweeps. Both sides of the cluster speak it — a dikeserved worker
// serves these types and a dikecoord coordinator both serves and
// consumes them — so the coordinator is a drop-in for a single node by
// construction: there is exactly one definition of every body that
// crosses the network. Client is the one calling side of it, shared by
// the coordinator, the dikeserved registrar and dikeload.
package api

import "encoding/json"

// RunRequest is the body of POST /v1/runs: one simulation to execute.
// Exactly one workload source is used, in precedence order Generator,
// Apps, Workload.
type RunRequest struct {
	// Workload selects a Table II workload (1–16). Default 1.
	Workload int `json:"workload,omitempty"`
	// Apps builds a custom workload from named applications instead.
	Apps []string `json:"apps,omitempty"`
	// Generator synthesises a random Table II-style workload instead.
	Generator *GeneratorRequest `json:"generator,omitempty"`
	// Policy is the scheduling policy name (cfs, dio, dike, dike-af,
	// dike-ap, dike-ea, null, rotate, oracle, meta). Required.
	Policy string `json:"policy"`
	// Seed makes the run reproducible. Default 42.
	Seed *uint64 `json:"seed,omitempty"`
	// Scale multiplies benchmark work, in (0, 1]. Default 0.1 — service
	// runs favour latency over paper-length simulations.
	Scale float64 `json:"scale,omitempty"`
	// MaxTimeMs overrides the simulation safety horizon.
	MaxTimeMs int64 `json:"max_time_ms,omitempty"`
	// Machine, when set, is a platform.MachineSpec JSON document: the
	// topology-driven machine (core types, sockets with per-socket
	// memory controllers, distance matrix) to simulate on instead of
	// the default Table I platform. Kept as raw JSON here so the wire
	// package stays dependency-free; workers validate it on decode.
	Machine json.RawMessage `json:"machine,omitempty"`
	// Traffic, when set, is a traffic.Spec JSON document: an open-loop
	// multi-tenant scenario (arrival processes, SLO classes, admission
	// caps) that replaces the closed-loop workload sources entirely —
	// it takes precedence over Generator/Apps/Workload, and Scale is
	// ignored. Raw JSON for the same reason as Machine.
	Traffic json.RawMessage `json:"traffic,omitempty"`
	// Meta, when set, is a tournament.Config JSON document overriding
	// the meta policy's tournament parameters (epoch, window, objective,
	// candidate set, hysteresis). Only valid with policy "meta"; raw
	// JSON for the same reason as Machine.
	Meta json.RawMessage `json:"meta,omitempty"`
	// Faults attaches the deterministic fault injector.
	Faults *FaultRequest `json:"faults,omitempty"`
	// Power, when set, is a power.Config JSON document: the DVFS
	// governor to run on top of the policy (governor name, per-socket
	// watt cap, adaptation cadence). Raw JSON for the same reason as
	// Machine; workers validate it on decode. The governor's decision
	// stream joins the run digest, so routing by digest stays exact.
	Power json.RawMessage `json:"power,omitempty"`
	// DeadlineMs bounds the job's wall-clock execution; 0 uses the
	// server default. A job past its deadline is failed, not retried.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// GeneratorRequest mirrors workload.GeneratorSpec over JSON.
type GeneratorRequest struct {
	Benchmarks    int  `json:"benchmarks,omitempty"`
	ThreadsPer    int  `json:"threads_per,omitempty"`
	MemoryApps    *int `json:"memory_apps,omitempty"` // nil draws uniformly
	IncludeKmeans bool `json:"include_kmeans,omitempty"`
	// Seed drives the draw; independent of the simulation seed so the
	// same workload can be simulated under many seeds. Default 1.
	Seed uint64 `json:"seed,omitempty"`
}

// FaultRequest mirrors fault.Config's CLI surface over JSON.
type FaultRequest struct {
	// Classes is 'all' or a comma list of fault class names.
	Classes string `json:"classes"`
	// Rate multiplies all base probabilities. Default 1.
	Rate float64 `json:"rate,omitempty"`
	// Seed fixes the fault schedule. Default 1.
	Seed uint64 `json:"seed,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps: the 32-point
// ⟨swapSize, quantaLength⟩ grid on one workload as a single fan-out job,
// or — when Shard is set — a named subset of that grid.
type SweepRequest struct {
	// Workload selects a Table II workload (1–16). Default 1.
	Workload int `json:"workload,omitempty"`
	// Seed is the shared simulation seed. Default 42.
	Seed *uint64 `json:"seed,omitempty"`
	// Scale is the per-run workload scale, in (0, 1]. Default 0.05 —
	// a sweep is 32 simulations.
	Scale float64 `json:"scale,omitempty"`
	// Shard, when non-empty, restricts the job to these grid indices
	// (strictly increasing, in [0, 32)). Grid order is fixed —
	// quanta-major, swap sizes ascending — so an index names the same
	// configuration on every node; the cluster coordinator uses this to
	// fan a sweep out across workers and merge byte-identically.
	Shard []int `json:"shard,omitempty"`
	// DeadlineMs bounds the whole job's wall-clock execution.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
}

// RunResult is the JSON result of a finished run job.
type RunResult struct {
	Workload   string  `json:"workload"`
	Type       string  `json:"type"`
	Policy     string  `json:"policy"`
	Fairness   float64 `json:"fairness"`
	MakespanMs float64 `json:"makespan_ms"`
	AvgTimeMs  float64 `json:"avg_time_ms"`
	Swaps      int     `json:"swaps"`
	Migrations int     `json:"migrations"`
	// CompletedAtMs is the simulated completion time.
	CompletedAtMs int64 `json:"completed_at_ms"`
	// PredErr* are Dike's prediction-error extremes (zero otherwise).
	PredErrMin float64 `json:"pred_err_min,omitempty"`
	PredErrAvg float64 `json:"pred_err_avg,omitempty"`
	PredErrMax float64 `json:"pred_err_max,omitempty"`
	// DecisionSHA256 is the SHA-256 of the run's per-quantum decision
	// stream (harness.Digest), so a served result can be audited against
	// a local replay. `dikesim -digest` prints harness.RunDigest, which
	// appends the meta policy's tournament stream and the governor's
	// decision stream; for a run with neither, it hashes to this value.
	DecisionSHA256 string `json:"decision_sha256,omitempty"`
	// Faults counts injected faults when the run had a fault plan.
	Faults int `json:"faults,omitempty"`
	// Benches holds per-application outcomes.
	Benches []BenchResult `json:"benches"`
	// Traffic holds the open-loop scenario outcome when the run was
	// traffic-driven (RunRequest.Traffic set); nil for closed-loop runs.
	Traffic *TrafficResult `json:"traffic,omitempty"`
	// MetaSwitches and MetaFinalPolicy summarise the meta policy's
	// tournament record (policy "meta" only): how many times the live
	// policy changed, and which candidate held the live seat at the end.
	MetaSwitches    int    `json:"meta_switches,omitempty"`
	MetaFinalPolicy string `json:"meta_final_policy,omitempty"`
}

// TrafficResult mirrors traffic.Result over the wire: scenario totals,
// per-tenant fairness and per-class sojourn/SLO outcomes.
type TrafficResult struct {
	Name           string               `json:"name"`
	Load           float64              `json:"load"`
	Arrivals       int                  `json:"arrivals"`
	Admitted       int                  `json:"admitted"`
	Rejected       int                  `json:"rejected,omitempty"`
	Completed      int                  `json:"completed"`
	Killed         int                  `json:"killed,omitempty"`
	FairnessJain   float64              `json:"fairness_jain"`
	FairnessMinMax float64              `json:"fairness_minmax"`
	DrainedAtMs    int64                `json:"drained_at_ms"`
	Classes        []TrafficClassResult `json:"classes"`
}

// TrafficClassResult is one tenant class's outcome inside a
// TrafficResult.
type TrafficClassResult struct {
	Name          string  `json:"name"`
	SLOMs         float64 `json:"slo_ms,omitempty"`
	Arrivals      int     `json:"arrivals"`
	Admitted      int     `json:"admitted"`
	Rejected      int     `json:"rejected,omitempty"`
	Completed     int     `json:"completed"`
	Killed        int     `json:"killed,omitempty"`
	MeanMs        float64 `json:"mean_ms"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	MaxMs         float64 `json:"max_ms"`
	ViolationRate float64 `json:"violation_rate"`
	Slowdown      float64 `json:"slowdown"`
}

// BenchResult is one application's outcome inside a RunResult.
type BenchResult struct {
	Name   string  `json:"name"`
	Extra  bool    `json:"extra,omitempty"`
	TimeMs float64 `json:"time_ms"`
	CV     float64 `json:"cv"`
}

// SweepResult is the JSON result of a finished sweep job. For a full
// sweep Shard is absent and Grid is the whole grid in index order; for
// a shard job Shard echoes the requested indices and Grid holds exactly
// those points, in the same (ascending) order. A merged shard set is
// byte-identical to a full sweep because both marshal this one type.
type SweepResult struct {
	Workload string       `json:"workload"`
	Shard    []int        `json:"shard,omitempty"`
	Grid     []SweepPoint `json:"grid"`
}

// SweepPoint is one scheduler configuration's outcome.
type SweepPoint struct {
	SwapSize    int     `json:"swap_size"`
	QuantaMs    int64   `json:"quanta_ms"`
	Fairness    float64 `json:"fairness"`
	InvMakespan float64 `json:"inv_makespan"`
	Swaps       int     `json:"swaps"`
}

// Job statuses, in lifecycle order.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// Terminal reports whether status is a final job state.
func Terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// SubmitResponse is the body of a successful submission.
type SubmitResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Digest string `json:"digest"`
	// Cached: the result was already in the digest cache; the job is
	// immediately done, no simulation ran.
	Cached bool `json:"cached,omitempty"`
	// Deduped: an identical job was already queued or running; this is
	// its id, and one simulation will serve both submitters.
	Deduped bool `json:"deduped,omitempty"`
	// Stored: the result came out of the durable run store (it was
	// computed by an earlier process against the same store directory);
	// implies Cached.
	Stored bool `json:"stored,omitempty"`
}

// JobView is the API representation of a job's current state.
type JobView struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Status string `json:"status"`
	Digest string `json:"digest"`
	// Cached reports that the result was served from the digest cache
	// without running a simulation; Stored narrows it to the durable
	// run store (a previous process computed it).
	Cached bool   `json:"cached,omitempty"`
	Stored bool   `json:"stored,omitempty"`
	Error  string `json:"error,omitempty"`
	// QueueMs/RunMs are wall-clock milliseconds spent waiting/executing.
	QueueMs int64 `json:"queue_ms,omitempty"`
	RunMs   int64 `json:"run_ms,omitempty"`
	// Result is the kind-specific result object, present when done.
	Result json.RawMessage `json:"result,omitempty"`
}

// Event is one line of a job's NDJSON progress stream. While a run is in
// flight the serve layer publishes one event per scheduling quantum from
// the harness progress hook; a final event carries the job's terminal
// status instead.
type Event struct {
	// TMs is the simulated time of the decision, ms.
	TMs int64 `json:"t_ms,omitempty"`
	// Quantum counts decisions, starting at 1.
	Quantum int `json:"quantum,omitempty"`
	// Alive is the number of arrived, unfinished threads.
	Alive int `json:"alive,omitempty"`
	// Swaps is the cumulative migration-pair count.
	Swaps int `json:"swaps,omitempty"`
	// Util is the memory-controller utilisation.
	Util float64 `json:"util,omitempty"`
	// Status is set only on the terminal event: done|failed|canceled.
	Status string `json:"status,omitempty"`
	// Error carries the failure reason on a terminal failed event.
	Error string `json:"error,omitempty"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

// StoredResult is the body of GET /v1/runs?digest=… — a
// content-addressed result lookup that never triggers a simulation.
type StoredResult struct {
	Digest string `json:"digest"`
	// Source is where the result was found: "cache" (in-memory LRU) or
	// "store" (durable run store).
	Source string          `json:"source"`
	Result json.RawMessage `json:"result"`
}

// StoreStatsView is the body of GET /v1/store/stats. Stats is the
// store's own counter snapshot (store.Stats), kept opaque here so the
// wire package stays free of storage dependencies.
type StoreStatsView struct {
	Enabled bool            `json:"enabled"`
	Dir     string          `json:"dir,omitempty"`
	Stats   json.RawMessage `json:"stats,omitempty"`
}

// WorkerView is one worker's entry in GET /v1/cluster/workers.
type WorkerView struct {
	URL string `json:"url"`
	// Healthy is true while the worker's circuit breaker is not open
	// (closed or half-open probation).
	Healthy bool `json:"healthy"`
	// State is the breaker position: closed, half-open or open.
	State string `json:"state,omitempty"`
	// Source records how the worker joined: static (coordinator flags),
	// api (POST /v1/cluster/workers) or lease (self-registration).
	Source string `json:"source,omitempty"`
	// ConsecutiveFailures counts probe/request failures since the last
	// success; DownAfter of them open the breaker.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Inflight is the number of placements currently running on this
	// worker (drives load-aware spillover).
	Inflight int `json:"inflight,omitempty"`
	// LastProbeMs is how long ago the worker's health was last actually
	// observed (a probe or a request outcome), in wall-clock
	// milliseconds; -1 if it has never been observed. Distinct from
	// LastChangeMs — a long-stable worker has a small LastProbeMs and a
	// large LastChangeMs.
	LastProbeMs int64 `json:"last_probe_ms,omitempty"`
	// LastChangeMs is how long ago the breaker last changed state.
	LastChangeMs int64 `json:"last_change_ms,omitempty"`
	// LeaseExpiresMs is how long the worker's membership lease has left;
	// absent for permanent members. Negative means expiry is imminent.
	LeaseExpiresMs int64 `json:"lease_expires_ms,omitempty"`
	// LastError is the most recent probe or request failure.
	LastError string `json:"last_error,omitempty"`
	// Requests/Failures/Retries count coordinator traffic to this worker.
	Requests uint64 `json:"requests"`
	Failures uint64 `json:"failures,omitempty"`
}

// WorkersView is the body of GET /v1/cluster/workers.
type WorkersView struct {
	Workers []WorkerView `json:"workers"`
	Healthy int          `json:"healthy"`
}

// WorkerJoinRequest is the body of POST /v1/cluster/workers: add a
// worker to the fleet at runtime, or renew an existing worker's lease
// (the call is idempotent — joining an existing member refreshes it).
type WorkerJoinRequest struct {
	// URL is the worker's base URL. Required.
	URL string `json:"url"`
	// TTLMs, when positive, makes the membership a lease: unless renewed
	// by another join within TTLMs, the coordinator expires the worker
	// and rebuilds the ring. Zero joins permanently. Self-registering
	// workers heartbeat this endpoint at a fraction of their TTL.
	TTLMs int64 `json:"ttl_ms,omitempty"`
}

// WorkerJoinResponse is the body of a successful join or renewal.
type WorkerJoinResponse struct {
	URL string `json:"url"`
	// Joined is true for a new member, false for a lease renewal.
	Joined bool `json:"joined"`
	// Workers is the fleet size after the join.
	Workers int `json:"workers"`
}
