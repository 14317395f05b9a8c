// Package serve exposes the simulation harness as a long-running
// HTTP/JSON service: submit runs and sweeps, poll status, stream
// per-quantum progress, scrape metrics. Under the API sit a bounded job
// queue with backpressure (full queue → 429 + Retry-After), a worker
// pool, and a digest-keyed LRU result cache with singleflight
// deduplication — simulations are deterministic in their spec digest,
// so an identical submission is served from cache or coalesced onto the
// identical in-flight job instead of simulating twice.
//
// Shutdown is graceful: Drain stops admitting (submissions → 503),
// lets queued and in-flight jobs finish, and flushes their results into
// the cache before returning.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dike/internal/harness"
	"dike/internal/serve/api"
	"dike/internal/store"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the simulation worker-pool size. Default GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs;
	// submissions beyond it are rejected with 429. Default 64.
	QueueDepth int
	// CacheSize bounds the result cache, in results. Default 256.
	CacheSize int
	// DefaultDeadline bounds each job's wall-clock execution when the
	// request does not set its own. Default 2 minutes.
	DefaultDeadline time.Duration
	// SweepWorkers is the intra-sweep concurrency (a sweep is 32
	// simulations inside one worker slot). Default 1, so a sweep never
	// occupies more than its slot's share of the machine.
	SweepWorkers int
	// Store, when non-nil, is the durable run store: a write-through
	// tier below the LRU (cache miss → store hit → repopulate LRU) that
	// survives restarts, plus sweep checkpointing so an interrupted
	// sweep resumes from its last completed grid index. The caller owns
	// the store's lifecycle (open before New, close after Drain).
	Store *store.Store

	// Simulate overrides harness.Run, the one simulation entry point:
	// runs call it once and sweeps once per grid point they do not find
	// in the store. Nil uses the real harness. It is a seam for tests
	// (cluster tests boot workers with deterministic stubs and
	// controllable delays) and is not reachable from any flag.
	Simulate func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error)
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.SweepWorkers < 1 {
		c.SweepWorkers = 1
	}
	return c
}

// Server is the simulation service. Create with New, start the worker
// pool with Start, mount Handler on an http.Server, and stop with Drain.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *metrics
	cache   *resultCache
	runs    *RunMemo
	store   *store.Store // nil: in-memory only
	// running counts jobs currently executing on the worker pool.
	running atomic.Int64

	// baseCtx parents every job context; closing it hard-cancels
	// everything still running (used only after a drain deadline).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	jobs *Jobs

	mu       sync.Mutex
	inflight map[string]*Job // digest → leader job, until terminal
	queue    chan *Job
	draining bool
	started  bool

	wg sync.WaitGroup

	// simulate is the harness entry point; tests and the Config seam
	// substitute stubs to exercise queueing, backpressure and cluster
	// re-routing deterministically.
	simulate func(ctx context.Context, spec harness.RunSpec) (*harness.RunOutput, error)
}

// New builds a Server. Call Start before serving traffic.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      newResultCache(cfg.CacheSize),
		runs:       NewRunMemo(),
		store:      cfg.Store,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       NewJobs("serve"),
		inflight:   make(map[string]*Job),
		queue:      make(chan *Job, cfg.QueueDepth),
		simulate:   harness.Run,
	}
	if cfg.Simulate != nil {
		s.simulate = cfg.Simulate
	}
	var storeStats func() store.Stats
	if s.store != nil {
		storeStats = s.store.Stats
	}
	s.metrics = newMetrics(func() int64 { return int64(len(s.queue)) }, cfg.QueueDepth, cfg.Workers, s.running.Load, storeStats)
	s.mux = http.NewServeMux()
	s.route("POST /v1/runs", s.handleSubmitRun)
	s.route("POST /v1/sweeps", s.handleSubmitSweep)
	s.route("GET /v1/runs", s.handleLookupRun)
	s.route("GET /v1/store/stats", s.handleStoreStats)
	s.jobs.Mount(s.route)
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	return s
}

// Start launches the worker pool. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.queue {
				s.execute(job)
			}
		}()
	}
}

// Handler returns the instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully shuts the server down: new submissions are refused
// with 503, queued and in-flight jobs run to completion (their results
// land in the cache), and the worker pool exits. If ctx expires first,
// remaining jobs are hard-cancelled — each stops within one simulated
// quantum thanks to the engine's context plumbing — and Drain returns
// ctx.Err after the pool exits.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-cancel stragglers, then wait them out
		<-done
		return ctx.Err()
	}
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// CacheStats exposes hit/miss/dedup/simulation counters (for dikeload
// summaries and tests).
func (s *Server) CacheStats() (hits, misses, dedup, simulations uint64) {
	m := s.metrics
	return m.cacheHits.Value(), m.cacheMisses.Value(), m.dedup.Value(), m.simulations.Value()
}

// route mounts an instrumented handler: every request is counted and
// timed under its route pattern.
func (s *Server) route(pattern string, h func(http.ResponseWriter, *http.Request)) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := api.NewCodeWriter(w)
		h(cw, r)
		s.metrics.http.Inc(pattern, strconv.Itoa(cw.Code))
		s.metrics.latency.Observe(time.Since(start).Seconds(), pattern)
	})
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// The decoded request re-encoded: the memo key, and stored beside
	// the result.
	meta, digest, err := s.runs.Resolve(req)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	job := &Job{kind: "run", digest: digest, meta: meta, deadline: s.deadline(req.DeadlineMs)}
	job.exec = func(ctx context.Context) (json.RawMessage, error) {
		// Only a job that simulates needs the spec; a memo hit served
		// from the cache or the store never builds it.
		runSpec, _, err := BuildRunSpec(req)
		if err != nil {
			return nil, err
		}
		runSpec.OnProgress = func(p harness.Progress) {
			job.events.publish(Event{
				TMs:     p.Time.Millis(),
				Quantum: p.Quantum,
				Alive:   p.Alive,
				Swaps:   p.Swaps,
				Util:    p.Utilization,
			})
		}
		s.metrics.simulations.Inc()
		out, err := s.simulate(ctx, runSpec)
		if err != nil {
			return nil, err
		}
		return json.Marshal(runResult(out))
	}
	s.admit(w, job)
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	rs, err := ResolveSweep(req)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	job := &Job{kind: "sweep", digest: rs.Digest, deadline: s.deadline(req.DeadlineMs)}
	job.meta, _ = json.Marshal(req)
	job.exec = s.sweepExec(job, rs)
	s.admit(w, job)
}

// deadline resolves a request deadline against the server default.
func (s *Server) deadline(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

// admit runs the submission pipeline: cache lookup, singleflight
// coalescing, durable-store lookup, then bounded enqueue with
// backpressure.
func (s *Server) admit(w http.ResponseWriter, job *Job) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		api.WriteError(w, http.StatusServiceUnavailable, errors.New("serve: draining, not accepting jobs"))
		return
	}

	// Identical submission already in flight: one simulation serves both.
	if leader, ok := s.inflight[job.digest]; ok {
		s.mu.Unlock()
		s.metrics.dedup.Inc()
		api.WriteJSON(w, http.StatusOK, api.SubmitResponse{
			ID: leader.id, Status: leader.Status(), Digest: leader.digest, Deduped: true,
		})
		return
	}

	s.jobs.open(s.baseCtx, job)

	// Result already known to the in-memory tier: complete without
	// queueing or simulating.
	if cached, ok := s.cache.get(job.digest); ok {
		s.jobs.add(job)
		s.mu.Unlock()
		s.metrics.cacheHits.Inc()
		s.completeCached(w, job, cached, false)
		return
	}
	s.mu.Unlock()

	// Durable tier, outside the lock (it reads the segment log). A hit
	// repopulates the LRU and completes the job exactly like a cache
	// hit — an earlier process already simulated this digest.
	if payload, ok := s.storeLookup(job.digest); ok {
		s.jobs.add(job)
		s.completeCached(w, job, payload, true)
		return
	}

	s.mu.Lock()
	// The lock was dropped for the store read: drain may have begun and
	// an identical submission may have slipped in. Re-check both.
	if s.draining {
		s.mu.Unlock()
		job.cancel()
		api.WriteError(w, http.StatusServiceUnavailable, errors.New("serve: draining, not accepting jobs"))
		return
	}
	if leader, ok := s.inflight[job.digest]; ok {
		s.mu.Unlock()
		job.cancel()
		s.metrics.dedup.Inc()
		api.WriteJSON(w, http.StatusOK, api.SubmitResponse{
			ID: leader.id, Status: leader.Status(), Digest: leader.digest, Deduped: true,
		})
		return
	}

	// Bounded enqueue: never block the client, never queue unboundedly.
	select {
	case s.queue <- job:
		s.jobs.add(job)
		s.inflight[job.digest] = job
		s.mu.Unlock()
		s.metrics.cacheMisses.Inc()
		api.WriteJSON(w, http.StatusAccepted, api.SubmitResponse{
			ID: job.id, Status: StatusQueued, Digest: job.digest,
		})
	default:
		s.mu.Unlock()
		job.cancel()
		s.metrics.rejected.Inc()
		// A slot frees when a worker finishes a job; with simulations
		// running for O(seconds), 1s is an honest first retry interval.
		w.Header().Set("Retry-After", "1")
		api.WriteError(w, http.StatusTooManyRequests,
			fmt.Errorf("serve: queue full (%d jobs)", s.cfg.QueueDepth))
	}
}

// completeCached finishes a job whose result was already known (LRU or
// durable store) without it ever touching the queue.
func (s *Server) completeCached(w http.ResponseWriter, job *Job, result json.RawMessage, fromStore bool) {
	job.mu.Lock()
	job.cached = true
	job.stored = fromStore
	job.started = job.submitted
	job.finished = job.submitted
	job.mu.Unlock()
	job.Finish(StatusDone, result, "")
	s.metrics.jobs.Inc(StatusDone)
	api.WriteJSON(w, http.StatusOK, api.SubmitResponse{
		ID: job.id, Status: StatusDone, Digest: job.digest, Cached: true, Stored: fromStore,
	})
}

// execute runs one job on a worker goroutine.
func (s *Server) execute(job *Job) {
	// Cancelled while queued (DELETE or hard drain): never start.
	if err := job.ctx.Err(); err != nil {
		s.finish(job, nil, err)
		return
	}
	job.Start()
	s.running.Add(1)
	defer s.running.Add(-1)

	ctx, cancel := context.WithTimeout(job.ctx, job.deadline)
	defer cancel()
	result, err := job.exec(ctx)
	s.finish(job, result, err)
}

// finish updates the cache and the durable store, releases the
// singleflight slot and moves the job to its terminal state.
func (s *Server) finish(job *Job, result json.RawMessage, err error) {
	if err == nil {
		s.cache.put(job.digest, result)
		// Write-through to the durable tier: a restarted process serves
		// this digest from disk without re-simulating.
		s.storePut(job.digest, job.meta, result)
	}

	s.mu.Lock()
	if s.inflight[job.digest] == job {
		delete(s.inflight, job.digest)
	}
	s.mu.Unlock()

	if err != nil {
		job.Fail(err)
	} else {
		job.Finish(StatusDone, result, "")
	}
	s.metrics.jobs.Inc(job.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.reg.WriteTo(w)
}
