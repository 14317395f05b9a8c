// Package cluster is the coordinator that fronts a fleet of dikeserved
// workers: one node that speaks the same /v1/runs and /v1/sweeps API as
// a single worker (drop-in for dikeload), but spreads the load.
//
// Runs are routed by their spec digest over a consistent-hash ring, so
// identical submissions always land on the same worker and hit its
// digest-keyed cache and singleflight dedup; sweeps are split into
// per-worker shard jobs (each shard a set of grid indices) and merged
// by index, which — because every simulation is deterministic in its
// spec — makes a sharded sweep byte-identical to a single-node one.
//
// Failure handling is bounded everywhere: workers are probed and marked
// down/up, failed or timed-out placements retry with capped exponential
// backoff plus jitter on the next worker in the ring, shards in flight
// on a worker that goes down are re-routed, and when the whole fleet is
// unreachable a job fails promptly with per-shard attribution rather
// than hanging. Resubmitting a shard elsewhere is safe by construction:
// worker jobs are content-addressed, so a duplicate placement dedups or
// serves from cache instead of simulating twice.
package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"dike/internal/serve"
	"dike/internal/serve/api"
)

// Config parameterises a Coordinator.
type Config struct {
	// Workers is the initial fleet: dikeserved base URLs. May be empty —
	// membership is dynamic, and workers can join at runtime via
	// POST /v1/cluster/workers or self-registration leases.
	Workers []string
	// Breaker shapes every worker's health circuit breaker (down-after-N
	// failures, up-after-M successes, open-for cooldown). Zero values
	// take the BreakerConfig defaults.
	Breaker BreakerConfig
	// MaxInflightPerWorker is the load-aware spillover threshold: a
	// placement skips a worker already running this many coordinator
	// placements and routes to the next ring preference instead (if
	// every candidate is saturated, the least-loaded one is used).
	// Default 32; negative disables spillover.
	MaxInflightPerWorker int
	// LeaseSweepInterval is how often expired membership leases are
	// collected. Default 1s; negative disables sweeping (leases then
	// only expire when membership is next mutated).
	LeaseSweepInterval time.Duration
	// ProbeInterval is the /healthz probing period. Default 2s;
	// negative disables probing (health then changes only passively,
	// on request failures).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe request. Default 1s.
	ProbeTimeout time.Duration
	// ShardTimeout bounds one placement attempt end to end: submit plus
	// polling to a terminal state. Default 2 minutes.
	ShardTimeout time.Duration
	// SubmitTimeout bounds each individual HTTP call. Default 10s.
	SubmitTimeout time.Duration
	// PollInterval is the worker job polling period. Default 25ms.
	PollInterval time.Duration
	// RetryBudget is the total placement attempts per run or shard
	// (first try included). Default 3.
	RetryBudget int
	// RetryBase/RetryMax shape the capped exponential backoff between
	// attempts; the actual sleep is drawn uniformly from (0, min(RetryMax,
	// RetryBase·2^attempt)] — full jitter, so a fleet-wide hiccup does
	// not resynchronise every retry. Defaults 100ms / 2s.
	RetryBase time.Duration
	RetryMax  time.Duration
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.SubmitTimeout <= 0 {
		c.SubmitTimeout = 10 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
	if c.RetryBudget < 1 {
		c.RetryBudget = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.MaxInflightPerWorker == 0 {
		c.MaxInflightPerWorker = 32
	}
	if c.LeaseSweepInterval == 0 {
		c.LeaseSweepInterval = time.Second
	}
	c.Breaker = c.Breaker.withDefaults()
	return c
}

// Coordinator fronts the worker fleet. Create with New, start probing
// with Start, mount Handler on an http.Server, stop with Drain.
type Coordinator struct {
	cfg    Config
	reg    *registry
	met    *metrics
	client *http.Client
	mux    *http.ServeMux

	// ringMu guards ring, which is rebuilt from scratch on every
	// membership change. Rebuilding (not patching) keeps the minimal-
	// remap property trivially correct: the ring is a pure function of
	// the member set, and the ring tests prove that removing a member
	// only remaps the keys it owned.
	ringMu sync.RWMutex
	ring   *Ring

	// baseCtx parents every job; closing it hard-cancels all drive
	// goroutines (used only after a drain deadline).
	baseCtx    context.Context
	baseCancel context.CancelFunc

	jobs *serve.Jobs

	mu       sync.Mutex
	inflight int
	draining bool
	started  bool

	wg          sync.WaitGroup // drive goroutines
	proberDone  chan struct{}  // closed when the prober exits; nil if never started
	sweeperDone chan struct{}  // closed when the lease sweeper exits; nil if never started

	jmu    sync.Mutex
	jitter *rand.Rand
}

// New builds a Coordinator over the configured fleet.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	ring, err := buildRing(cfg.Workers)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:        cfg,
		reg:        newRegistry(cfg.Workers, cfg.Breaker),
		ring:       ring,
		client:     &http.Client{}, // per-call contexts bound every request
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       serve.NewJobs("cluster"),
		jitter:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	c.met = newClusterMetrics(c.reg.counts, func() int64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return int64(c.inflight)
	}, c.reg.states)
	c.reg.onTransition = func(url string, to breakerState) {
		c.met.breakerTransitions.Inc(url, to.String())
	}
	c.reg.onMembership = func(op string, members []string) {
		c.met.membershipChanges.Inc(op)
		c.rebuildRing(members)
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /v1/runs", c.handleSubmitRun)
	c.mux.HandleFunc("POST /v1/sweeps", c.handleSubmitSweep)
	c.mux.HandleFunc("GET /v1/runs", c.handleLookupRun)
	c.mux.HandleFunc("GET /v1/store/stats", c.handleStoreStats)
	c.jobs.Mount(c.mux.HandleFunc)
	c.mux.HandleFunc("GET /v1/cluster/workers", c.handleWorkers)
	c.mux.HandleFunc("POST /v1/cluster/workers", c.handleJoinWorker)
	c.mux.HandleFunc("DELETE /v1/cluster/workers", c.handleLeaveWorker)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	return c, nil
}

// Start launches the health prober and the lease sweeper. Idempotent.
func (c *Coordinator) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return
	}
	c.started = true
	if c.cfg.LeaseSweepInterval > 0 {
		c.sweeperDone = make(chan struct{})
		go func() {
			defer close(c.sweeperDone)
			ticker := time.NewTicker(c.cfg.LeaseSweepInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					c.reg.expireLeases(time.Now())
				case <-c.baseCtx.Done():
					return
				}
			}
		}()
	}
	if c.cfg.ProbeInterval < 0 {
		return
	}
	c.proberDone = make(chan struct{})
	go func() {
		defer close(c.proberDone)
		// Probe immediately so a worker that is down at boot is marked
		// before the first interval elapses.
		c.reg.probeAll(c.baseCtx, c.client, c.cfg.ProbeTimeout)
		ticker := time.NewTicker(c.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				c.reg.probeAll(c.baseCtx, c.client, c.cfg.ProbeTimeout)
			case <-c.baseCtx.Done():
				return
			}
		}
	}()
}

// buildRing constructs a ring over members; an empty member set yields
// an empty ring (every Order is empty and placements fail fast) rather
// than an error — a dynamic fleet may legitimately pass through zero.
func buildRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return &Ring{}, nil
	}
	return NewRing(members)
}

// rebuildRing swaps in a fresh ring over the new member set.
func (c *Coordinator) rebuildRing(members []string) {
	ring, err := buildRing(members)
	if err != nil {
		return // unreachable: the registry never produces duplicates
	}
	c.ringMu.Lock()
	c.ring = ring
	c.ringMu.Unlock()
}

// ringOrder returns the current ring's preference order for key.
func (c *Coordinator) ringOrder(key string) []string {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring.Order(key)
}

// ringMembers returns the current ring's member list.
func (c *Coordinator) ringMembers() []string {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring.Members()
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Workers exposes the fleet snapshot (for /v1/cluster/workers and tests).
func (c *Coordinator) Workers() api.WorkersView {
	views := c.reg.views(c.met.requestsFor, c.met.failuresFor)
	healthy, _ := c.reg.counts()
	return api.WorkersView{Workers: views, Healthy: healthy}
}

// Drain gracefully shuts the coordinator down: new submissions are
// refused with 503 while status, events, metrics and fleet views stay
// readable; in-flight jobs run to completion. Drain stops the
// coordinator before the workers are stopped — drain ordering is
// coordinator first, then workers — so no shard is re-routed into a
// draining fleet. If ctx expires first, remaining jobs are
// hard-cancelled and Drain returns ctx.Err after they exit.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	proberDone := c.proberDone
	sweeperDone := c.sweeperDone
	c.mu.Unlock()

	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	// Stop the prober (it only exits on baseCtx) and, on a blown
	// deadline, hard-cancel the remaining drive goroutines too.
	c.baseCancel()
	<-done
	if proberDone != nil {
		<-proberDone
	}
	if sweeperDone != nil {
		<-sweeperDone
	}
	return err
}

// Draining reports whether the coordinator has begun shutting down.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// admit registers a new job and spawns its drive goroutine, or refuses
// while draining.
func (c *Coordinator) admit(w http.ResponseWriter, kind, digest string, drive func(j *serve.Job)) {
	c.mu.Lock()
	if c.draining {
		c.mu.Unlock()
		api.WriteError(w, http.StatusServiceUnavailable, errors.New("cluster: draining, not accepting jobs"))
		return
	}
	j := c.jobs.Submit(c.baseCtx, kind, digest)
	c.inflight++
	c.wg.Add(1)
	c.mu.Unlock()

	go func() {
		defer func() {
			c.mu.Lock()
			c.inflight--
			c.mu.Unlock()
			c.wg.Done()
		}()
		drive(j)
		c.met.jobs.Inc(j.Status())
	}()

	api.WriteJSON(w, http.StatusAccepted, api.SubmitResponse{
		ID: j.ID(), Status: api.StatusQueued, Digest: digest,
	})
}

func (c *Coordinator) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req api.RunRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	// Resolve exactly as the executing worker will: the digest is the
	// routing key, so coordinator and worker must agree on it.
	_, digest, err := serve.BuildRunSpec(req)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	c.admit(w, "run", digest, func(j *serve.Job) { c.driveRun(j, req, digest) })
}

func (c *Coordinator) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if err := api.DecodeJSON(r, &req); err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	rs, err := serve.ResolveSweep(req)
	if err != nil {
		api.WriteError(w, http.StatusBadRequest, err)
		return
	}
	c.admit(w, "sweep", rs.Digest, func(j *serve.Job) { c.driveSweep(j, rs) })
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, c.Workers())
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		api.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	healthy, total := c.reg.counts()
	api.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "healthy_workers": healthy, "workers": total,
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	c.met.reg.WriteTo(w)
}

// backoff sleeps the capped-exponential, fully-jittered delay for the
// given retry attempt (1-based), or returns early when ctx ends.
func (c *Coordinator) backoff(ctx context.Context, attempt int) {
	max := c.cfg.RetryBase << (attempt - 1)
	if max > c.cfg.RetryMax || max <= 0 {
		max = c.cfg.RetryMax
	}
	c.jmu.Lock()
	d := time.Duration(c.jitter.Int63n(int64(max))) + 1
	c.jmu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
