package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"dike/internal/harness"
	"dike/internal/serve"
	"dike/internal/serve/api"
)

// errWorkerDown reports a placement abandoned because the registry
// marked its worker unhealthy mid-flight; the shard is re-routed.
var errWorkerDown = errors.New("cluster: worker marked down mid-job")

// errNoHealthyWorkers reports that every configured worker is down.
var errNoHealthyWorkers = errors.New("cluster: no healthy workers")

// retryableError marks a placement failure worth trying on another
// worker (transport error, 429/5xx, mark-down). Terminal worker answers
// — a job that ran and failed, or a 4xx — are not retried: simulations
// are deterministic, so the same spec fails the same way everywhere.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func retryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re) || errors.Is(err, errWorkerDown)
}

// placement is a successful worker round-trip: the terminal job view
// and which worker produced it.
type placement struct {
	view   api.JobView
	worker string
}

// callWorker submits body to worker at path and polls the resulting job
// to a terminal state. It returns a retryableError for failures that
// merit another worker, and abandons the poll (re-routable) if the
// worker's breaker opens or it leaves the fleet mid-flight. Whenever a
// placement is abandoned after a successful submit, the job keeps
// running on the worker — so a best-effort DELETE is fired at it,
// otherwise the orphan burns a worker slot and can collide with the
// re-routed duplicate.
func (c *Coordinator) callWorker(ctx context.Context, worker, path string, body []byte) (api.JobView, error) {
	sub, err := c.postSubmit(ctx, worker, path, body)
	if err != nil {
		return api.JobView{}, err
	}
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		view, err := c.getJob(ctx, worker, sub.ID)
		if err != nil {
			c.cancelAbandoned(worker, sub.ID)
			return api.JobView{}, err
		}
		if api.Terminal(view.Status) {
			return view, nil
		}
		if !c.reg.routable(worker) {
			c.cancelAbandoned(worker, sub.ID)
			return api.JobView{}, errWorkerDown
		}
		select {
		case <-ticker.C:
		case <-ctx.Done():
			c.cancelAbandoned(worker, sub.ID)
			return api.JobView{}, &retryableError{fmt.Errorf("cluster: placement on %s: %w", worker, ctx.Err())}
		}
	}
}

// cancelAbandoned fires a best-effort DELETE /v1/runs/{id} at a worker
// whose placement the coordinator is giving up on. Detached from the
// placement's context (which is typically already dead) and strictly
// fire-and-forget: the worker may itself be gone, and that's fine —
// content-addressed jobs make the re-routed duplicate safe either way.
func (c *Coordinator) cancelAbandoned(worker, id string) {
	c.met.abandonedCancels.Inc()
	go func() {
		cctx, cancel := context.WithTimeout(context.Background(), c.cfg.SubmitTimeout)
		defer cancel()
		c.on(worker).Do(cctx, http.MethodDelete, "/v1/runs/"+id, nil, nil)
	}()
}

// on returns a client for one worker.
func (c *Coordinator) on(worker string) *api.Client {
	return &api.Client{Base: worker, HTTP: c.client}
}

// postSubmit performs the submission POST.
func (c *Coordinator) postSubmit(ctx context.Context, worker, path string, body []byte) (api.SubmitResponse, error) {
	sctx, cancel := context.WithTimeout(ctx, c.cfg.SubmitTimeout)
	defer cancel()
	sub, code, err := c.on(worker).Submit(sctx, path, body)
	var se *api.StatusError
	switch {
	case code == 0:
		c.reg.observe(worker, false, err.Error())
		return api.SubmitResponse{}, &retryableError{fmt.Errorf("cluster: submit to %s: %w", worker, err)}
	case !errors.As(err, &se):
		// 2xx: the worker answered, even if with a body we cannot use.
		c.reg.observe(worker, true, "")
		if err != nil {
			return api.SubmitResponse{}, &retryableError{fmt.Errorf("cluster: bad submit response from %s: %v", worker, err)}
		}
		return sub, nil
	case code == http.StatusTooManyRequests:
		// Backpressure: the worker is healthy but full. Retry (after
		// backoff) without counting a breaker failure.
		return api.SubmitResponse{}, &retryableError{fmt.Errorf("cluster: %s backpressured: %s", worker, se.Body)}
	case code >= 500:
		// 503 draining or another server-side failure: a breaker failure
		// (DownAfter of them in a row open the breaker).
		c.reg.observe(worker, false, se.Status)
		return api.SubmitResponse{}, &retryableError{fmt.Errorf("cluster: submit to %s: %s", worker, se.Status)}
	default:
		// 4xx: the request itself is bad; every worker would refuse it.
		return api.SubmitResponse{}, fmt.Errorf("cluster: %s rejected submission: %s: %s", worker, se.Status, se.Body)
	}
}

// getJob fetches one job view from a worker.
func (c *Coordinator) getJob(ctx context.Context, worker, id string) (api.JobView, error) {
	gctx, cancel := context.WithTimeout(ctx, c.cfg.SubmitTimeout)
	defer cancel()
	view, code, err := c.on(worker).Job(gctx, id)
	var se *api.StatusError
	switch {
	case code == 0:
		c.reg.observe(worker, false, err.Error())
		return api.JobView{}, &retryableError{fmt.Errorf("cluster: poll %s: %w", worker, err)}
	case errors.As(err, &se):
		c.reg.observe(worker, false, "poll: "+se.Status)
		return api.JobView{}, &retryableError{fmt.Errorf("cluster: poll %s: %s", worker, se.Status)}
	}
	c.reg.observe(worker, true, "")
	if err != nil {
		return api.JobView{}, &retryableError{fmt.Errorf("cluster: poll %s: %w", worker, err)}
	}
	return view, nil
}

// place runs the full retry loop for one unit of work (a run or a
// shard): walk routable workers in the ring's preference order for key,
// with capped exponential backoff plus jitter between attempts, until
// the retry budget is spent. The attempted set is tracked per placement
// — the routable set is recomputed each try (workers churn mid-
// placement), so indexing it by try number could retry a failed worker
// while skipping an untried one; preferring never-attempted workers
// cannot. Every failed attempt is recorded with its worker so the
// caller can attribute the failure.
func (c *Coordinator) place(ctx context.Context, pref []string, path string, body []byte) (placement, error) {
	var attempts []string
	attempted := make(map[string]int, len(pref))
	for try := 0; try < c.cfg.RetryBudget; try++ {
		if err := ctx.Err(); err != nil {
			return placement{}, err
		}
		if try > 0 {
			c.met.retries.Inc()
			c.backoff(ctx, try)
		}
		worker, ok := c.pickWorker(pref, attempted)
		if !ok {
			attempts = append(attempts, fmt.Sprintf("attempt %d: %v", try+1, errNoHealthyWorkers))
			// Nothing to route to: fail fast rather than spin out the
			// whole budget against an empty fleet.
			break
		}
		attempted[worker]++
		c.met.workerRequests.Inc(worker)
		if len(pref) > 0 && worker == pref[0] {
			c.met.ringPrimary.Inc()
		} else {
			c.met.ringRerouted.Inc()
		}
		c.reg.acquire(worker)
		actx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		start := time.Now()
		view, err := c.callWorker(actx, worker, path, body)
		cancel()
		c.reg.release(worker)
		if err == nil {
			c.met.shardLatency.Observe(time.Since(start).Seconds())
			return placement{view: view, worker: worker}, nil
		}
		c.met.workerFailures.Inc(worker)
		attempts = append(attempts, fmt.Sprintf("attempt %d on %s: %v", try+1, worker, err))
		if !retryable(err) {
			break
		}
	}
	if err := ctx.Err(); err != nil {
		return placement{}, err
	}
	return placement{}, errors.New(strings.Join(attempts, "; "))
}

// pickWorker selects the next worker for a placement: the first
// routable worker in preference order that has not been attempted yet,
// with load-aware spillover (a worker at or past MaxInflightPerWorker
// is skipped while a less-loaded candidate exists, and a half-open
// worker admits only a single trial at a time). When every routable
// worker has already been attempted, the least-attempted one is reused
// — a 429-backpressured single-worker fleet must still be retryable.
func (c *Coordinator) pickWorker(pref []string, attempted map[string]int) (string, bool) {
	type candidate struct {
		url      string
		inflight int
		tries    int
	}
	var routable []candidate
	for _, w := range pref {
		state, inflight, member := c.reg.stateOf(w)
		if !member || state == breakerOpen {
			continue
		}
		if state == breakerHalfOpen && inflight > 0 {
			continue // probation admits one trial at a time
		}
		routable = append(routable, candidate{url: w, inflight: inflight, tries: attempted[w]})
	}
	if len(routable) == 0 {
		return "", false
	}
	// Fresh workers first, in preference order, spilling over saturated
	// ones while an unsaturated fresh candidate exists.
	max := c.cfg.MaxInflightPerWorker
	spilled := false
	for _, cand := range routable {
		if cand.tries > 0 {
			continue
		}
		if max > 0 && cand.inflight >= max {
			spilled = true
			continue
		}
		if spilled {
			c.met.spillovers.Inc()
		}
		return cand.url, true
	}
	// Everyone fresh was saturated, or everyone has been attempted:
	// take the least-attempted, least-loaded candidate (preference
	// order breaks ties via stable selection).
	best := routable[0]
	for _, cand := range routable[1:] {
		if cand.tries < best.tries || (cand.tries == best.tries && cand.inflight < best.inflight) {
			best = cand
		}
	}
	return best.url, true
}

// driveRun executes one run job: route by digest, place with retries,
// adopt the worker's terminal state. body is the request as the memo
// encoded it.
func (c *Coordinator) driveRun(j *serve.Job, body []byte, digest string) {
	j.Start()
	pl, err := c.place(j.Context(), c.ringOrder(digest), "/v1/runs", body)
	if err != nil {
		j.Fail(err)
		return
	}
	j.Finish(pl.view.Status, pl.view.Result, pl.view.Error)
}

// shardOutcome is one shard's fate inside a sweep fan-out.
type shardOutcome struct {
	indices []int
	points  []api.SweepPoint
	err     error
}

// driveSweep fans a sweep out across the fleet and merges the shards
// deterministically. Each grid point is routed by its own RunSpec
// digest — identical points always prefer the same worker, keeping the
// fleet's caches hot — and points sharing a preferred worker are
// batched into one shard job. Shards that fail re-route to the next
// worker in the ring inside place; whatever still fails after the
// retry budget produces a partial-result error naming every failed
// shard and the attempts made for it.
func (c *Coordinator) driveSweep(j *serve.Job, rs serve.ResolvedSweep) {
	j.Start()
	indices, err := harness.ShardIndices(rs.Indices, len(rs.Points))
	if err != nil {
		j.Finish(api.StatusFailed, nil, "cluster: "+err.Error())
		return
	}

	// Group grid points by the first routable worker in each point's
	// ring preference (falling back to the owner when the whole fleet
	// is down — the placement will then fail fast with attribution).
	prefs := make(map[int][]string, len(indices))
	groups := make(map[string][]int)
	for _, idx := range indices {
		pref := c.ringOrder(rs.Points[idx])
		prefs[idx] = pref
		owner := ""
		if len(pref) > 0 {
			owner = pref[0]
		}
		if w, ok := c.pickWorker(pref, nil); ok {
			owner = w
		}
		groups[owner] = append(groups[owner], idx)
	}

	outcomes := make(chan shardOutcome, len(groups))
	var wg sync.WaitGroup
	for worker, shard := range groups {
		wg.Add(1)
		go func(worker string, shard []int) {
			defer wg.Done()
			outcomes <- c.driveShard(j.Context(), rs, prefs[shard[0]], shard)
		}(worker, shard)
	}
	wg.Wait()
	close(outcomes)

	// Deterministic, strict merge: points land by grid index, never by
	// arrival order; a point delivered twice fails its shard, and a gap
	// fails the sweep.
	merge := harness.NewGridMerge[api.SweepPoint](indices)
	var failed []shardOutcome
	for o := range outcomes {
		if o.err != nil {
			failed = append(failed, o)
			continue
		}
		for i, idx := range o.indices {
			if err := merge.Put(idx, o.points[i]); err != nil {
				o.err = err
				failed = append(failed, o)
				break
			}
		}
	}
	if err := j.Context().Err(); err != nil {
		j.Fail(err)
		return
	}
	if len(failed) > 0 {
		sort.Slice(failed, func(a, b int) bool { return failed[a].indices[0] < failed[b].indices[0] })
		parts := make([]string, 0, len(failed))
		for _, o := range failed {
			parts = append(parts, fmt.Sprintf("shard %v: %v", o.indices, o.err))
		}
		j.Finish(api.StatusFailed, nil, fmt.Sprintf(
			"cluster: sweep incomplete: %d/%d grid points merged; %s",
			merge.Len(), len(indices), strings.Join(parts, "; ")))
		return
	}
	grid, err := merge.Grid()
	if err != nil {
		j.Finish(api.StatusFailed, nil, "cluster: "+err.Error())
		return
	}
	result, err := json.Marshal(api.SweepResult{Workload: rs.Workload.Name, Shard: rs.Indices, Grid: grid})
	if err != nil {
		j.Finish(api.StatusFailed, nil, "cluster: marshal sweep result: "+err.Error())
		return
	}
	j.Finish(api.StatusDone, result, "")
}

// driveShard places one shard (a set of grid indices) and decodes its
// points.
func (c *Coordinator) driveShard(ctx context.Context, rs serve.ResolvedSweep, pref []string, shard []int) shardOutcome {
	o := shardOutcome{indices: shard}
	seed := rs.Seed
	body, err := json.Marshal(api.SweepRequest{
		Workload: rs.WorkloadNum, Seed: &seed, Scale: rs.Scale, Shard: shard,
	})
	if err != nil {
		o.err = err
		return o
	}
	pl, err := c.place(ctx, pref, "/v1/sweeps", body)
	if err != nil {
		o.err = err
		return o
	}
	if pl.view.Status != api.StatusDone {
		o.err = fmt.Errorf("worker %s: job %s: %s", pl.worker, pl.view.Status, pl.view.Error)
		return o
	}
	var res api.SweepResult
	if err := json.Unmarshal(pl.view.Result, &res); err != nil {
		o.err = fmt.Errorf("worker %s: decode shard result: %w", pl.worker, err)
		return o
	}
	if len(res.Grid) != len(shard) {
		o.err = fmt.Errorf("worker %s: shard returned %d points for %d indices", pl.worker, len(res.Grid), len(shard))
		return o
	}
	o.points = res.Grid
	return o
}
