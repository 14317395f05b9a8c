package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"dike/internal/fault"
	"dike/internal/harness"
	"dike/internal/machine"
	"dike/internal/platform"
	"dike/internal/power"
	"dike/internal/serve/api"
	"dike/internal/sim"
	"dike/internal/tournament"
	"dike/internal/traffic"
	"dike/internal/workload"
)

// The wire format lives in internal/serve/api so the cluster
// coordinator and a single-node worker share one definition of every
// body that crosses the network; these aliases keep the serve package's
// own surface unchanged.
type (
	RunRequest       = api.RunRequest
	GeneratorRequest = api.GeneratorRequest
	FaultRequest     = api.FaultRequest
	SweepRequest     = api.SweepRequest
	RunResult        = api.RunResult
	BenchResult      = api.BenchResult
	SweepResult      = api.SweepResult
	SweepPoint       = api.SweepPoint
	JobView          = api.JobView
	Event            = api.Event
)

// Job statuses, in lifecycle order.
const (
	StatusQueued   = api.StatusQueued
	StatusRunning  = api.StatusRunning
	StatusDone     = api.StatusDone
	StatusFailed   = api.StatusFailed
	StatusCanceled = api.StatusCanceled
)

// Job is one unit of work on a node — a run or a sweep — from
// admission through its terminal state. The server and the cluster
// coordinator share it, so a job is queued, run, finished and shown the
// same way whichever of them owns it.
type Job struct {
	id     string
	kind   string // "run" | "sweep"
	digest string
	// exec performs the work when a worker picks the job up. It, meta
	// and deadline are unset on a coordinator job, whose drive goroutine
	// does the work.
	exec func(ctx context.Context) (json.RawMessage, error)
	// meta is the decoded request re-encoded as JSON, persisted alongside
	// the result in the durable store so offline tools can see what a
	// digest means. For a run its SHA-256 is also the RunMemo key.
	meta json.RawMessage
	// deadline bounds wall-clock execution.
	deadline time.Duration
	// ctx/cancel cover the job's whole life, so DELETE cancels it
	// whether it is still queued or already running.
	ctx    context.Context
	cancel context.CancelFunc
	events *broker
	// table is the job table that retires the job once it finishes.
	table *Jobs

	mu        sync.Mutex
	status    string
	errMsg    string
	result    json.RawMessage
	cached    bool
	stored    bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// ID returns the job's id.
func (j *Job) ID() string { return j.id }

// Context returns the job's lifetime context; DELETE cancels it.
func (j *Job) Context() context.Context { return j.ctx }

// Status returns the job's current status.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Start moves a queued job to running.
func (j *Job) Start() {
	j.mu.Lock()
	j.status = StatusRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// Finish moves the job to a terminal state exactly once: it records the
// outcome, cancels the job's context and closes its event stream with
// the terminal event. Later calls do nothing.
func (j *Job) Finish(status string, result json.RawMessage, errMsg string) {
	j.mu.Lock()
	if api.Terminal(j.status) {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	if j.finished.IsZero() { // a cache hit stamps its zero-length run beforehand
		j.finished = time.Now()
	}
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.mu.Unlock()
	j.cancel()
	j.events.close(Event{Status: status, Error: errMsg})
	j.table.retire(j.id)
}

// Fail finishes the job from an execution error: cancellation becomes
// canceled, an expired deadline fails with "deadline exceeded", and any
// other error fails with its text.
func (j *Job) Fail(err error) {
	switch {
	case errors.Is(err, context.Canceled):
		j.Finish(StatusCanceled, nil, "")
	case errors.Is(err, context.DeadlineExceeded):
		j.Finish(StatusFailed, nil, "deadline exceeded")
	default:
		j.Finish(StatusFailed, nil, err.Error())
	}
}

// view snapshots the job for the API.
func (j *Job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:     j.id,
		Kind:   j.kind,
		Status: j.status,
		Digest: j.digest,
		Cached: j.cached,
		Stored: j.stored,
		Error:  j.errMsg,
		Result: j.result,
	}
	if !j.started.IsZero() {
		v.QueueMs = j.started.Sub(j.submitted).Milliseconds()
		if !j.finished.IsZero() {
			v.RunMs = j.finished.Sub(j.started).Milliseconds()
		}
	}
	return v
}

// maxFinishedJobs bounds how many terminal jobs a table keeps: past it,
// each newly finished job evicts the one that finished longest ago.
// Queued and running jobs are never evicted.
const maxFinishedJobs = 1024

// Jobs is a node's id-keyed job table together with the routes that
// read, cancel and stream its jobs.
type Jobs struct {
	notFound error

	mu   sync.Mutex
	seq  int
	byID map[string]*Job
	// finished is a ring of the ids of the last maxFinishedJobs jobs to
	// finish, in finishing order; next is the slot the next one takes,
	// which holds the oldest-finished id once the ring is full.
	finished [maxFinishedJobs]string
	next     int
}

// NewJobs returns an empty table; component ("serve", "cluster")
// prefixes its not-found error.
func NewJobs(component string) *Jobs {
	return &Jobs{notFound: errors.New(component + ": no such job"), byID: make(map[string]*Job)}
}

// retire records that job id finished and evicts the oldest-finished
// job once more than maxFinishedJobs have, so a long-lived daemon holds
// a bounded number of results and event histories. An evicted id
// answers 404 like one never issued.
func (t *Jobs) retire(id string) {
	t.mu.Lock()
	if old := t.finished[t.next]; old != "" {
		delete(t.byID, old)
	}
	t.finished[t.next] = id
	t.next = (t.next + 1) % maxFinishedJobs
	t.mu.Unlock()
}

// Submit opens a queued job of kind for digest under parent and makes
// it visible to the routes.
func (t *Jobs) Submit(parent context.Context, kind, digest string) *Job {
	j := &Job{kind: kind, digest: digest}
	t.open(parent, j)
	t.add(j)
	return j
}

// open gives j the next id and starts its life as a queued job whose
// context derives from parent. The routes do not see it until add.
func (t *Jobs) open(parent context.Context, j *Job) {
	t.mu.Lock()
	t.seq++
	j.id = fmt.Sprintf("%s-%06d-%.8s", j.kind, t.seq, j.digest)
	t.mu.Unlock()
	j.status = StatusQueued
	j.submitted = time.Now()
	j.events = newBroker()
	j.ctx, j.cancel = context.WithCancel(parent)
	j.table = t
}

func (t *Jobs) add(j *Job) {
	t.mu.Lock()
	t.byID[j.id] = j
	t.mu.Unlock()
}

func (t *Jobs) lookup(id string) *Job {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// Mount registers GET and DELETE /v1/runs/{id} and GET
// /v1/runs/{id}/events through route: a mux's HandleFunc, or a wrapper
// that instruments it.
func (t *Jobs) Mount(route func(pattern string, h func(http.ResponseWriter, *http.Request))) {
	route("GET /v1/runs/{id}", t.handleGet)
	route("DELETE /v1/runs/{id}", t.handleCancel)
	route("GET /v1/runs/{id}/events", t.handleEvents)
}

func (t *Jobs) handleGet(w http.ResponseWriter, r *http.Request) {
	job := t.lookup(r.PathValue("id"))
	if job == nil {
		api.WriteError(w, http.StatusNotFound, t.notFound)
		return
	}
	api.WriteJSON(w, http.StatusOK, job.view())
}

func (t *Jobs) handleCancel(w http.ResponseWriter, r *http.Request) {
	job := t.lookup(r.PathValue("id"))
	if job == nil {
		api.WriteError(w, http.StatusNotFound, t.notFound)
		return
	}
	// Queued jobs are cancelled when their worker picks them up; running
	// jobs stop within one simulated quantum. A job another submitter
	// was deduped onto is cancelled for them too — DELETE is on the job,
	// not the submission.
	job.cancel()
	api.WriteJSON(w, http.StatusAccepted, job.view())
}

// handleEvents streams the job's events as NDJSON: the history so far,
// then live events until the terminal one. A coordinator job publishes
// only its terminal event — per-quantum events stay on the worker that
// simulates.
func (t *Jobs) handleEvents(w http.ResponseWriter, r *http.Request) {
	job := t.lookup(r.PathValue("id"))
	if job == nil {
		api.WriteError(w, http.StatusNotFound, t.notFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	replay, live, cancel := job.events.subscribe()
	defer cancel()
	for _, ev := range replay {
		if enc.Encode(ev) != nil {
			return
		}
	}
	rc.Flush()
	if live == nil {
		return // stream already complete
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if enc.Encode(ev) != nil {
				return
			}
			rc.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// BuildRunSpec translates an API run request into a validated harness
// spec plus its digest. The OnProgress hook is attached later, per job.
// The cluster coordinator calls it too: routing a run by digest requires
// resolving the request exactly the way the worker that executes it
// will.
func BuildRunSpec(req RunRequest) (harness.RunSpec, string, error) {
	var spec harness.RunSpec
	var err error
	if len(req.Traffic) > 0 {
		// An open-loop request: the traffic spec replaces every workload
		// source, and Scale does not apply (the arrival horizon sizes
		// the run).
		if spec.Traffic, err = traffic.ParseSpec(req.Traffic); err != nil {
			return harness.RunSpec{}, "", err
		}
		if req.Scale != 0 {
			return harness.RunSpec{}, "", fmt.Errorf("serve: scale does not apply to traffic runs")
		}
	}
	if len(req.Meta) > 0 {
		// Only the meta policy consults a tournament config, and the
		// harness leaves it out of every other policy's content
		// address, so it is rejected rather than ignored.
		if req.Policy != harness.PolicyMeta {
			return harness.RunSpec{}, "", fmt.Errorf("serve: meta config requires policy %q (got %q)", harness.PolicyMeta, req.Policy)
		}
		if spec.Meta, err = decodeConfig[tournament.Config]("meta", req.Meta); err != nil {
			return harness.RunSpec{}, "", err
		}
	}
	if len(req.Power) > 0 {
		if spec.Power, err = decodeConfig[power.Config]("power", req.Power); err != nil {
			return harness.RunSpec{}, "", err
		}
	}
	if spec.Traffic == nil {
		if spec.Workload, err = requestWorkload(req); err != nil {
			return harness.RunSpec{}, "", err
		}
		spec.Scale = req.Scale
		if spec.Scale == 0 {
			spec.Scale = 0.1
		}
		if !(spec.Scale > 0 && spec.Scale <= 1) {
			return harness.RunSpec{}, "", fmt.Errorf("serve: scale %g outside (0, 1]", req.Scale)
		}
	}
	spec.Policy = req.Policy
	spec.Seed = 42
	if req.Seed != nil {
		spec.Seed = *req.Seed
	}
	spec.MaxTime = sim.Time(req.MaxTimeMs)
	if len(req.Machine) > 0 {
		ms, err := platform.ParseMachineSpec(req.Machine)
		if err != nil {
			return harness.RunSpec{}, "", err
		}
		mcfg := machine.DefaultConfig()
		mcfg.Spec = ms
		spec.MachineConfig = &mcfg
	}
	if req.Faults != nil {
		classes, err := fault.ParseClasses(req.Faults.Classes)
		if err != nil {
			return harness.RunSpec{}, "", err
		}
		if classes != 0 {
			fc := fault.DefaultConfig()
			fc.Classes = classes
			if req.Faults.Rate != 0 {
				fc.Rate = req.Faults.Rate
			}
			if req.Faults.Seed != 0 {
				fc.Seed = req.Faults.Seed
			}
			spec.Faults = &fc
		}
	}
	digest, err := spec.Digest() // also validates the policy and every config
	if err != nil {
		return harness.RunSpec{}, "", err
	}
	return spec, digest, nil
}

// requestWorkload resolves a closed-loop request's workload: a
// generated mix, an explicit app list, or a Table 2 row (default 1).
func requestWorkload(req RunRequest) (*workload.Workload, error) {
	switch {
	case req.Generator != nil:
		g := req.Generator
		spec := workload.GeneratorSpec{
			Benchmarks:    g.Benchmarks,
			ThreadsPer:    g.ThreadsPer,
			MemoryApps:    -1,
			IncludeKmeans: g.IncludeKmeans,
		}
		if g.MemoryApps != nil {
			spec.MemoryApps = *g.MemoryApps
		}
		seed := g.Seed
		if seed == 0 {
			seed = 1
		}
		spec.Name = fmt.Sprintf("gen-%d", seed)
		return workload.Generate(spec, sim.NewRNG(seed))
	case len(req.Apps) > 0:
		w := &workload.Workload{Name: "custom:" + strings.Join(req.Apps, ",")}
		for _, app := range req.Apps {
			p, err := workload.LookupProfile(strings.TrimSpace(app))
			if err != nil {
				return nil, err
			}
			w.Benchmarks = append(w.Benchmarks, workload.Benchmark{Profile: p, Threads: workload.ThreadsPerBenchmark})
		}
		return w, nil
	default:
		n := req.Workload
		if n == 0 {
			n = 1
		}
		return workload.Table2(n)
	}
}

// decodeConfig decodes a request's raw config field. Unknown fields
// are rejected: a typo'd key would otherwise run the defaults at a
// different digest than the caller expects.
func decodeConfig[T any](name string, raw json.RawMessage) (*T, error) {
	cfg := new(T)
	if err := api.Decode(bytes.NewReader(raw), cfg); err != nil {
		return nil, fmt.Errorf("serve: %s config: %w", name, err)
	}
	return cfg, nil
}

// runResult converts a finished harness run into the API result.
func runResult(out *harness.RunOutput) RunResult {
	r := out.Result
	res := RunResult{
		Workload:      r.Workload,
		Type:          r.Type.String(),
		Policy:        r.Policy,
		Fairness:      r.Fairness,
		MakespanMs:    r.Makespan,
		AvgTimeMs:     r.AvgTime,
		Swaps:         r.Swaps,
		Migrations:    r.Migrations,
		CompletedAtMs: out.CompletedAt.Millis(),
		PredErrMin:    out.PredMin,
		PredErrAvg:    out.PredAvg,
		PredErrMax:    out.PredMax,
	}
	if len(out.History) > 0 {
		sum := sha256.Sum256([]byte(harness.Digest(r.Policy, out.History)))
		res.DecisionSHA256 = hex.EncodeToString(sum[:])
	}
	if out.FaultStats != nil {
		res.Faults = out.FaultStats.Total()
	}
	for _, b := range r.Benches {
		res.Benches = append(res.Benches, BenchResult{
			Name: b.Name, Extra: b.Extra, TimeMs: b.Time, CV: b.CV,
		})
	}
	if tr := out.Traffic; tr != nil {
		res.Traffic = trafficResult(tr)
	}
	if ms := out.MetaStats; ms != nil {
		res.MetaSwitches = ms.Switches
		res.MetaFinalPolicy = ms.FinalPolicy
	}
	return res
}

// trafficResult converts a traffic.Result into its wire mirror.
func trafficResult(tr *traffic.Result) *api.TrafficResult {
	res := &api.TrafficResult{
		Name: tr.Name, Load: tr.Load,
		Arrivals: tr.Arrivals, Admitted: tr.Admitted, Rejected: tr.Rejected,
		Completed: tr.Completed, Killed: tr.Killed,
		FairnessJain: tr.FairnessJain, FairnessMinMax: tr.FairnessMinMax,
		DrainedAtMs: tr.DrainedAtMs,
	}
	for _, c := range tr.Classes {
		res.Classes = append(res.Classes, api.TrafficClassResult{
			Name: c.Name, SLOMs: c.SLOMs,
			Arrivals: c.Arrivals, Admitted: c.Admitted, Rejected: c.Rejected,
			Completed: c.Completed, Killed: c.Killed,
			MeanMs: c.MeanMs, P50Ms: c.P50Ms, P95Ms: c.P95Ms, P99Ms: c.P99Ms, MaxMs: c.MaxMs,
			ViolationRate: c.ViolationRate, Slowdown: c.Slowdown,
		})
	}
	return res
}
