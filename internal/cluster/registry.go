package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"dike/internal/serve/api"
)

// workerState tracks one worker's membership and health as seen by the
// coordinator. Health is a circuit breaker (see breaker.go), not the
// old one-strike bool: DownAfter consecutive failures open it, UpAfter
// consecutive successes close it again through a half-open probation,
// so a single dropped probe no longer evicts a cache-hot ring owner.
// Workers start closed (optimistic: the first probe tick corrects a
// wrong guess within one interval, and a cold coordinator can route
// immediately).
type workerState struct {
	url    string
	source string // "static" | "api" | "lease"

	mu         sync.Mutex
	brk        breaker
	lastChange time.Time // last breaker state transition
	lastProbe  time.Time // last health observation (probe or request outcome)
	lastErr    string
	inflight   int       // placements currently running on this worker
	leaseExp   time.Time // zero: permanent member (static or TTL-less join)
}

// registry is the coordinator's dynamic worker set plus live health
// state. Membership changes at runtime — join/leave via the cluster
// API, dikeserved self-registration with a heartbeat lease, TTL expiry
// — and every change invokes onMembership so the owner can rebuild the
// consistent-hash ring.
type registry struct {
	bcfg BreakerConfig
	// onTransition is the breaker metric hook (may be nil).
	onTransition func(url string, to breakerState)
	// onMembership fires after every add/remove/expire, outside r.mu,
	// with the new member list (may be nil).
	onMembership func(op string, members []string)

	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // join order, for stable views
}

func newRegistry(urls []string, bcfg BreakerConfig) *registry {
	r := &registry{
		bcfg:    bcfg.withDefaults(),
		workers: make(map[string]*workerState, len(urls)),
	}
	now := time.Now()
	for _, u := range urls {
		if _, dup := r.workers[u]; dup {
			continue // New already rejects duplicates; belt and braces
		}
		w := &workerState{url: u, source: "static", lastChange: now}
		w.brk.cfg = r.bcfg
		r.workers[u] = w
		r.order = append(r.order, u)
	}
	return r
}

// membersLocked snapshots the member URLs in join order. Caller holds r.mu.
func (r *registry) membersLocked() []string {
	return append([]string(nil), r.order...)
}

// members snapshots the member URLs in join order.
func (r *registry) members() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.membersLocked()
}

// add registers a worker (or renews an existing one's lease). ttl == 0
// makes the membership permanent; ttl > 0 starts a lease that expire
// removes unless renewed. Returns whether the worker is new.
func (r *registry) add(url string, ttl time.Duration, source string) (added bool) {
	r.mu.Lock()
	w, ok := r.workers[url]
	if ok {
		// Renewal: refresh the lease; a permanent member stays permanent.
		w.mu.Lock()
		if ttl > 0 {
			w.leaseExp = time.Now().Add(ttl)
		} else if source == "api" {
			w.leaseExp = time.Time{} // explicit TTL-less join pins membership
		}
		w.mu.Unlock()
		r.mu.Unlock()
		return false
	}
	w = &workerState{url: url, source: source, lastChange: time.Now()}
	w.brk.cfg = r.bcfg
	if ttl > 0 {
		w.leaseExp = time.Now().Add(ttl)
	}
	r.workers[url] = w
	r.order = append(r.order, url)
	members := r.membersLocked()
	r.mu.Unlock()
	if r.onMembership != nil {
		r.onMembership("join", members)
	}
	return true
}

// remove deregisters a worker. In-flight placements on it are abandoned
// by their next routability check and re-route; content-addressed
// worker jobs make the duplicate placement safe.
func (r *registry) remove(url string) bool {
	r.mu.Lock()
	if _, ok := r.workers[url]; !ok {
		r.mu.Unlock()
		return false
	}
	delete(r.workers, url)
	for i, u := range r.order {
		if u == url {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
	members := r.membersLocked()
	r.mu.Unlock()
	if r.onMembership != nil {
		r.onMembership("leave", members)
	}
	return true
}

// expireLeases removes every member whose lease has lapsed and returns
// the expired URLs.
func (r *registry) expireLeases(now time.Time) []string {
	r.mu.Lock()
	var expired []string
	for url, w := range r.workers {
		w.mu.Lock()
		lapsed := !w.leaseExp.IsZero() && now.After(w.leaseExp)
		w.mu.Unlock()
		if lapsed {
			expired = append(expired, url)
			delete(r.workers, url)
		}
	}
	if len(expired) == 0 {
		r.mu.Unlock()
		return nil
	}
	kept := r.order[:0]
	for _, u := range r.order {
		if _, ok := r.workers[u]; ok {
			kept = append(kept, u)
		}
	}
	r.order = kept
	members := r.membersLocked()
	r.mu.Unlock()
	if r.onMembership != nil {
		r.onMembership("expire", members)
	}
	return expired
}

func (r *registry) get(url string) *workerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workers[url]
}

// observe records one health observation — a probe result or a request
// outcome — and advances the worker's breaker. It also stamps
// lastProbe: the "when did we last learn anything" clock, tracked
// separately from lastChange (when the breaker last moved) so a
// long-stable worker doesn't look unprobed in the fleet view.
func (r *registry) observe(url string, ok bool, reason string) {
	w := r.get(url)
	if w == nil {
		return
	}
	now := time.Now()
	w.mu.Lock()
	w.lastProbe = now
	var to breakerState
	var changed bool
	if ok {
		_, to, changed = w.brk.onSuccess()
		w.lastErr = ""
	} else {
		_, to, changed = w.brk.onFailure(now)
		w.lastErr = reason
	}
	if changed {
		w.lastChange = now
	}
	w.mu.Unlock()
	if changed && r.onTransition != nil {
		r.onTransition(url, to)
	}
}

// routable reports whether a placement may target url right now:
// a member whose breaker is closed, or half-open (probation traffic —
// pickWorker additionally caps half-open workers at one inflight
// trial).
func (r *registry) routable(url string) bool {
	state, _, member := r.stateOf(url)
	return member && state != breakerOpen
}

// stateOf returns the worker's current breaker state and inflight
// count. An open breaker past its OpenFor window lazily transitions to
// half-open here.
func (r *registry) stateOf(url string) (state breakerState, inflight int, member bool) {
	w := r.get(url)
	if w == nil {
		return breakerOpen, 0, false
	}
	now := time.Now()
	w.mu.Lock()
	state, changed := w.brk.current(now)
	if changed {
		w.lastChange = now
	}
	inflight = w.inflight
	w.mu.Unlock()
	if changed && r.onTransition != nil {
		r.onTransition(url, state)
	}
	return state, inflight, true
}

// acquire/release bracket one placement on a worker; the inflight count
// drives load-aware spillover and the half-open single-trial cap.
func (r *registry) acquire(url string) {
	if w := r.get(url); w != nil {
		w.mu.Lock()
		w.inflight++
		w.mu.Unlock()
	}
}

func (r *registry) release(url string) {
	if w := r.get(url); w != nil {
		w.mu.Lock()
		if w.inflight > 0 {
			w.inflight--
		}
		w.mu.Unlock()
	}
}

// states samples every member's breaker position (the breakerState
// value: 0 closed, 1 half-open, 2 open) and inflight count, for the
// metrics scrape.
func (r *registry) states() (state, inflight map[string]int64) {
	members := r.members()
	state = make(map[string]int64, len(members))
	inflight = make(map[string]int64, len(members))
	for _, url := range members {
		st, inf, member := r.stateOf(url)
		if !member {
			continue
		}
		state[url] = int64(st)
		inflight[url] = int64(inf)
	}
	return state, inflight
}

// counts returns (routable, total).
func (r *registry) counts() (int, int) {
	members := r.members()
	n := 0
	for _, url := range members {
		if r.routable(url) {
			n++
		}
	}
	return n, len(members)
}

// views snapshots every worker for /v1/cluster/workers, folding in the
// coordinator's per-worker traffic counters.
func (r *registry) views(requests, failures func(url string) uint64) []api.WorkerView {
	members := r.members()
	now := time.Now()
	out := make([]api.WorkerView, 0, len(members))
	for _, url := range members {
		w := r.get(url)
		if w == nil {
			continue // removed between snapshot and read
		}
		w.mu.Lock()
		state, changed := w.brk.current(now)
		if changed {
			w.lastChange = now
		}
		v := api.WorkerView{
			URL:                 w.url,
			Healthy:             state != breakerOpen,
			State:               state.String(),
			Source:              w.source,
			ConsecutiveFailures: w.brk.fails,
			Inflight:            w.inflight,
			LastChangeMs:        now.Sub(w.lastChange).Milliseconds(),
			LastError:           w.lastErr,
		}
		if !w.lastProbe.IsZero() {
			v.LastProbeMs = now.Sub(w.lastProbe).Milliseconds()
		} else {
			v.LastProbeMs = -1 // never observed
		}
		if !w.leaseExp.IsZero() {
			v.LeaseExpiresMs = w.leaseExp.Sub(now).Milliseconds()
		}
		w.mu.Unlock()
		if changed && r.onTransition != nil {
			r.onTransition(url, state)
		}
		v.Requests = requests(w.url)
		v.Failures = failures(w.url)
		out = append(out, v)
	}
	return out
}

// probeTimeout bounds one /healthz probe.
const probeTimeout = time.Second

// probeAll probes every member's /healthz once, in parallel, and feeds
// the outcomes to the breakers: 200 is a success, anything else
// (including a draining worker's 503) a failure. Open workers are
// probed too — successful probes are how they earn their way back to
// closed without waiting out OpenFor.
func (r *registry) probeAll(ctx context.Context, client *http.Client) {
	members := r.members()
	var wg sync.WaitGroup
	for _, url := range members {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, probeTimeout)
			defer cancel()
			code, err := (&api.Client{Base: url, HTTP: client}).Do(pctx, http.MethodGet, "/healthz", nil, nil)
			switch code {
			case http.StatusOK:
				r.observe(url, true, "")
			case 0:
				r.observe(url, false, "probe: "+err.Error())
			default:
				r.observe(url, false, fmt.Sprintf("probe: %d %s", code, http.StatusText(code)))
			}
		}(url)
	}
	wg.Wait()
}
