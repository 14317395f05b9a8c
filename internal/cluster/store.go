package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sync"

	"dike/internal/serve/api"
)

// This file is the coordinator's view of the fleet's durable run
// stores: a content-addressed lookup that walks the ring, and a stats
// endpoint that aggregates every worker's store counters.

// handleLookupRun is the coordinator's GET /v1/runs?digest=… — it walks
// the digest's ring preference order (the same order placements use, so
// the owner is asked first) and relays the first worker that has the
// result. Re-routed placements can land a digest off its owner, which
// is why the walk covers every healthy worker before giving up.
func (c *Coordinator) handleLookupRun(w http.ResponseWriter, r *http.Request) {
	digest := r.URL.Query().Get("digest")
	if digest == "" {
		api.WriteError(w, http.StatusBadRequest, errors.New("cluster: lookup requires ?digest="))
		return
	}
	for _, worker := range c.ringOrder(digest) {
		if !c.reg.routable(worker) {
			continue
		}
		res, err := c.lookupOn(r.Context(), worker, digest)
		if err != nil {
			continue // down or 404 there: try the next worker
		}
		api.WriteJSON(w, http.StatusOK, res)
		return
	}
	api.WriteError(w, http.StatusNotFound, fmt.Errorf("cluster: no worker holds digest %.12s…", digest))
}

// lookupOn asks one worker for a stored result. Only a transport
// error counts against the worker's breaker: a miss, backpressure or a
// bad body just moves the walk on.
func (c *Coordinator) lookupOn(ctx context.Context, worker, digest string) (api.StoredResult, error) {
	gctx, cancel := context.WithTimeout(ctx, c.cfg.SubmitTimeout)
	defer cancel()
	var res api.StoredResult
	code, err := c.on(worker).Do(gctx, http.MethodGet, "/v1/runs?digest="+url.QueryEscape(digest), nil, &res)
	if code == 0 {
		c.reg.observe(worker, false, err.Error())
	}
	return res, err
}

// WorkerStoreStats is one worker's entry in the coordinator's
// GET /v1/store/stats aggregation.
type WorkerStoreStats struct {
	Worker string `json:"worker"`
	// Error is set when the worker could not be queried; Stats is then
	// absent.
	Error string             `json:"error,omitempty"`
	Store api.StoreStatsView `json:"store"`
}

// ClusterStoreStats is the body of the coordinator's GET /v1/store/stats.
type ClusterStoreStats struct {
	Workers []WorkerStoreStats `json:"workers"`
	// Enabled counts workers that run with a durable store.
	Enabled int `json:"enabled"`
}

// handleStoreStats is GET /v1/store/stats on the coordinator: the
// fleet's store counters, one entry per configured worker, queried
// concurrently.
func (c *Coordinator) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	workers := c.ringMembers()
	out := make([]WorkerStoreStats, len(workers))
	var wg sync.WaitGroup
	for i, worker := range workers {
		wg.Add(1)
		go func(i int, worker string) {
			defer wg.Done()
			out[i] = c.storeStatsOn(r.Context(), worker)
		}(i, worker)
	}
	wg.Wait()
	agg := ClusterStoreStats{Workers: out}
	for _, ws := range out {
		if ws.Error == "" && ws.Store.Enabled {
			agg.Enabled++
		}
	}
	api.WriteJSON(w, http.StatusOK, agg)
}

// storeStatsOn queries one worker's /v1/store/stats.
func (c *Coordinator) storeStatsOn(ctx context.Context, worker string) WorkerStoreStats {
	ws := WorkerStoreStats{Worker: worker}
	gctx, cancel := context.WithTimeout(ctx, c.cfg.SubmitTimeout)
	defer cancel()
	_, err := c.on(worker).Do(gctx, http.MethodGet, "/v1/store/stats", nil, &ws.Store)
	var se *api.StatusError
	switch {
	case errors.As(err, &se):
		ws.Error = se.Status
	case err != nil:
		ws.Error = err.Error()
	}
	return ws
}
