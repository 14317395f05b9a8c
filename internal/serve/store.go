package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"dike/internal/harness"
	"dike/internal/serve/api"
)

// This file is the serve layer's storage tier: the durable run store
// sits below the in-memory LRU as a write-through level (LRU miss →
// store hit → repopulate LRU; every successful result is appended to
// the log in finish), plus the sweep executor, whose per-point store
// records make interrupted sweeps resumable across a process kill.

// storeLookup consults the durable tier after an LRU miss. A hit
// repopulates the LRU so subsequent identical submissions stay
// in-memory. Hit/miss accounting lives in the store itself
// (dike_store_hits_total / dike_store_misses_total).
func (s *Server) storeLookup(digest string) (json.RawMessage, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok := s.store.Get(digest)
	if !ok {
		return nil, false
	}
	s.cache.put(digest, payload)
	return payload, true
}

// storePut write-throughs a finished result. Store errors must never
// fail the job — the result is correct, only its durability is
// degraded — so they are counted and the job completes normally.
func (s *Server) storePut(digest string, meta, result []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(digest, meta, result); err != nil {
		s.metrics.storeErrors.Inc()
	}
}

// sweepExec returns the executor of a sweep or shard job. It drives the
// grid point by point through s.simulate, so every simulated point is
// counted, and assembles the result with harness.GridMerge. With a
// durable store configured, runGridPoint content-addresses each grid
// point's result into the store under its own RunSpec digest as soon
// as it is simulated, and looks every point up there first. That one
// mechanism makes a later run or sweep sharing a point (on this node
// or, via dikecoord re-routes, any node writing to this store) never
// recompute it, and makes a resubmission after a kill -9 simulate only
// the points that were still in flight or not yet started.
//
// The assembled result is byte-identical to harness.Sweep: points land
// in grid-index order and every number is either the same float64 the
// harness would produce or its exact JSON round-trip.
func (s *Server) sweepExec(rs ResolvedSweep) func(ctx context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		specs, meta := harness.SweepGrid(rs.Workload, rs.Options(s.cfg.SweepWorkers))
		indices, err := harness.ShardIndices(rs.Indices, len(specs))
		if err != nil {
			return nil, err
		}
		merge := harness.NewGridMerge[api.SweepPoint](indices)

		// Execute the points with the configured intra-sweep concurrency.
		pctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var mu sync.Mutex // guards merge
		sem := make(chan struct{}, s.cfg.SweepWorkers)
		var wg sync.WaitGroup
		var firstErr error
		var errOnce sync.Once
		fail := func(err error) { errOnce.Do(func() { firstErr = err; cancel() }) }
		for _, idx := range indices {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-pctx.Done():
					return
				}
				p, err := s.runGridPoint(pctx, specs[idx], rs.Points[idx], meta[idx])
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				err = merge.Put(idx, p)
				mu.Unlock()
				if err != nil {
					fail(err)
				}
			}(idx)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		grid, err := merge.Grid()
		if err != nil {
			return nil, err
		}
		return json.Marshal(api.SweepResult{Workload: rs.Workload.Name, Shard: rs.Indices, Grid: grid})
	}
}

// runGridPoint produces one sweep point: served from the store when one
// is configured and already knows the point's RunSpec digest, simulated
// (and stored) otherwise.
func (s *Server) runGridPoint(ctx context.Context, spec harness.RunSpec, digest string, cr harness.ConfigResult) (api.SweepPoint, error) {
	if s.store != nil {
		if payload, ok := s.store.Get(digest); ok {
			var rr api.RunResult
			if err := json.Unmarshal(payload, &rr); err == nil {
				return pointFrom(cr, rr), nil
			}
			// An undecodable stored payload falls through to recompute.
		}
	}
	s.metrics.simulations.Inc()
	out, err := s.simulate(ctx, spec)
	if err != nil {
		return api.SweepPoint{}, err
	}
	rr := runResult(out)
	if payload, err := json.Marshal(rr); err == nil {
		s.storePut(digest, nil, payload)
	}
	return pointFrom(cr, rr), nil
}

// pointFrom assembles a SweepPoint from the grid skeleton and a run
// result. InvMakespan is 1/MakespanMs — MakespanMs is the exact float64
// the harness reported (Go's JSON encoding round-trips float64
// exactly), so this equals the harness's own 1/Makespan bit for bit.
func pointFrom(cr harness.ConfigResult, rr api.RunResult) api.SweepPoint {
	return api.SweepPoint{
		SwapSize: cr.SwapSize, QuantaMs: cr.Quanta.Millis(),
		Fairness: rr.Fairness, InvMakespan: 1 / rr.MakespanMs, Swaps: rr.Swaps,
	}
}

// handleLookupRun is GET /v1/runs?digest=… — a pure lookup across the
// cache tiers (LRU, then store) that never queues work. 404 means "not
// computed yet", never an error.
func (s *Server) handleLookupRun(w http.ResponseWriter, r *http.Request) {
	digest := r.URL.Query().Get("digest")
	if digest == "" {
		api.WriteError(w, http.StatusBadRequest, errors.New("serve: lookup requires ?digest="))
		return
	}
	if payload, ok := s.cache.get(digest); ok {
		s.metrics.cacheHits.Inc()
		api.WriteJSON(w, http.StatusOK, api.StoredResult{Digest: digest, Source: "cache", Result: payload})
		return
	}
	if payload, ok := s.storeLookup(digest); ok {
		api.WriteJSON(w, http.StatusOK, api.StoredResult{Digest: digest, Source: "store", Result: payload})
		return
	}
	api.WriteError(w, http.StatusNotFound, fmt.Errorf("serve: no result for digest %.12s…", digest))
}

// handleStoreStats is GET /v1/store/stats.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	view := api.StoreStatsView{}
	if s.store != nil {
		view.Enabled = true
		view.Dir = s.store.Dir()
		view.Stats, _ = json.Marshal(s.store.Stats())
	}
	api.WriteJSON(w, http.StatusOK, view)
}
