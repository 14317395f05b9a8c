package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"dike/internal/harness"
	"dike/internal/serve/api"
)

// This file is the serve layer's storage tier: the durable run store
// sits below the in-memory LRU as a write-through level (LRU miss →
// store hit → repopulate LRU; every successful result is appended to
// the log in finish), plus the checkpointed sweep executor that makes
// interrupted sweeps resumable across a process kill.

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

// sweepCheckpoint is the durable progress record of a sweep job, keyed
// in the store by the sweep's digest. It is cumulative — each append
// carries every completed point — so recovery only ever needs the
// latest record, and the append-only log's last-wins rule does the
// rest.
type sweepCheckpoint struct {
	Workload string `json:"workload"`
	Total    int    `json:"total"`
	// Points maps grid index (as a JSON-safe string key) to the
	// completed point.
	Points map[string]SweepPoint `json:"points"`
}

// loadSweepCheckpoint returns the completed points of an earlier,
// interrupted execution of the sweep with this digest.
func (s *Server) loadSweepCheckpoint(digest string, total int) map[int]SweepPoint {
	raw, ok := s.store.GetCheckpoint(digest)
	if !ok {
		return nil
	}
	var cp sweepCheckpoint
	if err := json.Unmarshal(raw, &cp); err != nil || cp.Total != total {
		// Unreadable or mismatched (the grid shape changed): recompute.
		return nil
	}
	points := make(map[int]SweepPoint, len(cp.Points))
	for k, p := range cp.Points {
		idx, err := strconv.Atoi(k)
		if err != nil || idx < 0 || idx >= total {
			return nil
		}
		points[idx] = p
	}
	s.metrics.checkpointResumes.Inc()
	s.metrics.checkpointResumedPoints.Add(uint64(len(points)))
	return points
}

// storedSweepExec returns the sweep executor used when the durable
// store is configured. Instead of handing the whole grid to the
// harness, it drives the sweep point by point so that:
//
//   - each grid point's result is content-addressed into the store
//     under its own RunSpec digest (a later run or sweep sharing the
//     point — on this node or, via dikecoord re-routes, any node
//     writing to this store — never recomputes it),
//   - a cumulative checkpoint record follows every completed point, so
//     a kill -9 mid-sweep costs at most the points in flight, and
//   - a resubmission after restart resumes from the checkpoint's last
//     completed grid index instead of simulating 32 points again.
//
// The assembled result is byte-identical to the harness path: points
// land in grid-index order and every number is either the same float64
// the harness would produce or its exact JSON round-trip.
func (s *Server) storedSweepExec(job *Job, rs ResolvedSweep) func(ctx context.Context) (json.RawMessage, error) {
	return func(ctx context.Context) (json.RawMessage, error) {
		specs, meta := harness.SweepGrid(rs.Workload, rs.Options(s.cfg.SweepWorkers))
		indices := rs.Indices
		if indices == nil {
			indices = make([]int, len(specs))
			for i := range specs {
				indices[i] = i
			}
		} else if err := harness.ValidateShard(indices, len(specs)); err != nil {
			return nil, err
		}

		done := s.loadSweepCheckpoint(job.digest, len(indices))
		var mu sync.Mutex // guards points + checkpoint appends
		points := make(map[int]SweepPoint, len(indices))
		var todo []int
		for _, idx := range indices {
			if p, ok := done[idx]; ok {
				points[idx] = p
				continue
			}
			todo = append(todo, idx)
		}

		checkpoint := func() {
			cp := sweepCheckpoint{Workload: rs.Workload.Name, Total: len(indices), Points: make(map[string]SweepPoint, len(points))}
			for idx, p := range points {
				cp.Points[strconv.Itoa(idx)] = p
			}
			raw, err := json.Marshal(cp)
			if err != nil {
				return
			}
			if err := s.store.PutCheckpoint(job.digest, raw); err != nil {
				s.metrics.storeErrors.Inc()
			}
		}

		// Execute the missing points with the configured intra-sweep
		// concurrency, checkpointing after each completion.
		pctx, cancel := context.WithCancel(ctx)
		defer cancel()
		sem := make(chan struct{}, s.cfg.SweepWorkers)
		var wg sync.WaitGroup
		var firstErr error
		var errOnce sync.Once
		for _, idx := range todo {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				select {
				case sem <- struct{}{}:
					defer func() { <-sem }()
				case <-pctx.Done():
					return
				}
				p, err := s.runGridPoint(pctx, specs[idx], meta[idx])
				if err != nil {
					errOnce.Do(func() { firstErr = err; cancel() })
					return
				}
				mu.Lock()
				points[idx] = p
				checkpoint()
				mu.Unlock()
			}(idx)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}

		res := SweepResult{Workload: rs.Workload.Name, Shard: rs.Indices}
		for _, idx := range indices {
			p, ok := points[idx]
			if !ok {
				return nil, fmt.Errorf("serve: grid point %d missing after sweep", idx)
			}
			res.Grid = append(res.Grid, p)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		// The sweep's own result record (written by finish) now covers
		// restarts; the checkpoint is done.
		if err := s.store.DeleteCheckpoint(job.digest); err != nil {
			s.metrics.storeErrors.Inc()
		}
		return raw, nil
	}
}

// runGridPoint produces one sweep point: served from the store when the
// point's RunSpec digest is already known, simulated (and stored)
// otherwise.
func (s *Server) runGridPoint(ctx context.Context, spec harness.RunSpec, cr harness.ConfigResult) (SweepPoint, error) {
	digest, err := spec.Digest()
	if err != nil {
		return SweepPoint{}, err
	}
	if payload, ok := s.store.Get(digest); ok {
		var rr RunResult
		if err := json.Unmarshal(payload, &rr); err == nil {
			return pointFrom(cr, rr), nil
		}
		// An undecodable stored payload falls through to recompute.
	}
	s.metrics.simulations.Inc()
	out, err := s.simulate(ctx, spec)
	if err != nil {
		return SweepPoint{}, err
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
func pointFrom(cr harness.ConfigResult, rr RunResult) SweepPoint {
	return SweepPoint{
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
		writeError(w, http.StatusBadRequest, errors.New("serve: lookup requires ?digest="))
		return
	}
	if payload, ok := s.cache.get(digest); ok {
		s.metrics.cacheHits.Inc()
		writeJSON(w, http.StatusOK, api.StoredResult{Digest: digest, Source: "cache", Result: payload})
		return
	}
	if payload, ok := s.storeLookup(digest); ok {
		writeJSON(w, http.StatusOK, api.StoredResult{Digest: digest, Source: "store", Result: payload})
		return
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("serve: no result for digest %.12s…", digest))
}

// handleStoreStats is GET /v1/store/stats.
func (s *Server) handleStoreStats(w http.ResponseWriter, r *http.Request) {
	view := api.StoreStatsView{}
	if s.store != nil {
		view.Enabled = true
		view.Dir = s.store.Dir()
		view.Stats, _ = json.Marshal(s.store.Stats())
	}
	writeJSON(w, http.StatusOK, view)
}

// StoreCheckpoints lists the store's live checkpoint keys (tests).
func (s *Server) StoreCheckpoints() []string {
	if s.store == nil {
		return nil
	}
	var keys []string
	for _, rec := range s.store.Records() {
		if rec.Kind == "checkpoint" {
			keys = append(keys, rec.Key)
		}
	}
	sort.Strings(keys)
	return keys
}
