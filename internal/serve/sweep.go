package serve

import (
	"fmt"

	"dike/internal/harness"
	"dike/internal/serve/api"
	"dike/internal/workload"
)

// ResolvedSweep is a validated, defaulted sweep request: the workload
// and harness options every grid point shares, the shard indices (nil
// for the full grid), and the job's content address.
type ResolvedSweep struct {
	Workload *workload.Workload
	// WorkloadNum is the resolved Table II number — what a re-marshalled
	// request (e.g. a coordinator shard submission) must carry.
	WorkloadNum int
	Seed        uint64
	Scale       float64
	// Indices is the shard (strictly increasing grid positions), nil for
	// a full sweep.
	Indices []int
	// Digest content-addresses the job. It is derived from the digests
	// of the sweep's resolved RunSpecs (harness.SweepDigest), so the
	// sweep cache key can never drift from the run cache keys: exactly
	// the inputs that would change a constituent run's result change it.
	Digest string
	// Points holds the run digest of every grid point, by grid index:
	// the store key of a point's result and the coordinator's routing
	// key for it.
	Points []string
}

// Options returns the harness options for executing (any shard of) the
// resolved sweep with the given intra-sweep concurrency.
func (rs ResolvedSweep) Options(workers int) harness.Options {
	return harness.Options{Seed: rs.Seed, SweepScale: rs.Scale, Workers: workers}
}

// ResolveSweep validates and defaults a sweep request and computes its
// digest. Worker and coordinator both resolve requests through here, so
// both sides agree on what any sweep (or shard) means and on its cache
// key.
func ResolveSweep(req api.SweepRequest) (ResolvedSweep, error) {
	wlNum := req.Workload
	if wlNum == 0 {
		wlNum = 1
	}
	wl, err := workload.Table2(wlNum)
	if err != nil {
		return ResolvedSweep{}, err
	}
	rs := ResolvedSweep{
		Workload:    wl,
		WorkloadNum: wlNum,
		Seed:        42,
		Scale:       req.Scale,
	}
	if req.Seed != nil {
		rs.Seed = *req.Seed
	}
	if rs.Scale == 0 {
		rs.Scale = 0.05
	}
	if rs.Scale < 0 || rs.Scale > 1 {
		return ResolvedSweep{}, fmt.Errorf("serve: scale %g outside (0, 1]", req.Scale)
	}
	if len(req.Shard) > 0 {
		rs.Indices = req.Shard
	}
	rs.Digest, rs.Points, err = harness.SweepDigest(wl, rs.Options(1), rs.Indices)
	if err != nil {
		return ResolvedSweep{}, err
	}
	return rs, nil
}
