// Command dikecoord runs the cluster coordinator: an HTTP/JSON front
// for a fleet of dikeserved workers that speaks the same /v1/runs and
// /v1/sweeps API as a single node, routes runs by spec digest over a
// consistent-hash ring, shards sweeps across healthy workers and merges
// the results deterministically.
//
// Usage:
//
//	dikecoord -workers http://w1:8080,http://w2:8080
//	dikecoord -addr :9090 -probe-interval 1s -retries 4
//
// Endpoints:
//
//	POST   /v1/runs             submit a run (routed by digest)
//	POST   /v1/sweeps           submit a sweep (sharded across workers)
//	GET    /v1/runs/{id}        poll job status + result
//	DELETE /v1/runs/{id}        cancel a job
//	GET    /v1/runs/{id}/events NDJSON terminal-event stream
//	GET    /v1/runs?digest=…    content-addressed lookup across the fleet
//	GET    /v1/store/stats      per-worker durable-store counters
//	GET    /v1/cluster/workers  fleet health + per-worker traffic
//	POST   /v1/cluster/workers  join a worker (optional ttl_ms lease)
//	DELETE /v1/cluster/workers?url=…  remove a worker
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             Prometheus text exposition
//
// On SIGINT/SIGTERM the coordinator drains using the same rules as
// dikeserved: new submissions get 503, in-flight jobs and shards run to
// completion (bounded by -drain-timeout), then the process exits. Drain
// the coordinator before the workers — coordinator first, then fleet —
// so no shard is re-routed into a draining worker.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dike/internal/cli"
	"dike/internal/cluster"
)

func main() {
	var (
		addrFlag     = flag.String("addr", ":9090", "listen address")
		workersFlag  = flag.String("workers", "", "comma-separated dikeserved base URLs (may be empty: workers can join at runtime)")
		probeFlag    = flag.Duration("probe-interval", 2*time.Second, "worker /healthz probing period")
		shardFlag    = flag.Duration("shard-timeout", 2*time.Minute, "per-attempt bound on one run or shard (submit + poll)")
		retryFlag    = flag.Int("retries", 3, "placement attempts per run or shard (first try included)")
		drainFlag    = flag.Duration("drain-timeout", 60*time.Second, "grace period for in-flight jobs on shutdown")
		downFlag     = flag.Int("down-after", 0, "consecutive failures before a worker's breaker opens (0 = default 3)")
		upFlag       = flag.Int("up-after", 0, "consecutive successes before a half-open breaker closes (0 = default 2)")
		openForFlag  = flag.Duration("open-for", 0, "how long an open breaker waits before probing half-open (0 = default 5s)")
		inflightFlag = flag.Int("max-inflight", 0, "per-worker inflight cap before placements spill over (0 = default 32, <0 disables)")
	)
	flag.Parse()

	var workers []string
	for _, w := range strings.Split(*workersFlag, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, strings.TrimRight(w, "/"))
		}
	}

	coord, err := cluster.New(cluster.Config{
		Workers:       workers,
		ProbeInterval: *probeFlag,
		ShardTimeout:  *shardFlag,
		RetryBudget:   *retryFlag,
		Breaker: cluster.BreakerConfig{
			DownAfter: *downFlag,
			UpAfter:   *upFlag,
			OpenFor:   *openForFlag,
		},
		MaxInflightPerWorker: *inflightFlag,
	})
	if err != nil {
		cli.Fatal(err)
	}
	coord.Start()

	log.Printf("dikecoord fronting %d workers (more may join at runtime): %s", len(workers), strings.Join(workers, ", "))

	// The job layer drains first: submissions now get 503 while status,
	// events, metrics and the fleet view stay readable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := cli.Serve(ctx, "dikecoord", *addrFlag, coord.Handler(), *drainFlag, coord.Drain); err != nil {
		log.Fatal(err)
	}
}
