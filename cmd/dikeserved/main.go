// Command dikeserved runs the simulation service: an HTTP/JSON API over
// the harness with a bounded job queue, a worker pool, a digest-keyed
// result cache and per-quantum progress streaming.
//
// Usage:
//
//	dikeserved                            # serve on :8080
//	dikeserved -addr :9000 -workers 8     # bigger pool, other port
//	dikeserved -queue 128 -cache 512      # deeper queue, bigger cache
//	dikeserved -store-dir /var/lib/dike   # durable run store (restart-warm)
//	dikeserved -coord http://coord:9090 -advertise http://me:8080 -lease 10s
//	                                      # self-register and heartbeat a membership lease
//
// Endpoints:
//
//	POST   /v1/runs             submit a simulation job
//	GET    /v1/runs/{id}        poll job status + result
//	DELETE /v1/runs/{id}        cancel a queued or running job
//	GET    /v1/runs/{id}/events NDJSON per-quantum progress stream
//	POST   /v1/sweeps           submit a 32-point configuration sweep
//	GET    /v1/runs?digest=…    content-addressed result lookup (no compute)
//	GET    /v1/store/stats      durable run store counters
//	GET    /healthz             liveness (503 while draining)
//	GET    /metrics             Prometheus text exposition
//
// With -store-dir set, every finished result is appended to a durable,
// content-addressed segment log under that directory. A restarted
// daemon recovers the log (truncating a torn tail if the previous
// process died mid-append), serves known digests from disk without
// re-simulating, and resumes interrupted sweeps from their last
// checkpointed grid point.
//
// On SIGINT/SIGTERM the daemon drains: new submissions get 503, queued
// and in-flight jobs run to completion (bounded by -drain-timeout, after
// which they are hard-cancelled), then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dike/internal/cli"
	"dike/internal/serve"
	"dike/internal/store"
)

func main() {
	var (
		addrFlag     = flag.String("addr", ":8080", "listen address")
		workersFlag  = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queueFlag    = flag.Int("queue", 64, "bounded job-queue depth (full queue rejects with 429)")
		cacheFlag    = flag.Int("cache", 256, "result cache capacity in results (-1 disables)")
		deadlineFlag = flag.Duration("deadline", 2*time.Minute, "default per-job execution deadline")
		sweepFlag    = flag.Int("sweep-workers", 1, "intra-sweep simulation concurrency")
		drainFlag    = flag.Duration("drain-timeout", 60*time.Second, "grace period for in-flight jobs on shutdown")
		storeDirFlag = flag.String("store-dir", "", "durable run store directory (empty disables persistence)")
		storeSegFlag = flag.Int("store-segment-mb", 8, "store segment rotation size, MiB")
		storeSync    = flag.Bool("store-sync", false, "fsync every store append (power-loss safety at a latency cost)")
		coordFlag    = flag.String("coord", "", "dikecoord base URL to self-register with (empty disables)")
		advertFlag   = flag.String("advertise", "", "URL the coordinator dials this worker on (required with -coord)")
		leaseFlag    = flag.Duration("lease", 10*time.Second, "membership lease TTL when self-registering (0 = permanent, no heartbeat)")
	)
	flag.Parse()

	cfg := serve.Config{
		Workers:         *workersFlag,
		QueueDepth:      *queueFlag,
		CacheSize:       *cacheFlag,
		DefaultDeadline: *deadlineFlag,
		SweepWorkers:    *sweepFlag,
	}
	if *storeDirFlag != "" {
		st, err := openStore(*storeDirFlag, store.Options{
			SegmentBytes: int64(*storeSegFlag) << 20,
			Sync:         *storeSync,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
	}
	srv := serve.New(cfg)
	srv.Start()

	// Self-registration: join the coordinator's fleet and keep the
	// membership lease renewed until shutdown.
	var reg *registrar
	if *coordFlag != "" {
		var err error
		if reg, err = newRegistrar(*coordFlag, *advertFlag, *leaseFlag); err != nil {
			log.Fatal(err)
		}
		reg.start()
	}

	// Leave the fleet first so the coordinator stops routing new
	// placements here, then drain the job layer: submissions now get
	// 503 while status, events and metrics stay readable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := cli.Serve(ctx, "dikeserved", *addrFlag, srv.Handler(), *drainFlag, func(ctx context.Context) error {
		if reg != nil {
			reg.shutdown(ctx)
		}
		return srv.Drain(ctx)
	})
	if err != nil {
		log.Fatal(err)
	}
}

// openStore opens the durable run store in dir, which recovers a torn
// tail, and logs what the store holds and what recovery repaired.
func openStore(dir string, opts store.Options) (*store.Store, error) {
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, fmt.Errorf("open store %s: %w", dir, err)
	}
	stats := st.Stats()
	log.Printf("store %s: %d results, %d checkpoints in %d segments (%d bytes)",
		dir, stats.Results, stats.Checkpoints, stats.Segments, stats.SizeBytes)
	if stats.TruncatedRecords > 0 || stats.CorruptRecords > 0 {
		log.Printf("store recovery: truncated %d torn record(s) (%d bytes), skipped %d corrupt record(s) (%d bytes)",
			stats.TruncatedRecords, stats.TruncatedBytes, stats.CorruptRecords, stats.CorruptBytes)
	}
	return st, nil
}
