// Command dikechaos is a deterministic fault-injecting reverse proxy:
// it fronts one dikeserved worker (or any HTTP service) and injects a
// seeded schedule of network faults — latency, connection resets, 5xx
// bursts, slow and truncated bodies, flapping windows — so fleet
// behavior under a hostile network can be reproduced exactly by
// re-running with the same seed.
//
// Usage:
//
//	dikechaos -listen :7001 -target http://worker1:8080 -seed 42 -rate 0.2 -faults reset,5xx
//	dikechaos -listen :7002 -target http://worker2:8080 -seed 42 -faults all
//
// The fault decision for request n is a pure function of (seed, n):
// two proxies with identical flags issue identical schedules, and a
// soak re-run reproduces the exact failure pattern. On SIGINT/SIGTERM
// the proxy logs its per-class injection counts and exits.
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

	"dike/internal/chaos"
	"dike/internal/cli"
)

func main() {
	var (
		listenFlag  = flag.String("listen", ":7001", "listen address")
		targetFlag  = flag.String("target", "", "upstream base URL to front (required)")
		seedFlag    = flag.Uint64("seed", 1, "fault schedule seed; same seed, same schedule")
		rateFlag    = flag.Float64("rate", 0.1, "per-request fault probability for the random classes, in [0,1]")
		faultsFlag  = flag.String("faults", "reset,5xx", "comma list of fault classes (latency,reset,5xx,slowbody,truncate,flap), or all/none")
		latencyFlag = flag.Duration("max-latency", 250*time.Millisecond, "upper bound on injected latency")
		burstFlag   = flag.Int("burst", 3, "consecutive 503s per 5xx draw")
		flapFlag    = flag.Int("flap-every", 50, "flap window size in requests")
		flapDown    = flag.Int("flap-down", 10, "requests reset at the start of each flap window")
	)
	flag.Parse()

	if *targetFlag == "" {
		cli.Fatal(fmt.Errorf("dikechaos: -target is required"))
	}
	classes, err := chaos.ParseClasses(*faultsFlag)
	if err != nil {
		cli.Fatal(err)
	}
	proxy, err := chaos.NewProxy(*targetFlag, chaos.Config{
		Seed:       *seedFlag,
		Rate:       *rateFlag,
		Classes:    classes,
		MaxLatency: *latencyFlag,
		BurstLen:   *burstFlag,
		FlapEvery:  *flapFlag,
		FlapDown:   *flapDown,
	})
	if err != nil {
		cli.Fatal(err)
	}

	log.Printf("dikechaos fronting %s (seed=%d rate=%v faults=%v)", *targetFlag, *seedFlag, *rateFlag, classes)

	// A proxy holds no jobs, so there is nothing to drain before the
	// HTTP server closes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	noDrain := func(context.Context) error { return nil }
	if err := cli.Serve(ctx, "dikechaos", *listenFlag, proxy, 5*time.Second, noDrain); err != nil {
		log.Fatal(err)
	}
	log.Printf("dikechaos injected: %s", proxy.Summary())
}
