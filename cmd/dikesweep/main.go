// Command dikesweep sweeps Dike's 32 scheduler configurations over one
// workload and prints the fairness/performance grid (the raw material of
// Figs 2, 4 and 5), highlighting the optimum for each metric.
//
// Usage:
//
//	dikesweep -wl 3                 # WL3 grid
//	dikesweep -wl 13 -scale 0.5     # longer runs
//	dikesweep -wl 7 -csv grid.csv   # also dump as CSV
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"dike/internal/cli"
	"dike/internal/core"
	"dike/internal/harness"
	"dike/internal/serve"
	"dike/internal/serve/api"
	"dike/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatal(err)
	}
}

// run executes one dikesweep command line and writes its report to w.
// The flags stand for a POST /v1/sweeps body, resolved as dikeserved
// resolves one, so the printed digest is the sweep's key there too.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dikesweep", flag.ExitOnError)
	req := api.SweepRequest{Seed: new(uint64)}
	fs.IntVar(&req.Workload, "wl", 1, "Table II workload number (1-16)")
	fs.Uint64Var(req.Seed, "seed", 42, "simulation seed")
	fs.Float64Var(&req.Scale, "scale", 0.25, "workload scale, in (0, 1]")
	workerFlag := fs.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	csvFlag := fs.String("csv", "", "file to write the grid as CSV")
	fs.Parse(args)

	rs, err := serve.ResolveSweep(req)
	if err != nil {
		return err
	}
	grid, err := harness.Sweep(context.Background(), rs.Workload, rs.Options(*workerFlag))
	if err != nil {
		return err
	}

	// Locate maxima.
	var bestF, bestP harness.ConfigResult
	for _, r := range grid {
		if r.Fairness > bestF.Fairness {
			bestF = r
		}
		if r.Perf > bestP.Perf {
			bestP = r
		}
	}
	fmt.Fprintf(w, "workload %s (%s): 32-configuration sweep\ndigest   %s\n", rs.Workload.Name, rs.Workload.Type(), rs.Digest)
	fmt.Fprintf(w, "best fairness    <swap %2d, quanta %4d>  F=%.4f\n", bestF.SwapSize, bestF.Quanta.Millis(), bestF.Fairness)
	fmt.Fprintf(w, "best performance <swap %2d, quanta %4d>  1/makespan=%.3g\n\n", bestP.SwapSize, bestP.Quanta.Millis(), bestP.Perf)

	fmt.Fprintf(w, "%-14s", "quanta\\swap")
	for _, ss := range core.SwapSizeLevels() {
		fmt.Fprintf(w, "  %12d", ss)
	}
	fmt.Fprintln(w)
	i := 0
	for _, q := range core.QuantaLevels {
		fmt.Fprintf(w, "%-14s", fmt.Sprintf("%dms", sim.Time(q).Millis()))
		for range core.SwapSizeLevels() {
			r := grid[i]
			fmt.Fprintf(w, "  %.3f/%.3f", r.Fairness/bestF.Fairness, r.Perf/bestP.Perf)
			i++
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\ncells are normalized fairness/performance (1.000 = best)")

	if *csvFlag == "" {
		return nil
	}
	f, err := os.Create(*csvFlag)
	if err != nil {
		return err
	}
	fmt.Fprintln(f, "swap_size,quanta_ms,fairness,inv_makespan,swaps")
	for _, r := range grid {
		fmt.Fprintf(f, "%d,%d,%.6f,%.6g,%d\n", r.SwapSize, r.Quanta.Millis(), r.Fairness, r.Perf, r.Swaps)
	}
	return f.Close()
}
