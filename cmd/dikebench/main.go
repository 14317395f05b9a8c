// Command dikebench regenerates the paper's tables and figures.
//
// Usage:
//
//	dikebench -exp all                 # every experiment
//	dikebench -exp fig6                # one experiment (fig6 = 6a+6b+Table III)
//	dikebench -exp fig1,fig7 -scale 1  # several, at full workload scale
//	dikebench -list                    # list experiment ids
//
// Every experiment, the tournament grid included, simulates in process.
// Output is plain text tables; add -csv DIR to also dump each table as a
// CSV file under DIR. With -bench-out DIR, the bench experiments (scale,
// slo, tournament, energy) also write their bench document there as
// BENCH_<id>.json; bench/ holds the committed baselines, which
// internal/harness's TestBenchBaselinesPinned compares byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dike/internal/cli"
	"dike/internal/harness"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		listFlag   = flag.Bool("list", false, "list experiment ids and exit")
		seedFlag   = flag.Uint64("seed", 42, "simulation seed")
		scaleFlag  = flag.Float64("scale", 0.5, "workload scale for headline experiments")
		sweepFlag  = flag.Float64("sweep-scale", 0.25, "workload scale for 32-configuration sweeps")
		workerFlag = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		quickFlag  = flag.Bool("quick", false, "shrink everything for a fast smoke run")
		csvFlag    = flag.String("csv", "", "directory to write per-table CSV files into")
		benchOut   = flag.String("bench-out", "", "directory bench experiments write BENCH_<id>.json into (empty: no file)")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := harness.Options{
		Seed:       *seedFlag,
		Scale:      *scaleFlag,
		SweepScale: *sweepFlag,
		Workers:    *workerFlag,
		Quick:      *quickFlag,
		BenchDir:   *benchOut,
	}

	ids := harness.ExperimentIDs()
	if *expFlag != "all" {
		ids = nil
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	for _, id := range ids {
		e, err := harness.Lookup(id)
		if err != nil {
			cli.Fatal(err)
		}
		start := time.Now()
		rep, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: ", id)
			cli.Fatal(err)
		}
		if err := rep.Render(os.Stdout); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("(%s completed in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		if *csvFlag != "" {
			if err := writeCSVs(*csvFlag, rep); err != nil {
				cli.Fatal(err)
			}
		}
	}
}

// writeCSVs dumps each table of rep as DIR/<exp>_<n>.csv.
func writeCSVs(dir string, rep *harness.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range rep.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", rep.ID, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.CSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
