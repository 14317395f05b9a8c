// Command dikebench regenerates the paper's tables and figures.
//
// Usage:
//
//	dikebench -exp all                 # every experiment
//	dikebench -exp fig6                # one experiment (fig6 = 6a+6b+Table III)
//	dikebench -exp fig1,fig7 -scale 1  # several, at full workload scale
//	dikebench -list                    # list experiment ids
//	dikebench -gate bench/             # every experiment with a baseline, gated
//
// Output is plain text tables; add -csv DIR to also dump each table as a
// CSV file under DIR. Gated experiments (scale, slo, tournament, energy)
// also write their bench document to -bench-out DIR as BENCH_<id>.json.
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
		benchOut   = flag.String("bench-out", ".", "directory gated experiments write BENCH_<id>.json into")
		gateDir    = flag.String("gate", "", "directory of baseline bench documents; gate each run against the one naming its experiment and exit 1 on any violation. With -exp all, runs exactly the experiments that have baselines, at each baseline's seed and quick setting unless -seed/-quick are given")
		tourServer = flag.String("tournament-server", "", "dikeserved/dikecoord base URL to submit tournament cells to instead of simulating locally")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := harness.Options{
		Seed:             *seedFlag,
		Scale:            *scaleFlag,
		SweepScale:       *sweepFlag,
		Workers:          *workerFlag,
		Quick:            *quickFlag,
		BenchDir:         *benchOut,
		TournamentServer: *tourServer,
	}

	var baselines map[string]*harness.BenchDoc
	if *gateDir != "" {
		var err error
		if baselines, err = harness.LoadBaselines(*gateDir); err != nil {
			cli.Fatal(err)
		}
	}
	var ids []string
	switch {
	case *expFlag == "all" && baselines != nil:
		for _, id := range harness.ExperimentIDs() {
			if baselines[id] != nil {
				ids = append(ids, id)
			}
		}
	case *expFlag == "all":
		ids = harness.ExperimentIDs()
	default:
		for _, id := range strings.Split(*expFlag, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	failed := 0
	for _, id := range ids {
		e, err := harness.Lookup(id)
		if err != nil {
			cli.Fatal(err)
		}
		base := baselines[id]
		runOpts := opts
		if baselines != nil {
			if base == nil {
				cli.Fatal(fmt.Errorf("no baseline in %s names experiment %q", *gateDir, id))
			}
			if !explicit["seed"] {
				runOpts.Seed = base.Seed
			}
			if !explicit["quick"] {
				runOpts.Quick = base.Quick
			}
		}
		start := time.Now()
		rep, err := e.Run(runOpts)
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
		if base != nil && !gate(e, rep.Bench, base, *gateDir) {
			failed++
		}
	}
	if failed > 0 {
		cli.Fatal(fmt.Errorf("%d experiment(s) failed the gate against %s", failed, *gateDir))
	}
}

// gate checks one run's bench document against its baseline and reports
// the outcome; it returns false on any violation.
func gate(e harness.Experiment, cur, base *harness.BenchDoc, dir string) bool {
	if cur == nil {
		fmt.Fprintf(os.Stderr, "%s gate: the experiment wrote no bench document\n", e.ID)
		return false
	}
	violations, err := e.Gate(cur, base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gate: %v\n", err)
		return false
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "%s gate: %s\n", e.ID, v)
	}
	if len(violations) > 0 {
		return false
	}
	fmt.Printf("%s: %d entries pass the gates of the baseline in %s\n\n", e.ID, len(cur.Entries), dir)
	return true
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
