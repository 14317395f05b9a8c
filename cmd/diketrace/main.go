// Command diketrace records a scheduling run as a JSON run-record and
// analyses recorded runs offline: adaptation trajectory, gate timeline,
// swap activity and prediction-error digest.
//
// Usage:
//
//	diketrace record -wl 7 -policy dike-af -o run.json
//	diketrace summarize run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"dike/internal/cli"
	"dike/internal/harness"
	"dike/internal/serve"
	"dike/internal/serve/api"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "summarize":
		summarize(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: diketrace record -wl N -policy P [-seed S] [-scale X] -o FILE")
	fmt.Fprintln(os.Stderr, "       diketrace summarize FILE")
	os.Exit(2)
}

// record resolves its flags as a POST /v1/runs body, the way
// dikeserved does, so the printed digest is the run's key there too.
func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	req := api.RunRequest{Seed: new(uint64)}
	fs.IntVar(&req.Workload, "wl", 1, "Table II workload number (1-16)")
	fs.StringVar(&req.Policy, "policy", "dike", "scheduling policy")
	fs.Uint64Var(req.Seed, "seed", 42, "simulation seed")
	fs.Float64Var(&req.Scale, "scale", 0.5, "workload scale, in (0, 1]")
	outFlag := fs.String("o", "run.json", "output file")
	fs.Parse(args)

	spec, digest, err := serve.BuildRunSpec(req)
	if err != nil {
		cli.Fatal(err)
	}
	spec.TraceEvery = 500
	out, err := harness.Run(context.Background(), spec)
	if err != nil {
		cli.Fatal(err)
	}
	f, err := os.Create(*outFlag)
	if err != nil {
		cli.Fatal(err)
	}
	defer f.Close()
	if err := harness.NewRunRecord(out).WriteJSON(f); err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("recorded %s/%s -> %s (fairness %.4f, makespan %.1fs, %d swaps)\ndigest   %s\n",
		out.Result.Workload, out.Result.Policy, *outFlag,
		out.Result.Fairness, out.Result.Makespan/1000, out.Result.Swaps, digest)
}

func summarize(args []string) {
	if len(args) != 1 {
		usage()
	}
	f, err := os.Open(args[0])
	if err != nil {
		cli.Fatal(err)
	}
	defer f.Close()
	rec, err := harness.ReadRunRecord(f)
	if err != nil {
		cli.Fatal(err)
	}

	fmt.Printf("run        %s under %s (seed %d, scale %.2f)\n", rec.Workload, rec.Policy, rec.Seed, rec.Scale)
	fmt.Printf("fairness   %.4f   makespan %.1fs   swaps %d\n",
		rec.Result.Fairness, rec.Result.Makespan/1000, rec.Result.Swaps)
	if rec.PredMin != 0 || rec.PredMax != 0 {
		fmt.Printf("prediction %+.1f%% / %+.1f%% / %+.1f%% (min/avg/max)\n",
			rec.PredMin*100, rec.PredAvg*100, rec.PredMax*100)
	}

	if len(rec.History) > 0 {
		fmt.Println("\nadaptation trajectory (parameter changes):")
		lastSS, lastQ := 0, int64(0)
		changes := 0
		for _, h := range rec.History {
			if h.SwapSize != lastSS || h.QuantaMs != lastQ {
				fmt.Printf("  t=%7.1fs  <swap %2d, quanta %4d ms>\n", float64(h.TimeMs)/1000, h.SwapSize, h.QuantaMs)
				lastSS, lastQ = h.SwapSize, h.QuantaMs
				changes++
			}
		}
		if changes == 1 {
			fmt.Println("  (no adaptation: parameters fixed)")
		}

		fmt.Println("\ngate & swap activity by run fifth:")
		n := len(rec.History)
		fmt.Printf("  %-8s %10s %10s %10s\n", "fifth", "gate mean", "cand/q", "acc/q")
		for part := 0; part < 5; part++ {
			lo, hi := part*n/5, (part+1)*n/5
			if hi <= lo {
				continue
			}
			gate, cand, acc := 0.0, 0, 0
			for _, h := range rec.History[lo:hi] {
				gate += h.Fairness
				cand += h.Candidates
				acc += h.Accepted
			}
			k := float64(hi - lo)
			fmt.Printf("  %-8d %10.3f %10.2f %10.2f\n", part+1, gate/k, float64(cand)/k, float64(acc)/k)
		}
	}

	if pts := rec.Trace["dispersion"]; len(pts) > 0 {
		first, last := pts[0].Value, pts[len(pts)-1].Value
		fmt.Printf("\nprogress dispersion: %.4f at start -> %.4f at end\n", first, last)
	}
	fmt.Println("\nper-application results:")
	for _, b := range rec.Result.Benches {
		tag := ""
		if b.Extra {
			tag = " (extra)"
		}
		fmt.Printf("  %-15s cv=%.4f time=%.1fs%s\n", b.Name, b.CV, b.Time/1000, tag)
	}
}
