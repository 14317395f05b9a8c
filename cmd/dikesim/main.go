// Command dikesim runs a single workload under one scheduling policy and
// prints the run's metrics: per-benchmark thread-runtime dispersion,
// fairness (Eqn 4), completion times, swap counts and — for the Dike
// policies — prediction accuracy.
//
// Usage:
//
//	dikesim -wl 6 -policy dike                  # WL6 under Dike
//	dikesim -wl 15 -policy dio -scale 1         # full-length WL15 under DIO
//	dikesim -wl 7 -policy dike-af -seed 7       # adaptive, different seed
//	dikesim -apps jacobi,srad -policy dike      # custom two-app workload
//	dikesim -wl 6 -machine big.json             # topology-driven machine spec
//	dikesim -traffic colo.json -policy dike-af  # open-loop traffic scenario
//	dikesim -traffic colo.json -load 0.8        # same, at 80% offered load
//	dikesim -request run.json                   # exactly a POST /v1/runs body
//
// The flags stand for a POST /v1/runs body, resolved by
// serve.BuildRunSpec as dikeserved resolves it, so the report's digest
// line is the key `dikestore get` and `GET /v1/runs?digest=` take. -apps
// is the body's "apps" list and adds no kmeans benchmark. -request runs
// a body file as it is; no flag that shapes the run may join it.
//
// With -traffic the run is open-loop: requests arrive, execute and
// depart per the scenario's arrival processes, and the output is
// per-tenant sojourn-time percentiles, SLO violations and fairness
// instead of benchmark completion times. -wl/-apps/-scale are ignored.
//
// Record/replay:
//
//	dikesim -wl 6 -policy dike -record run.log  # record the platform stream
//	dikesim -replay run.log                     # re-run decisions from the log
//	dikesim -replay run.log -digest             # print the decision digest
//
// A replay rebuilds the recorded policy over the log — no machine model
// runs — and verifies every decision against the recording, failing on
// the first divergence. With -digest the only output is the run's
// deterministic decision digest (per-quantum fairness numbers in exact
// round-trip form), so `dikesim -record` and `dikesim -replay` outputs
// can be compared byte-for-byte.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dike/internal/cli"
	"dike/internal/fault"
	"dike/internal/harness"
	"dike/internal/power"
	"dike/internal/serve"
	"dike/internal/serve/api"
	"dike/internal/tournament"
	"dike/internal/workload"
)

// runFlags holds the flags that shape the run. Most are bound straight
// to the POST /v1/runs body fields they stand for; request translates
// the rest, which name files or lists, into the body.
type runFlags struct {
	req                          api.RunRequest
	seed                         uint64
	faults                       api.FaultRequest
	power                        power.Config
	apps, machine, traffic, meta string
	load                         float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		cli.Fatal(err)
	}
}

// run executes one dikesim command line and writes its report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dikesim", flag.ExitOnError)
	var rf runFlags
	fs.IntVar(&rf.req.Workload, "wl", 1, "Table II workload number (1-16); ignored when -apps is set")
	fs.StringVar(&rf.apps, "apps", "", "comma-separated application list for a custom workload (no kmeans is added)")
	fs.StringVar(&rf.req.Policy, "policy", "dike", "cfs | dio | dike | dike-af | dike-ap | dike-ea | rotate | oracle | meta")
	fs.Uint64Var(&rf.seed, "seed", 42, "simulation seed")
	fs.Float64Var(&rf.req.Scale, "scale", 0.5, "workload scale, in (0, 1]")
	fs.StringVar(&rf.faults.Classes, "faults", "", "fault classes to inject: 'all', 'none', or a comma list of "+fault.ClassNames())
	fs.Float64Var(&rf.faults.Rate, "fault-rate", 1, "multiplier on all fault-class base probabilities")
	fs.Uint64Var(&rf.faults.Seed, "fault-seed", 1, "fault injector seed (same seed = identical fault schedule)")
	fs.StringVar(&rf.machine, "machine", "", "JSON machine spec file (core types, sockets, memory controllers, distance matrix); default is the Table I machine")
	fs.StringVar(&rf.traffic, "traffic", "", "JSON open-loop traffic spec file; replaces -wl/-apps with arrival-driven requests")
	fs.Float64Var(&rf.load, "load", 0, "override the traffic spec's offered-load multiplier (requires -traffic)")
	fs.StringVar(&rf.meta, "meta", "", "JSON tournament config file overriding the meta policy's defaults (requires -policy meta)")
	fs.StringVar(&rf.power.Governor, "governor", "", "power governor to interpose: "+strings.Join(power.Names(), " | "))
	fs.Float64Var(&rf.power.CapWatts, "power-cap", 0, "per-socket watt budget for the ondemand/fairness governors")
	shaping := map[string]bool{} // every flag defined so far
	fs.VisitAll(func(f *flag.Flag) { shaping[f.Name] = true })
	var (
		requestFlag = fs.String("request", "", "JSON POST /v1/runs body file to run as it is; excludes every flag that shapes the run")
		traceFlag   = fs.String("trace", "", "write a CSV time-series trace (memory utilisation, alive threads, swaps, progress dispersion) to this file")
		recordFlag  = fs.String("record", "", "write a replay log of the run to this file")
		replayFlag  = fs.String("replay", "", "re-run a recorded log instead of simulating; other run flags are ignored")
		digestFlag  = fs.Bool("digest", false, "print only the deterministic decision digest")
		listFlag    = fs.Bool("list-policies", false, "list registered scheduling policies and power governors, then exit")
	)
	fs.Parse(args)

	if *listFlag {
		for _, p := range harness.Policies() {
			tag := ""
			if p.MetaCandidate {
				tag = " [meta-eligible]"
			}
			fmt.Fprintf(w, "%-8s %s%s\n", p.Name, p.Description, tag)
		}
		fmt.Fprintln(w, "\npower governors (-governor):")
		for _, g := range power.Governors() {
			fmt.Fprintf(w, "%-8s %s\n", g.Name, g.Description)
		}
		return nil
	}
	if *replayFlag != "" {
		return replayRun(w, *replayFlag, *digestFlag)
	}

	var req api.RunRequest
	var err error
	if *requestFlag == "" {
		req, err = rf.request()
	} else {
		req, err = readRequest(*requestFlag)
		fs.Visit(func(f *flag.Flag) {
			if shaping[f.Name] {
				err = fmt.Errorf("-%s cannot be combined with -request, which supplies the whole run", f.Name)
			}
		})
	}
	if err != nil {
		return err
	}
	spec, digest, err := serve.BuildRunSpec(req)
	if err != nil {
		return err
	}
	// Observers attach to the resolved spec, as serve attaches
	// OnProgress; none of them is part of the digest.
	if *traceFlag != "" {
		spec.TraceEvery = 250
	}
	var recFile *os.File
	if *recordFlag != "" {
		if recFile, err = os.Create(*recordFlag); err != nil {
			return err
		}
		defer recFile.Close()
		spec.Record = recFile
	}
	out, err := harness.Run(context.Background(), spec)
	if err != nil {
		return err
	}
	if recFile != nil {
		if err := recFile.Close(); err != nil {
			return err
		}
	}
	if *digestFlag {
		fmt.Fprint(w, harness.RunDigest(spec.Policy, out.History, out.MetaStats, out.Power))
		return nil
	}

	if out.Traffic != nil {
		printTraffic(w, spec.Policy, digest, out)
		printMeta(w, out.MetaStats)
		return writeTrace(w, *traceFlag, out)
	}

	r := out.Result
	fmt.Fprintf(w, "workload   %s (%s)\npolicy     %s\ndigest     %s\n", r.Workload, r.Type, r.Policy, digest)
	fmt.Fprintf(w, "fairness   %.4f (Eqn 4)\n", r.Fairness)
	fmt.Fprintf(w, "makespan   %.1fs   mean main-bench time %.1fs\n", r.Makespan/1000, r.AvgTime/1000)
	fmt.Fprintf(w, "swaps      %d (%d migrations)\n", r.Swaps, r.Migrations)
	printEnergy(w, out)
	if out.FaultStats != nil {
		fmt.Fprintf(w, "faults     %d injected: %s\n", out.FaultStats.Total(), out.FaultStats)
		if out.History != nil {
			fmt.Fprintf(w, "hardening  samples dropped %d rejected %d clamped %d; failed swaps %d; watchdog trips %d\n",
				out.Sanitized.Dropped, out.Sanitized.Rejected, out.Sanitized.Clamped,
				out.FailedSwaps, out.WatchdogTrips)
		}
	}
	printMeta(w, out.MetaStats)
	if err := writeTrace(w, *traceFlag, out); err != nil {
		return err
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-15s %-6s %10s %10s %8s\n", "benchmark", "class", "time", "mean", "cv")
	for _, b := range r.Benches {
		tag := ""
		if b.Extra {
			tag = " (extra)"
		}
		fmt.Fprintf(w, "%-15s %-6s %9.1fs %9.1fs %8.4f%s\n",
			b.Name, classOf(b.Name), b.Time/1000, b.MeanThreadTime/1000, b.CV, tag)
	}
	return nil
}

// readRequest decodes a POST /v1/runs body file as the daemons decode
// a body.
func readRequest(path string) (req api.RunRequest, err error) {
	f, err := os.Open(path)
	if err != nil {
		return req, err
	}
	defer f.Close()
	if err := api.Decode(f, &req); err != nil {
		return req, fmt.Errorf("%s: %w", path, err)
	}
	return req, nil
}

// request returns the POST /v1/runs body the run flags stand for.
func (rf *runFlags) request() (req api.RunRequest, err error) {
	req = rf.req
	req.Seed = &rf.seed
	switch {
	case rf.traffic != "":
		// The traffic spec replaces every workload source, and the
		// wire rejects a scale on traffic runs.
		req.Workload, req.Scale = 0, 0
		if req.Traffic, err = os.ReadFile(rf.traffic); err == nil && rf.load != 0 {
			req.Traffic, err = withLoad(req.Traffic, rf.load)
		}
	case rf.load != 0:
		err = errors.New("-load requires -traffic")
	case rf.apps != "":
		req.Workload = 0
		for _, app := range strings.Split(rf.apps, ",") {
			req.Apps = append(req.Apps, strings.TrimSpace(app))
		}
	}
	if err == nil && rf.machine != "" {
		req.Machine, err = os.ReadFile(rf.machine)
	}
	if err == nil && rf.meta != "" {
		req.Meta, err = os.ReadFile(rf.meta)
	}
	if err == nil && rf.power != (power.Config{}) {
		req.Power, err = json.Marshal(rf.power)
	}
	if rf.faults.Classes != "" {
		req.Faults = &rf.faults
	}
	return req, err
}

// withLoad sets the "load" key of a traffic spec document.
func withLoad(doc []byte, load float64) ([]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(doc, &fields); err != nil || fields == nil {
		return nil, errors.New("-load needs the traffic spec to be a JSON object")
	}
	v, err := json.Marshal(load)
	if err != nil {
		return nil, err
	}
	fields["load"] = v
	return json.Marshal(fields)
}

// writeTrace writes the run's trace as CSV to path, if -trace asked for
// one.
func writeTrace(w io.Writer, path string, out *harness.RunOutput) error {
	if path == "" || out.Trace == nil {
		return nil
	}
	var csv bytes.Buffer
	if err := out.Trace.WriteCSV(&csv); err != nil {
		return err
	}
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace      %s\n", path)
	return nil
}

// printTraffic reports an open-loop run: totals, fairness and the
// per-tenant sojourn/SLO table.
func printTraffic(w io.Writer, policy, digest string, out *harness.RunOutput) {
	tr := out.Traffic
	fmt.Fprintf(w, "scenario   %s (open-loop, load %.2f)\npolicy     %s\ndigest     %s\n", tr.Name, tr.Load, policy, digest)
	fmt.Fprintf(w, "arrivals   %d admitted %d rejected %d completed %d killed %d\n",
		tr.Arrivals, tr.Admitted, tr.Rejected, tr.Completed, tr.Killed)
	fmt.Fprintf(w, "fairness   jain %.4f  min/max %.4f (weight-normalized inverse slowdown)\n",
		tr.FairnessJain, tr.FairnessMinMax)
	fmt.Fprintf(w, "drained    %.1fs\n", float64(tr.DrainedAtMs)/1000)
	printEnergy(w, out)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s %8s %8s %8s %8s %8s %8s %9s %9s\n",
		"class", "complete", "p50", "p95", "p99", "max", "slowdown", "slo", "viol%")
	for _, c := range tr.Classes {
		slo := "-"
		viol := "-"
		if c.SLOMs > 0 {
			slo = fmt.Sprintf("%.0fms", c.SLOMs)
			viol = fmt.Sprintf("%.1f", 100*c.ViolationRate)
		}
		fmt.Fprintf(w, "%-12s %8d %7.0fms %7.0fms %7.0fms %7.0fms %8.2f %9s %9s\n",
			c.Name, c.Completed, c.P50Ms, c.P95Ms, c.P99Ms, c.MaxMs, c.Slowdown, slo, viol)
	}
}

// printEnergy reports the run's power-model outcome, the governor's
// decision totals for governed runs and, for the Dike policies, the
// prediction error.
func printEnergy(w io.Writer, out *harness.RunOutput) {
	fmt.Fprintf(w, "energy     %.0f J (EDP %.1f J·s)\n", out.EnergyJ, out.EDP)
	if out.Power != nil {
		fmt.Fprintf(w, "governor   %s: %d invocation(s), %d DVFS actuation(s)\n",
			out.Power.Governor, len(out.Power.Invocations), out.Power.Actions())
	}
	if out.History != nil {
		fmt.Fprintf(w, "prediction error: min %+.1f%% avg %+.1f%% max %+.1f%%\n",
			out.PredMin*100, out.PredAvg*100, out.PredMax*100)
	}
}

// printMeta reports the meta policy's tournament record: switch count,
// shadow work, and the live-policy timeline (one entry per change).
func printMeta(w io.Writer, ms *tournament.Stats) {
	if ms == nil {
		return
	}
	fmt.Fprintf(w, "meta       %d epoch(s), %d switch(es), %d shadow quanta, objective %s\n",
		len(ms.Epochs), ms.Switches, ms.ShadowQuanta, ms.Objective)
	var tl strings.Builder
	cur := ""
	for _, ep := range ms.Epochs {
		if ep.Live != cur {
			fmt.Fprintf(&tl, " %dms:%s", ep.TimeMs, ep.Live)
			cur = ep.Live
		}
	}
	fmt.Fprintf(w, "live       %s ->%s (final %s)\n", ms.Candidates[0], tl.String(), ms.FinalPolicy)
}

// replayRun re-executes a recorded log and reports the verified run.
func replayRun(w io.Writer, path string, digest bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	out, err := harness.Replay(f)
	if err != nil {
		return err
	}
	if digest {
		fmt.Fprint(w, harness.RunDigest(out.Policy, out.History, out.MetaStats, out.Power))
		return nil
	}
	fmt.Fprintf(w, "replayed   %s (seed %d)\n", out.Policy, out.Seed)
	fmt.Fprintf(w, "quanta     %d, last event at %.1fs\n", out.Quanta, float64(out.CompletedAt)/1000)
	fmt.Fprintln(w, "verified   every decision matched the recording")
	if out.Power != nil {
		fmt.Fprintf(w, "governor   %s: %d invocation(s), %d DVFS actuation(s) replayed\n",
			out.Power.Governor, len(out.Power.Invocations), out.Power.Actions())
	}
	if out.History != nil {
		fmt.Fprintf(w, "prediction error: min %+.1f%% avg %+.1f%% max %+.1f%%\n",
			out.PredMin*100, out.PredAvg*100, out.PredMax*100)
		last := out.History[len(out.History)-1]
		fmt.Fprintf(w, "final gate %.4f (swap=%d quanta=%dms)\n", last.Fairness, last.SwapSize, int64(last.Quanta))
	}
	return nil
}

// classOf returns the ground-truth class letter for a builtin app.
func classOf(app string) string {
	p, err := workload.LookupProfile(app)
	if err != nil {
		return "?"
	}
	return p.Class.String()
}
