// Command dikeperf is the repository's benchmark. One invocation runs one
// workload and prints its metrics; the last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Untraced (--trace 0), the metrics are the end-to-end ones. Traced
// (--trace 1, which needs the binary built with -tags trace) they are
// the per-layer ones, and the spans and every layer number are written
// under --trace-dir. Every operation's output is checked; dikeperf exits
// 1 if any check fails. See README.md.
//
// Usage:
//
//	bash cmd/dikeperf/run.sh --workload sim-closed --seed 42 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// setups is how many times an untraced invocation sets its workload up;
// setup_s reports their median.
const setups = 3

func main() {
	cfg, traced, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	res, report, err := run(context.Background(), cfg, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dikeperf:", err)
		os.Exit(1)
	}
	fmt.Printf("dikeperf %s seed=%d seconds=%g trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, traced)
	for _, m := range report {
		fmt.Printf("  %-32s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dikeperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if res.firstErr != nil {
		fmt.Fprintln(os.Stderr, "dikeperf: first failed operation:", res.firstErr)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string, stderr io.Writer) (config, bool, error) {
	fs := flag.NewFlagSet("dikeperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{setups: setups, calibrate: true}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: sim-closed, sim-traffic, replay or serve-mix")
	fs.Uint64Var(&cfg.seed, "seed", expectedSeed, "seed the workload's inputs are made from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed window, seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced pass")
	fs.StringVar(&cfg.traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory for spans.jsonl and layers.json")
	if err := fs.Parse(args); err != nil {
		return cfg, false, err
	}
	var err error
	switch {
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %q", fs.Args())
	case cfg.seconds <= 0:
		err = fmt.Errorf("--seconds must be positive")
	case trace != 0 && trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if _, ok := findWorkload(cfg.workload); !ok && err == nil {
		err = fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dikeperf:", err)
		fs.Usage()
	}
	return cfg, trace == 1, err
}

// result is the last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	firstErr  error
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run measures one workload. report lists every number the invocation
// produced, gated or not, for the human-readable lines.
func run(ctx context.Context, cfg config, traced bool) (*result, []metric, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	e, err := newEnv(cfg)
	if err != nil {
		return nil, nil, err
	}
	var gated, report []metric
	if traced {
		gated, report, err = traceWorkload(ctx, wl, e, cfg)
	} else {
		gated, report, err = measureWorkload(ctx, wl, e, cfg)
	}
	if err != nil {
		return nil, nil, err
	}
	return e.result(gated), report, nil
}

func newEnv(cfg config) (*env, error) {
	check, err := newChecker(cfg.workload)
	if err != nil {
		return nil, err
	}
	return &env{seed: cfg.seed, layers: plain{}, check: check}, nil
}

// result is the invocation's outcome: correct when at least one
// operation ran and none failed.
func (e *env) result(gated []metric) *result {
	res := &result{Attempted: e.attempted.Load(), Failed: e.failed.Load(), Metrics: map[string]value{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	e.mu.Lock()
	res.firstErr = e.firstErr
	e.mu.Unlock()
	for _, m := range gated {
		res.Metrics[m.name] = value{m.value, m.unit}
	}
	return res
}

// measureWorkload is the untraced invocation: the end-to-end metrics.
func measureWorkload(ctx context.Context, wl workload, e *env, cfg config) (gated, report []metric, err error) {
	m, err := measure(ctx, wl, e, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.d.close(); err != nil {
		return nil, nil, err
	}
	gated = m.endToEnd()
	return gated, append(append([]metric(nil), gated...), m.details()...), nil
}
