package main

import (
	"bytes"
	"context"
	"fmt"

	"dike/internal/harness"
)

// workloads are the benchmark's inputs. Their names are fixed: later
// changes cite them. BENCHMARK.json and README.md say why each is there.
var workloads = []workload{
	// The paper's closed-loop shape plus the 1024-core point: Machine.Step
	// does almost all the work.
	{name: "sim-closed", start: func(ctx context.Context, e *env) (runner, error) {
		return startSims(ctx, e, closedInputs(e.seed))
	}},
	// Open-loop arrivals: threads churn, so per-tick work that scales with
	// threads ever registered, the traffic accountant and idle-skip show.
	{name: "sim-traffic", start: func(ctx context.Context, e *env) (runner, error) {
		return startSims(ctx, e, trafficInputs(e.seed))
	}},
	// No machine model: policy, governor and log decode do all the work.
	{name: "replay", start: startReplay},
	// HTTP, cache, durable store and harness, under two closed-loop clients.
	{name: "serve-mix", start: startServe},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// startSims resolves the inputs and warms up with one operation.
// Operation j is one harness.Run of input j mod len(inputs).
func startSims(ctx context.Context, e *env, inputs []input) (runner, error) {
	specs := make([]harness.RunSpec, len(inputs))
	for i, in := range inputs {
		spec, err := in.spec()
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	next := 0
	d := serial{n: len(specs), fn: func(ctx context.Context) (string, error) {
		i := next % len(specs)
		next++
		out, err := e.layers.run(ctx, specs[i])
		if err != nil {
			return "", err
		}
		got, err := outputDigest(out)
		if err != nil {
			return "", err
		}
		return "", e.check.check(inputs[i].label, got)
	}}
	return d, warmUp(ctx, e, d)
}

// warmUp runs one operation of d and fails the set-up if it fails.
func warmUp(ctx context.Context, e *env, d runner) error {
	w := newWindow(e, 0, 1, 1)
	d.window(ctx, w)
	if w.firstEr != nil {
		return fmt.Errorf("warm-up: %w", w.firstEr)
	}
	return nil
}

// startReplay records the replay input once and warms up with one
// replay of the log.
func startReplay(ctx context.Context, e *env) (runner, error) {
	in := replayInput()
	log, err := record(ctx, e, in)
	if err != nil {
		return nil, err
	}
	d := serial{n: 1, fn: func(ctx context.Context) (string, error) {
		got, err := e.layers.replay(ctx, log)
		if err != nil {
			return "", err
		}
		return "", e.check.check(in.label+"/decisions", sha256Hex([]byte(got)))
	}}
	return d, warmUp(ctx, e, d)
}

// record runs in with a replay recorder attached and returns the log.
// The live run's output, decision stream and log bytes are all checked.
func record(ctx context.Context, e *env, in input) ([]byte, error) {
	spec, err := in.spec()
	if err != nil {
		return nil, err
	}
	var log bytes.Buffer
	spec.Record = &log
	release := e.cal.hold()
	out, err := e.layers.run(ctx, spec)
	release()
	if err != nil {
		return nil, fmt.Errorf("record %s: %w", in.label, err)
	}
	got, err := outputDigest(out)
	if err != nil {
		return nil, err
	}
	decisions := harness.RunDigest(out.Spec.Policy, out.History, out.MetaStats, out.Power)
	for _, c := range []struct{ label, got string }{
		{in.label, got},
		{in.label + "/decisions", sha256Hex([]byte(decisions))},
		{in.label + "/log", sha256Hex(log.Bytes())},
	} {
		if err := e.check.check(c.label, c.got); err != nil {
			return nil, err
		}
	}
	return log.Bytes(), nil
}
