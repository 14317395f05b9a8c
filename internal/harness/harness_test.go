package harness

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dike/internal/core"
	"dike/internal/workload"
)

func TestRunSpecValidation(t *testing.T) {
	wl := workload.MustTable2(1)
	cases := []struct {
		name string
		spec RunSpec
		want error // nil = valid
	}{
		{"nil workload", RunSpec{Policy: PolicyCFS}, ErrNoWorkload},
		{"nil workload unknown policy", RunSpec{Policy: "bogus"}, ErrNoWorkload},
		{"unknown policy", RunSpec{Workload: wl, Policy: "bogus"}, ErrUnknownPolicy},
		{"empty policy", RunSpec{Workload: wl}, ErrUnknownPolicy},
		{"case sensitive", RunSpec{Workload: wl, Policy: "DIKE"}, ErrUnknownPolicy},
		{"cfs", RunSpec{Workload: wl, Policy: PolicyCFS}, nil},
		{"dio", RunSpec{Workload: wl, Policy: PolicyDIO}, nil},
		{"dike", RunSpec{Workload: wl, Policy: PolicyDike}, nil},
		{"dike-af", RunSpec{Workload: wl, Policy: PolicyDikeAF}, nil},
		{"dike-ap", RunSpec{Workload: wl, Policy: PolicyDikeAP}, nil},
		{"null", RunSpec{Workload: wl, Policy: PolicyNull}, nil},
		{"rotate", RunSpec{Workload: wl, Policy: PolicyRotate}, nil},
		{"oracle", RunSpec{Workload: wl, Policy: PolicyOracle}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
			// The error names the offending detail, not just the category.
			if tc.spec.Policy != "" && !strings.Contains(err.Error(), tc.spec.Policy) {
				t.Errorf("error %q does not mention policy %q", err, tc.spec.Policy)
			}
			// Run fails identically without starting a simulation.
			if _, rerr := Run(context.Background(), tc.spec); !errors.Is(rerr, tc.want) {
				t.Fatalf("Run() = %v, want errors.Is(%v)", rerr, tc.want)
			}
		})
	}
}

func TestRunProducesMetrics(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Fairness <= 0 || out.Result.Makespan <= 0 {
		t.Error("missing metrics")
	}
	if len(out.History) == 0 || len(out.ErrSeries) == 0 {
		t.Error("missing Dike bookkeeping")
	}
	if out.CompletedAt <= 0 {
		t.Error("missing completion time")
	}
}

func TestRunNonDikeHasNoPredictionData(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{Workload: workload.MustTable2(1), Policy: PolicyCFS, Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if out.History != nil || out.ErrSeries != nil {
		t.Error("CFS run carries Dike bookkeeping")
	}
}

func TestRunDikeConfigOverride(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.QuantaLength = 1000
	cfg.SwapSize = 2
	out, err := Run(context.Background(), RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDike,
		DikeConfig: &cfg, Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range out.History {
		if rec.Quanta != 1000 || rec.SwapSize != 2 {
			t.Fatalf("override ignored: %+v", rec)
		}
	}
}

func TestRunAllOrderAndParallel(t *testing.T) {
	specs := []RunSpec{
		{Workload: workload.MustTable2(1), Policy: PolicyCFS, Seed: 42, Scale: 0.05},
		{Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.05},
		{Workload: workload.MustTable2(2), Policy: PolicyCFS, Seed: 42, Scale: 0.05},
	}
	outs, err := RunAll(context.Background(), specs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Spec.Policy != PolicyCFS || outs[1].Spec.Policy != PolicyDike {
		t.Error("results misaligned with specs")
	}
	if outs[2].Result.Workload != "wl2" {
		t.Error("third result is not wl2")
	}
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	spec := RunSpec{Workload: workload.MustTable2(3), Policy: PolicyDike, Seed: 7, Scale: 0.05}
	a, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunAll(context.Background(), []RunSpec{spec, spec}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range outs {
		if b.Result.Makespan != a.Result.Makespan || b.Result.Swaps != a.Result.Swaps {
			t.Error("parallel run diverged from serial run")
		}
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "bee"}}
	tab.AddRow("x", 1.5)
	tab.AddRow("long-cell", "v")
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "## demo") || !strings.Contains(out, "1.500") {
		t.Errorf("render output: %q", out)
	}
	var csv strings.Builder
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "a,bee\n") {
		t.Errorf("csv output: %q", csv.String())
	}
	// Quoting.
	tab2 := &Table{Header: []string{"h"}}
	tab2.AddRow(`va"l,ue`)
	csv.Reset()
	if err := tab2.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"va""l,ue"`) {
		t.Errorf("csv quoting: %q", csv.String())
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{
		"energy", "extra-baselines", "extra-dynamic", "extra-scale", "extra-seeds", "faults",
		"fig1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "scale", "slo", "tab1", "tab2",
		"tournament",
	}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if _, err := Lookup("fig6"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	if len(Experiments()) != len(want) {
		t.Error("Experiments() size mismatch")
	}
}

func TestStaticExperiments(t *testing.T) {
	for _, id := range []string{"tab1", "tab2"} {
		e, _ := Lookup(id)
		rep, err := e.Run(Options{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var sb strings.Builder
		if err := rep.Render(&sb); err != nil {
			t.Fatal(err)
		}
		if len(sb.String()) < 100 {
			t.Errorf("%s output suspiciously short", id)
		}
	}
}

func TestSweepShape(t *testing.T) {
	rs, err := Sweep(context.Background(), workload.MustTable2(1), Options{SweepScale: 0.04, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != core.NumConfigurations {
		t.Fatalf("sweep points = %d", len(rs))
	}
	seen := map[[2]int64]bool{}
	for _, r := range rs {
		key := [2]int64{int64(r.SwapSize), r.Quanta.Millis()}
		if seen[key] {
			t.Fatalf("duplicate config %v", key)
		}
		seen[key] = true
		if r.Fairness <= 0 || r.Perf <= 0 {
			t.Fatalf("config %v missing metrics", key)
		}
	}
	bf, bp, bc, wc := bestWorst(rs)
	for _, i := range []int{bf, bp, bc, wc} {
		if i < 0 || i >= len(rs) {
			t.Fatal("bestWorst index out of range")
		}
	}
	def := defaultConfigIndex(rs)
	if rs[def].SwapSize != 8 || rs[def].Quanta != 500 {
		t.Error("default config index wrong")
	}
}

func TestQuickDynamicExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"fig1", "fig8"} {
		e, _ := Lookup(id)
		rep, err := e.Run(Options{Quick: true, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	// A cancelled context must abort the simulation promptly: the run
	// returns ctx.Err() instead of completing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.05})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under a cancelled context = %v, want context.Canceled", err)
	}

	// Cancelling mid-run from the progress hook stops within one quantum:
	// at most one more decision fires after the cancellation lands.
	ctx, cancel = context.WithCancel(context.Background())
	decisions := 0
	spec := RunSpec{
		Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.5,
		OnProgress: func(p Progress) {
			decisions++
			if p.Quantum == 2 {
				cancel()
			}
		},
	}
	_, err = Run(ctx, spec)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel = %v, want context.Canceled", err)
	}
	if decisions > 3 {
		t.Errorf("run made %d decisions after cancel at the 2nd; must stop within one quantum", decisions)
	}
}

func TestRunProgressHook(t *testing.T) {
	var events []Progress
	out, err := Run(context.Background(), RunSpec{
		Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.05,
		OnProgress: func(p Progress) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events for a completed run")
	}
	// One event per engine decision; Dike's own History skips its warmup
	// quantum, so it may run one short of the hook count.
	if len(events) < len(out.History) || len(events) > len(out.History)+1 {
		t.Errorf("got %d progress events for %d history records; want one per quantum", len(events), len(out.History))
	}
	for i, ev := range events {
		if ev.Quantum != i+1 {
			t.Fatalf("event %d has Quantum=%d, want %d", i, ev.Quantum, i+1)
		}
		if i > 0 && ev.Time <= events[i-1].Time {
			t.Fatalf("event times not strictly increasing: %v after %v", ev.Time, events[i-1].Time)
		}
	}
	last := events[len(events)-1]
	if last.Swaps != out.Result.Swaps {
		t.Errorf("final event swaps = %d, want the run total %d", last.Swaps, out.Result.Swaps)
	}
}

// TestNullRunsLikeCFS: null places threads and polls as cfs does, so
// both compute the same Result apart from the policy name.
func TestNullRunsLikeCFS(t *testing.T) {
	for _, wl := range []int{1, 6} {
		run := func(policy string) *RunOutput {
			out, err := Run(context.Background(), RunSpec{Workload: workload.MustTable2(wl), Policy: policy, Seed: 42, Scale: 0.05})
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		null, cfs := run(PolicyNull), run(PolicyCFS)
		if null.Result.Policy != PolicyNull {
			t.Fatalf("wl%d: null run reports policy %q", wl, null.Result.Policy)
		}
		null.Result.Policy = PolicyCFS
		if !reflect.DeepEqual(null.Result, cfs.Result) || null.CompletedAt != cfs.CompletedAt {
			t.Errorf("wl%d: null %+v at %v, cfs %+v at %v", wl, null.Result, null.CompletedAt, cfs.Result, cfs.CompletedAt)
		}
	}
}
