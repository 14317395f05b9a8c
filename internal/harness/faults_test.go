package harness

import (
	"bytes"
	"context"
	"testing"

	"dike/internal/fault"
	"dike/internal/workload"
)

// faultSpec is the shared fixture: WL6 under the adaptive-fairness Dike
// with every fault class enabled.
func faultSpec() RunSpec {
	fc := fault.DefaultConfig()
	fc.Seed = 7
	return RunSpec{
		Workload: workload.MustTable2(6), Policy: PolicyDikeAF,
		Seed: 42, Scale: 0.05, Faults: &fc, TraceEvery: 500,
	}
}

// TestFaultRunDeterminism is the reproducibility acceptance check: the
// same spec and fault seed, run twice in one process, must yield a
// bit-identical run — metrics, fault schedule, degradation counters and
// trace bytes.
func TestFaultRunDeterminism(t *testing.T) {
	a, err := Run(context.Background(), faultSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), faultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Fairness != b.Result.Fairness {
		t.Errorf("fairness differs: %v vs %v", a.Result.Fairness, b.Result.Fairness)
	}
	if a.Result.Makespan != b.Result.Makespan {
		t.Errorf("makespan differs: %v vs %v", a.Result.Makespan, b.Result.Makespan)
	}
	if a.Result.Swaps != b.Result.Swaps {
		t.Errorf("swaps differ: %d vs %d", a.Result.Swaps, b.Result.Swaps)
	}
	if *a.FaultStats != *b.FaultStats {
		t.Errorf("fault stats differ: %v vs %v", a.FaultStats, b.FaultStats)
	}
	if a.Sanitized != b.Sanitized || a.FailedSwaps != b.FailedSwaps || a.WatchdogTrips != b.WatchdogTrips {
		t.Error("degradation bookkeeping differs between identical runs")
	}
	var ta, tb bytes.Buffer
	if err := a.Trace.WriteCSV(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b.Trace.WriteCSV(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("traces differ between identical fault runs")
	}
}

// TestFaultSeedChangesRun: a different fault seed must actually change
// the fault schedule (guards against the injector ignoring its seed).
func TestFaultSeedChangesRun(t *testing.T) {
	a, err := Run(context.Background(), faultSpec())
	if err != nil {
		t.Fatal(err)
	}
	spec := faultSpec()
	spec.Faults.Seed = 8
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if *a.FaultStats == *b.FaultStats && a.Result.Makespan == b.Result.Makespan {
		t.Error("different fault seeds produced an identical run")
	}
}

// TestFaultEveryClassCompletes: a full run completes without error (and
// without panicking) for every fault class in isolation and all at once.
func TestFaultEveryClassCompletes(t *testing.T) {
	for _, sc := range fault.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			fc := fault.DefaultConfig()
			fc.Seed = 7
			fc.Classes = sc.Classes
			out, err := Run(context.Background(), RunSpec{
				Workload: workload.MustTable2(6), Policy: PolicyDikeAF,
				Seed: 42, Scale: 0.05, Faults: &fc,
			})
			if err != nil {
				t.Fatalf("run with %s faults failed: %v", sc.Name, err)
			}
			if out.Result.Fairness <= 0 || out.Result.Fairness > 1 {
				t.Errorf("fairness under %s faults = %v, outside (0,1]", sc.Name, out.Result.Fairness)
			}
		})
	}
}

// TestFaultGracefulDegradation: at the default fault rates the hardened
// scheduler keeps fairness in a sane band — degraded, not collapsed.
func TestFaultGracefulDegradation(t *testing.T) {
	clean, err := Run(context.Background(), RunSpec{Workload: workload.MustTable2(6), Policy: PolicyDikeAF, Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(context.Background(), faultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Result.Fairness < 0.5*clean.Result.Fairness {
		t.Errorf("fairness collapsed under faults: %v vs clean %v",
			faulty.Result.Fairness, clean.Result.Fairness)
	}
	if faulty.FaultStats.Total() == 0 {
		t.Fatal("fault run injected nothing; degradation test is vacuous")
	}
	if faulty.Sanitized.Dropped == 0 && faulty.Sanitized.Rejected == 0 {
		t.Error("no counter faults reached the observer")
	}
}

// TestFaultExperimentRegistered: the faults experiment is in the registry
// and runnable at a tiny scale.
func TestFaultExperimentRegistered(t *testing.T) {
	e, err := Lookup("faults")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		t.Skip("full faults sweep is long; covered by the non-short run")
	}
	rep, err := e.Run(Options{Seed: 42, SweepScale: 0.03, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("faults report has %d tables, want 3", len(rep.Tables))
	}
	// 5 rates x 1 row each (+ no aggregate rows).
	for _, tab := range rep.Tables {
		if len(tab.Rows) != len(faultRates) {
			t.Errorf("table %q has %d rows, want %d", tab.Title, len(tab.Rows), len(faultRates))
		}
	}
}
