package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dike/internal/workload"
)

func TestRunRecordRoundTrip(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{
		Workload: workload.MustTable2(1), Policy: PolicyDike,
		Seed: 42, Scale: 0.05, TraceEvery: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRunRecord(out)
	if rec.Schema == "" || rec.Workload != "wl1" || rec.Policy != PolicyDike {
		t.Fatalf("record header wrong: %+v", rec)
	}
	if len(rec.History) == 0 || len(rec.ErrSeries) == 0 {
		t.Fatal("record missing Dike bookkeeping")
	}
	if len(rec.Trace["mem_util"]) == 0 || len(rec.Trace["dispersion"]) == 0 {
		t.Fatal("record missing trace series")
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadRunRecord(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Result.Fairness != rec.Result.Fairness {
		t.Error("fairness did not round-trip")
	}
	if len(back.History) != len(rec.History) {
		t.Error("history did not round-trip")
	}
	if back.History[0].QuantaMs != 500 {
		t.Errorf("first quantum = %d", back.History[0].QuantaMs)
	}
	if len(back.Trace["swaps"]) != len(rec.Trace["swaps"]) {
		t.Error("trace did not round-trip")
	}
}

func TestReadRunRecordRejectsBadSchema(t *testing.T) {
	if _, err := ReadRunRecord(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("wrong schema accepted")
	}
	if _, err := ReadRunRecord(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRunRecordNonDike(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{Workload: workload.MustTable2(1), Policy: PolicyCFS, Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRunRecord(out)
	if len(rec.History) != 0 || rec.Trace != nil {
		t.Error("CFS record carries Dike/trace data")
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunRecord(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestRunRecordTraffic: an open-loop run traces no dispersion series,
// and its record carries the series it has and omits that one.
func TestRunRecordTraffic(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{Traffic: sloTraffic(0.3, 1000), Policy: PolicyDike, Seed: 42, TraceEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRunRecord(out)
	if len(rec.Trace["mem_util"]) == 0 || len(rec.Trace["alive"]) == 0 {
		t.Fatalf("traffic record lacks its trace series: %v", rec.Trace)
	}
	if _, ok := rec.Trace["dispersion"]; ok {
		t.Error("traffic record carries a dispersion series")
	}
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRunRecord(&buf); err != nil {
		t.Fatal(err)
	}
}
