package harness

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dike/internal/workload"
)

func TestRunTraceCapture(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{
		Workload: workload.MustTable2(1), Policy: PolicyDike,
		Seed: 42, Scale: 0.05, TraceEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := out.Trace
	if rt == nil {
		t.Fatal("no trace captured")
	}
	if len(rt.Rows) == 0 {
		t.Fatal("empty trace")
	}
	for i, row := range rt.Rows {
		if len(row) != len(rt.Columns) {
			t.Fatalf("row %d has %d values for %d columns", i, len(row), len(rt.Columns))
		}
	}
	// Sampling respects the period: successive samples >= 200ms apart.
	for i := 1; i < len(rt.Times); i++ {
		if gap := rt.Times[i] - rt.Times[i-1]; gap < 200 {
			t.Fatalf("samples %d,%d only %vms apart", i-1, i, gap)
		}
	}
	// Utilization stays within the controller cap.
	for _, v := range traceColumn(t, rt, "mem_util") {
		if v < 0 || v > 0.99 {
			t.Fatalf("utilization sample %v out of range", v)
		}
	}
	// Alive decreases monotonically ... not strictly (arrivals), but for
	// this workload it must start at 40 and end low.
	if first := traceColumn(t, rt, "alive_threads")[0]; first != 40 {
		t.Errorf("first alive sample = %v, want 40", first)
	}
	// Cumulative swaps are non-decreasing.
	prev := -1.0
	for _, v := range traceColumn(t, rt, "cumulative_swaps") {
		if v < prev {
			t.Fatal("cumulative swaps decreased")
		}
		prev = v
	}
	// CSV export round-trips.
	var sb strings.Builder
	if err := rt.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "time_ms,mem_util,alive_threads,cumulative_swaps,power_watts,energy_joules,progress_dispersion") {
		t.Errorf("csv header: %q", strings.SplitN(sb.String(), "\n", 2)[0])
	}
}

// traceColumn returns one column of rt, failing the test when rt has no
// such column.
func traceColumn(t *testing.T, rt *RunTrace, name string) []float64 {
	t.Helper()
	j := slices.Index(rt.Columns, name)
	if j < 0 {
		t.Fatalf("trace has no %s column: %v", name, rt.Columns)
	}
	col := make([]float64, len(rt.Rows))
	for i, row := range rt.Rows {
		col[i] = row[j]
	}
	return col
}

func TestNoTraceByDefault(t *testing.T) {
	out, err := Run(context.Background(), RunSpec{Workload: workload.MustTable2(1), Policy: PolicyCFS, Seed: 42, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if out.Trace != nil {
		t.Error("trace captured without TraceEvery")
	}
}

func TestExtraExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, id := range []string{"extra-baselines", "extra-dynamic"} {
		e, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Run(Options{Quick: true, Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Tables) == 0 || len(rep.Tables[0].Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestDynamicArrivalRun(t *testing.T) {
	// A workload with a staggered benchmark completes and reports sane
	// per-arrival runtimes.
	base := workload.MustTable2(1)
	w := &workload.Workload{Name: "stagger"}
	for i, b := range base.Benchmarks {
		nb := b
		if i == 2 {
			nb.StartAt = 5000
		}
		w.Benchmarks = append(w.Benchmarks, nb)
	}
	out, err := Run(context.Background(), RunSpec{Workload: w, Policy: PolicyDike, Seed: 42, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Fairness <= 0 {
		t.Error("no fairness metric")
	}
	// The staggered benchmark's runtime is arrival-relative, so it must
	// be comparable to (not a multiple of) its siblings'.
	late := out.Result.Benches[2]
	if late.Time <= 0 {
		t.Error("late benchmark has no runtime")
	}
	if late.Time > out.Result.Makespan {
		t.Error("arrival-relative time exceeds makespan")
	}
}

// traceGolden pins the bytes a traced run writes: its RunTrace CSV and
// its run record JSON, each as a SHA-256 and a length.
type traceGolden struct {
	name            string
	spec            func() RunSpec
	header          string
	csvSHA, jsonSHA string
	csvLen, jsonLen int
}

var traceGoldens = []traceGolden{
	{
		name: "wl1-dike",
		spec: func() RunSpec {
			return RunSpec{Workload: workload.MustTable2(1), Policy: PolicyDike, Seed: 42, Scale: 0.05, TraceEvery: 200}
		},
		header:  "time_ms,mem_util,alive_threads,cumulative_swaps,power_watts,energy_joules,progress_dispersion",
		csvSHA:  "918b900f45936a58de16864ac5013c792a43b29cb11838414637dfc3a7e2fee0",
		csvLen:  4148,
		jsonSHA: "b60322e0e8c243e07b544d4d0842a7f21b537f73fc5743d639ffd68188913781",
		jsonLen: 28970,
	},
	{
		name: "traffic",
		spec: func() RunSpec {
			return RunSpec{Traffic: sloTraffic(0.3, 1000), Policy: PolicyDike, Seed: 42, TraceEvery: 100}
		},
		header:  "time_ms,mem_util,alive_threads,cumulative_swaps,power_watts,energy_joules",
		csvSHA:  "77edd836ca654fe55350845f0ae5d41aa04695088302edc268c3e3d6ecc9b8eb",
		csvLen:  2080,
		jsonSHA: "9229266b37c6ea9d91377cdef6732e3de7cfc26dedbc63d8d6fc3a40e1c95017",
		jsonLen: 11996,
	},
	{
		name:    "faults",
		spec:    faultSpec,
		header:  "time_ms,mem_util,alive_threads,cumulative_swaps,power_watts,energy_joules,progress_dispersion,cumulative_faults",
		csvSHA:  "83c5cd344cbe5b745095dee8f39449da433cbe53e476b653c39dd8fead6881ae",
		csvLen:  2487,
		jsonSHA: "4edba24c6a9143702451b7c6b19c63760338d82cb3f2587b7ec8e1c973f171de",
		jsonLen: 23525,
	},
}

// TestRunTraceGolden: the trace CSV and the run record JSON of three
// traced runs (closed-loop, open-loop without a dispersion column, and
// faulty with a fault column) are byte-identical to their pins. Every
// CSV row has one cell per header column, a time written with three
// decimals and values in %.8g form.
func TestRunTraceGolden(t *testing.T) {
	for _, g := range traceGoldens {
		t.Run(g.name, func(t *testing.T) {
			out, err := Run(context.Background(), g.spec())
			if err != nil {
				t.Fatal(err)
			}
			var csv, js bytes.Buffer
			if err := out.Trace.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			if err := NewRunRecord(out).WriteJSON(&js); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
			if lines[0] != g.header {
				t.Errorf("header = %q, want %q", lines[0], g.header)
			}
			cols := len(strings.Split(g.header, ","))
			for _, line := range lines[1:] {
				cells := strings.Split(line, ",")
				if len(cells) != cols {
					t.Fatalf("row %q has %d cells, want %d", line, len(cells), cols)
				}
				if tm, err := strconv.ParseFloat(cells[0], 64); err != nil || strconv.FormatFloat(tm, 'f', 3, 64) != cells[0] {
					t.Fatalf("row %q: time not in 'f',3 form", line)
				}
				for _, c := range cells[1:] {
					if v, err := strconv.ParseFloat(c, 64); err != nil || strconv.FormatFloat(v, 'g', 8, 64) != c {
						t.Fatalf("row %q: value %q not in 'g',8 form", line, c)
					}
				}
			}
			for _, pin := range []struct {
				what string
				b    []byte
				sha  string
				n    int
			}{{"csv", csv.Bytes(), g.csvSHA, g.csvLen}, {"json", js.Bytes(), g.jsonSHA, g.jsonLen}} {
				sum := sha256.Sum256(pin.b)
				if got := hex.EncodeToString(sum[:]); got != pin.sha || len(pin.b) != pin.n {
					t.Errorf("%s: sha256 %s over %d bytes, pinned %s over %d", pin.what, got, len(pin.b), pin.sha, pin.n)
				}
			}
		})
	}
}
