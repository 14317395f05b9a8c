package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"dike/internal/metrics"
	"dike/internal/trace"
)

// RunRecord is the JSON-serialisable form of a finished run: enough to
// analyse scheduling behaviour offline (cmd/diketrace) without re-running
// the simulation.
type RunRecord struct {
	Schema    string              `json:"schema"`
	Workload  string              `json:"workload"`
	Policy    string              `json:"policy"`
	Seed      uint64              `json:"seed"`
	Scale     float64             `json:"scale"`
	Result    *metrics.RunResult  `json:"result"`
	PredMin   float64             `json:"pred_min,omitempty"`
	PredAvg   float64             `json:"pred_avg,omitempty"`
	PredMax   float64             `json:"pred_max,omitempty"`
	History   []QuantumJSON       `json:"history,omitempty"`
	ErrSeries []ErrPointJSON      `json:"err_series,omitempty"`
	Trace     map[string][]Sample `json:"trace,omitempty"`
}

// QuantumJSON mirrors core.QuantumRecord with stable JSON field names.
type QuantumJSON struct {
	TimeMs     int64   `json:"t_ms"`
	Fairness   float64 `json:"gate"`
	SwapSize   int     `json:"swap_size"`
	QuantaMs   int64   `json:"quanta_ms"`
	Candidates int     `json:"candidates"`
	Accepted   int     `json:"accepted"`
	MemThreads int     `json:"mem_threads"`
	Alive      int     `json:"alive"`
}

// ErrPointJSON mirrors core.ErrPoint.
type ErrPointJSON struct {
	TimeMs int64   `json:"t_ms"`
	Mean   float64 `json:"mean"`
}

// Sample is one trace data point.
type Sample struct {
	TimeMs float64 `json:"t_ms"`
	Value  float64 `json:"v"`
}

// runRecordSchema versions the export format.
const runRecordSchema = "dike/run-record/v1"

// NewRunRecord converts a RunOutput into its serialisable form.
func NewRunRecord(out *RunOutput) *RunRecord {
	rec := &RunRecord{
		Schema:   runRecordSchema,
		Workload: out.Result.Workload,
		Policy:   out.Result.Policy,
		Seed:     out.Spec.Seed,
		Scale:    out.Spec.Scale,
		Result:   out.Result,
		PredMin:  out.PredMin,
		PredAvg:  out.PredAvg,
		PredMax:  out.PredMax,
	}
	for _, h := range out.History {
		rec.History = append(rec.History, QuantumJSON{
			TimeMs:     h.Time.Millis(),
			Fairness:   h.Fairness,
			SwapSize:   h.SwapSize,
			QuantaMs:   h.Quanta.Millis(),
			Candidates: h.Candidates,
			Accepted:   h.Accepted,
			MemThreads: h.MemThreads,
			Alive:      h.Alive,
		})
	}
	for _, p := range out.ErrSeries {
		rec.ErrSeries = append(rec.ErrSeries, ErrPointJSON{TimeMs: p.Time.Millis(), Mean: p.Mean})
	}
	if out.Trace != nil {
		rec.Trace = map[string][]Sample{}
		for _, s := range []struct {
			name   string
			series *trace.Series
		}{
			{"mem_util", out.Trace.Utilization},
			{"alive", out.Trace.Alive},
			{"swaps", out.Trace.Swaps},
			{"dispersion", out.Trace.Dispersion},
		} {
			if s.series == nil {
				continue // no dispersion series on an open-loop run
			}
			var pts []Sample
			for i := 0; i < s.series.Len(); i++ {
				t, v := s.series.At(i)
				pts = append(pts, Sample{TimeMs: t, Value: v})
			}
			rec.Trace[s.name] = pts
		}
	}
	return rec
}

// WriteJSON serialises the record (indented, one document).
func (r *RunRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadRunRecord parses a record written by WriteJSON and checks the
// schema tag.
func ReadRunRecord(r io.Reader) (*RunRecord, error) {
	var rec RunRecord
	if err := json.NewDecoder(r).Decode(&rec); err != nil {
		return nil, fmt.Errorf("harness: decoding run record: %w", err)
	}
	if rec.Schema != runRecordSchema {
		return nil, fmt.Errorf("harness: unsupported record schema %q", rec.Schema)
	}
	return &rec, nil
}
