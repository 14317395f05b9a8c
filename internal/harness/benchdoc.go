package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// BenchSchema tags every bench document so tooling can reject files
// written by other generations of the benchmark.
const BenchSchema = "dike/bench/v1"

// ErrNotComparable is returned by Experiment.Gate when the current
// document and the baseline do not describe the same run: a different
// header (experiment, seed, quick, grid parameters), or not one entry
// key in common. Comparing such documents cell by cell would report
// seed noise as regressions, or pass without comparing anything.
var ErrNotComparable = errors.New("bench documents are not comparable")

// BenchDoc is the one machine-readable document every gated experiment
// writes (BENCH_<id>.json). The header names the run; each entry is one
// grid cell.
type BenchDoc struct {
	Schema     string `json:"schema"`
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	Quick      bool   `json:"quick"`
	// Scale and HorizonMs are the grid parameters the experiment ran
	// with: a work scale for closed-loop grids, an arrival horizon for
	// open-loop ones. Zero means the experiment has no such parameter.
	Scale     float64      `json:"scale,omitempty"`
	HorizonMs int64        `json:"horizon_ms,omitempty"`
	Entries   []BenchEntry `json:"entries"`
}

// BenchEntry is one measured cell. Key is unique within the document and
// is what a gate matches entries on; labels name the cell (policy,
// digest, governor, …) and metrics carry every number measured there.
type BenchEntry struct {
	Key     string             `json:"key"`
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics"`
}

// MetricGate bounds one lower-is-better metric's drift against a
// baseline: a current value above the baseline's by more than Tolerance
// (0.25 = 25%) is a violation. Entries only one side measured, and baseline values that
// are not positive, are skipped.
type MetricGate struct {
	Metric    string
	Tolerance float64
	// Where, when set, limits the gate to the entries it accepts.
	Where func(BenchEntry) bool
}

func newBenchDoc(id string, opts Options) *BenchDoc {
	return &BenchDoc{Schema: BenchSchema, Experiment: id, Seed: opts.Seed, Quick: opts.Quick}
}

func (d *BenchDoc) add(key string, labels map[string]string, metrics map[string]float64) {
	d.Entries = append(d.Entries, BenchEntry{Key: key, Labels: labels, Metrics: metrics})
}

// entry returns the entry with the given key, or nil.
func (d *BenchDoc) entry(key string) *BenchEntry {
	for i := range d.Entries {
		if d.Entries[i].Key == key {
			return &d.Entries[i]
		}
	}
	return nil
}

// wantEntries reports a violation unless the document holds exactly n
// entries.
func (d *BenchDoc) wantEntries(n int) []string {
	if len(d.Entries) != n {
		return []string{fmt.Sprintf("%d entries, want %d", len(d.Entries), n)}
	}
	return nil
}

// positive reports every named metric that is not positive on an entry
// where accepts (nil: every entry).
func (d *BenchDoc) positive(where func(BenchEntry) bool, metrics ...string) []string {
	var v []string
	for _, e := range d.Entries {
		if where != nil && !where(e) {
			continue
		}
		for _, m := range metrics {
			if !(e.Metrics[m] > 0) {
				v = append(v, fmt.Sprintf("%s: %s = %g, want > 0", e.Key, m, e.Metrics[m]))
			}
		}
	}
	return v
}

// boolMetric encodes a flag as a 0/1 metric.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// withBench attaches doc to rep and, when dir is set, writes it to
// dir/BENCH_<id>.json and notes where.
func withBench(rep *Report, doc *BenchDoc, dir string) (*Report, error) {
	rep.Bench = doc
	if dir == "" {
		return rep, nil
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "BENCH_"+doc.Experiment+".json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, "measurements written to "+path)
	return rep, nil
}

// LoadBench reads a bench document and checks its schema.
func LoadBench(path string) (*BenchDoc, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d BenchDoc
	if err := json.Unmarshal(blob, &d); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	if d.Schema != BenchSchema {
		return nil, fmt.Errorf("harness: %s: schema %q, want %q", path, d.Schema, BenchSchema)
	}
	return &d, nil
}

// LoadBaselines reads every *.json bench document in dir, keyed by the
// experiment it names. Two baselines for one experiment are an error.
func LoadBaselines(dir string) (map[string]*BenchDoc, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]*BenchDoc, len(paths))
	for _, p := range paths {
		d, err := LoadBench(p)
		if err != nil {
			return nil, err
		}
		if _, dup := out[d.Experiment]; dup {
			return nil, fmt.Errorf("harness: %s: second baseline for experiment %q", p, d.Experiment)
		}
		out[d.Experiment] = d
	}
	return out, nil
}

// Gate compares cur against the baseline under e's metric gates, then
// applies e's Check to cur. It returns every violation found, or an
// ErrNotComparable error when the two documents are not from the same
// run.
func (e Experiment) Gate(cur, base *BenchDoc) ([]string, error) {
	if cur.Experiment != e.ID {
		return nil, fmt.Errorf("%w: document is from experiment %q, gated as %q", ErrNotComparable, cur.Experiment, e.ID)
	}
	for _, f := range []struct {
		name      string
		cur, base any
	}{
		{"experiment", cur.Experiment, base.Experiment}, {"seed", cur.Seed, base.Seed},
		{"quick", cur.Quick, base.Quick}, {"scale", cur.Scale, base.Scale},
		{"horizon_ms", cur.HorizonMs, base.HorizonMs},
	} {
		if f.cur != f.base {
			return nil, fmt.Errorf("%w: %s %s: %v, baseline %v", ErrNotComparable, e.ID, f.name, f.cur, f.base)
		}
	}
	baseline := make(map[string]BenchEntry, len(base.Entries))
	for _, b := range base.Entries {
		baseline[b.Key] = b
	}
	var violations []string
	shared := 0
	for _, c := range cur.Entries {
		b, ok := baseline[c.Key]
		if !ok {
			continue
		}
		shared++
		for _, g := range e.Gates {
			if g.Where != nil && !g.Where(c) {
				continue
			}
			now, was := c.Metrics[g.Metric], b.Metrics[g.Metric]
			if was <= 0 {
				continue
			}
			if now > was*(1+g.Tolerance) {
				violations = append(violations, fmt.Sprintf("%s: %s %.6g vs baseline %.6g (%+.1f%%, tolerance %.0f%%)",
					c.Key, g.Metric, now, was, 100*(now/was-1), 100*g.Tolerance))
			}
		}
	}
	if shared == 0 {
		return nil, fmt.Errorf("%w: %s: no entry key in common with the baseline", ErrNotComparable, e.ID)
	}
	if e.Check != nil {
		violations = append(violations, e.Check(cur)...)
	}
	return violations, nil
}
