package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BenchSchema tags every bench document so tooling can reject files
// written by other generations of the benchmark.
const BenchSchema = "dike/bench/v1"

// BenchDoc is the one machine-readable document every bench experiment
// writes (BENCH_<id>.json). The header names the run; each entry is one
// grid cell. Every value in it is simulated, so a committed baseline
// (bench/BENCH_<id>_baseline.json) pins a run byte for byte.
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
// names the cell in a mismatch report; labels name the cell (policy,
// digest, governor, …) and metrics carry every number measured there.
type BenchEntry struct {
	Key     string             `json:"key"`
	Labels  map[string]string  `json:"labels"`
	Metrics map[string]float64 `json:"metrics"`
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

// encode renders the document as BENCH_<id>.json holds it.
func (d *BenchDoc) encode() ([]byte, error) {
	blob, err := json.MarshalIndent(d, "", "  ")
	return append(blob, '\n'), err
}

// withBench attaches doc to rep and, when dir is set, writes it to
// dir/BENCH_<id>.json and notes where.
func withBench(rep *Report, doc *BenchDoc, dir string) (*Report, error) {
	rep.Bench = doc
	if dir == "" {
		return rep, nil
	}
	blob, err := doc.encode()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "BENCH_"+doc.Experiment+".json")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, "measurements written to "+path)
	return rep, nil
}
