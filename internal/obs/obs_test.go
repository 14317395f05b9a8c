package obs

import (
	"bytes"
	"sync"
	"testing"
)

func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestHistogramCumulative(t *testing.T) {
	bounds := []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1}
	h := new(Registry).Histogram("h", "help", bounds)
	h.Observe(0.0005) // below every bucket
	h.Observe(0.3)    // lands in 0.5 upward
	h.Observe(120)    // beyond the last bucket: only +Inf
	counts := h.f.get(nil).counts
	if counts[len(bounds)] != 3 {
		t.Fatalf("+Inf = %d, want 3", counts[len(bounds)])
	}
	if counts[0] != 1 { // le=0.001
		t.Errorf("le=0.001 bucket = %d, want 1", counts[0])
	}
	// Cumulative: each bucket ≥ the previous.
	prev := uint64(0)
	for i, c := range counts {
		if c < prev {
			t.Fatalf("bucket %d not cumulative: %d < %d", i, c, prev)
		}
		prev = c
	}
}

// TestWriteFormat pins the exposition contract: registration order,
// headers on empty families, label sets sorted by value tuple, integers
// as integers (even past 1e6) and floats in shortest 'g' form.
func TestWriteFormat(t *testing.T) {
	r := new(Registry)
	r.Gauge("g", "A gauge.", func() int64 { return 123456789 })
	c := r.Counter("c_total", "A counter.", "a", "b")
	r.Counter("empty_total", "No samples yet.", "x")
	r.Ratio("ratio", "Hits over lookups.", []string{"hits_total"}, []string{"misses_total"})
	hits := r.Counter("hits_total", "Hits.")
	r.Counter("misses_total", "Misses.").Add(2)
	h := r.Histogram("lat", "Latency.", []float64{0.5, 1}, "route")
	r.GaugeVec("state", "Per worker.", "worker", func() map[string]int64 { return map[string]int64{"w2": 2, "w1": 0} })

	c.Inc("ab", "c")
	c.Add(2, "a", "z")
	hits.Inc()
	h.Observe(1, "/x")
	h.Observe(1e-05, "/x")
	if got := c.Value("", "c") + c.Value("nope", ""); got != 1 {
		t.Errorf("Value by label = %d, want 1", got)
	}
	const want = `# HELP g A gauge.
# TYPE g gauge
g 123456789
# HELP c_total A counter.
# TYPE c_total counter
c_total{a="a",b="z"} 2
c_total{a="ab",b="c"} 1
# HELP empty_total No samples yet.
# TYPE empty_total counter
# HELP ratio Hits over lookups.
# TYPE ratio gauge
ratio 0.3333333333333333
# HELP hits_total Hits.
# TYPE hits_total counter
hits_total 1
# HELP misses_total Misses.
# TYPE misses_total counter
misses_total 2
# HELP lat Latency.
# TYPE lat histogram
lat_bucket{route="/x",le="0.5"} 1
lat_bucket{route="/x",le="1"} 2
lat_bucket{route="/x",le="+Inf"} 2
lat_sum{route="/x"} 1.00001
lat_count{route="/x"} 2
# HELP state Per worker.
# TYPE state gauge
state{worker="w1"} 0
state{worker="w2"} 2
`
	if got := scrape(t, r); got != want {
		t.Errorf("scrape:\n%s\nwant:\n%s", got, want)
	}
}

// TestLabelEscaping: only backslash, double quote and line feed are
// escaped; every other byte, including non-ASCII, is written as is.
func TestLabelEscaping(t *testing.T) {
	r := new(Registry)
	c := r.Counter("c_total", "Escapes.", "v")
	c.Inc("a\\b\"c\nd\te\u200bf")
	const want = "# HELP c_total Escapes.\n# TYPE c_total counter\n" +
		"c_total{v=\"a\\\\b\\\"c\\nd\te\u200bf\"} 1\n"
	if got := scrape(t, r); got != want {
		t.Errorf("scrape = %q, want %q", got, want)
	}
}

// TestCallbackMayCount: a scrape callback that increments a counter of
// the same registry neither deadlocks nor misses its own increment.
func TestCallbackMayCount(t *testing.T) {
	r := new(Registry)
	c := r.Counter("transitions_total", "Counted by the gauge.", "to")
	r.Gauge("g", "Counts as it is read.", func() int64 { c.Inc("open"); return 1 })
	want := "# HELP transitions_total Counted by the gauge.\n# TYPE transitions_total counter\n" +
		"transitions_total{to=\"open\"} 1\n# HELP g Counts as it is read.\n# TYPE g gauge\ng 1\n"
	if got := scrape(t, r); got != want {
		t.Errorf("scrape = %q, want %q", got, want)
	}
}

// TestConcurrentUse increments, observes and scrapes from several
// goroutines at once; run it under -race.
func TestConcurrentUse(t *testing.T) {
	r := new(Registry)
	c := r.Counter("c_total", "Concurrent.", "w")
	h := r.Histogram("h", "Concurrent.", []float64{1})
	r.Gauge("g", "Reads a counter.", func() int64 { return int64(c.Value()) })
	var wg sync.WaitGroup
	for _, w := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Inc(w)
				h.Observe(float64(i))
				if i%50 == 0 {
					var buf bytes.Buffer
					r.WriteTo(&buf)
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 800 {
		t.Fatalf("total = %d, want 800", got)
	}
}
