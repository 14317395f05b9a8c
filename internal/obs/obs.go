// Package obs is the metrics core of the service daemons: counters,
// gauges sampled from callbacks and fixed-bucket histograms, written in
// the Prometheus text exposition format (version 0.0.4).
//
// A Registry writes its families in registration order, each with its
// HELP and TYPE header even while it has no samples. Labelled series
// appear on their first increment and are written sorted by label
// values; integers print as integers, floats in Go's shortest 'g' form.
//
// Scrape callbacks run before the registry's lock is taken, so a
// callback may increment counters of the same registry (a gauge that
// advances a circuit breaker counts the transition it causes). Every
// counter and histogram is then read under that one lock, so a scrape
// is one consistent snapshot of them.
package obs

import (
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families in registration order. The zero value
// is ready to use.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

type family struct {
	name, help, typ string
	labels          []string
	bounds          []float64               // histograms only
	series          map[string]*series      // counters and histograms, by label key
	sample          func() map[string]int64 // by the one label's value, "" if unlabelled
	ratio           func() float64          // read under the lock
}

// series is one label set's value: a counter's n, or a histogram's
// cumulative counts (counts[i] counts observations ≤ bounds[i]; the
// last is the +Inf bucket, the total) and sum.
type series struct {
	values []string
	n      uint64
	counts []uint64
	sum    float64
}

func (r *Registry) add(f *family) *family {
	if f.sample == nil && f.ratio == nil {
		f.series = make(map[string]*series)
		if len(f.labels) == 0 {
			f.get(nil) // an unlabelled series is written from the start
		}
	}
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
	return f
}

// get returns the series for values, creating it on first use. The
// caller holds the registry's lock.
func (f *family) get(values []string) *series {
	if len(values) != len(f.labels) {
		panic("obs: " + f.name + ": want label values for " + strings.Join(f.labels, ","))
	}
	var buf [128]byte
	key := buf[:0]
	for _, v := range values {
		key = append(append(key, v...), 0)
	}
	if s, ok := f.series[string(key)]; ok {
		return s
	}
	s := &series{values: slices.Clone(values)}
	if f.bounds != nil {
		s.counts = make([]uint64, len(f.bounds)+1)
	}
	f.series[string(key)] = s
	return s
}

// Counter is a monotonically increasing count, with or without labels.
type Counter struct {
	r *Registry
	f *family
}

// Counter registers a counter with the given label names (none for a
// plain counter).
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r, r.add(&family{name: name, help: help, typ: "counter", labels: labels})}
}

// Inc adds one to the series with the given label values.
func (c *Counter) Inc(values ...string) { c.Add(1, values...) }

// Add adds n to the series with the given label values.
func (c *Counter) Add(n uint64, values ...string) {
	c.r.mu.Lock()
	c.f.get(values).n += n
	c.r.mu.Unlock()
}

// Value sums the series whose label values match values, where an
// empty value matches any; Value() is the family's total. It never
// creates a series.
func (c *Counter) Value(values ...string) uint64 {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	var n uint64
	for _, s := range c.f.series {
		match := true
		for i, v := range values {
			match = match && (v == "" || s.values[i] == v)
		}
		if match {
			n += s.n
		}
	}
	return n
}

// Histogram counts observations into fixed cumulative buckets, with or
// without labels.
type Histogram struct {
	r *Registry
	f *family
}

// Histogram registers a histogram with the given ascending bucket upper
// bounds (a +Inf bucket is implied) and label names.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return &Histogram{r, r.add(&family{name: name, help: help, typ: "histogram", labels: labels, bounds: bounds})}
}

// Observe records v in the series with the given label values.
func (h *Histogram) Observe(v float64, values ...string) {
	h.r.mu.Lock()
	s := h.f.get(values)
	for i, ub := range h.f.bounds {
		if v <= ub {
			s.counts[i]++
		}
	}
	s.counts[len(h.f.bounds)]++
	s.sum += v
	h.r.mu.Unlock()
}

// Gauge registers an unlabelled gauge sampled from f at each scrape.
func (r *Registry) Gauge(name, help string, f func() int64) {
	r.add(&family{name: name, help: help, typ: "gauge", sample: func() map[string]int64 { return map[string]int64{"": f()} }})
}

// CounterFunc registers an unlabelled counter kept elsewhere and
// sampled from f at each scrape.
func (r *Registry) CounterFunc(name, help string, f func() int64) {
	r.add(&family{name: name, help: help, typ: "counter", sample: func() map[string]int64 { return map[string]int64{"": f()} }})
}

// GaugeVec registers a gauge with one label, sampled from f at each
// scrape: one series per key of the returned map.
func (r *Registry) GaugeVec(name, help, label string, f func() map[string]int64) {
	r.add(&family{name: name, help: help, typ: "gauge", labels: []string{label}, sample: f})
}

// Ratio registers a gauge of hits/(hits+misses), where each side sums
// the plain counters of those names, 0 before the first of them counts.
// It is read from the same snapshot as the counters themselves, which
// may be registered before or after it.
func (r *Registry) Ratio(name, help string, hits, misses []string) {
	sum := func(names []string) (n uint64) {
		for _, f := range r.fams {
			if slices.Contains(names, f.name) {
				n += f.get(nil).n
			}
		}
		return n
	}
	r.add(&family{name: name, help: help, typ: "gauge", ratio: func() float64 {
		h := sum(hits)
		if total := h + sum(misses); total > 0 {
			return float64(h) / float64(total)
		}
		return 0
	}})
}

// WriteTo writes every family in registration order: first it runs
// the scrape callbacks, then it reads everything else under the lock.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	sampled := make([]map[string]int64, len(fams))
	for i, f := range fams {
		if f.sample != nil {
			sampled[i] = f.sample()
		}
	}
	var b []byte
	r.mu.Lock()
	for i, f := range fams {
		b = f.appendTo(b, sampled[i])
	}
	r.mu.Unlock()
	n, err := w.Write(b)
	return int64(n), err
}

// appendTo writes the family's HELP/TYPE header and its samples.
func (f *family) appendTo(b []byte, sampled map[string]int64) []byte {
	b = append(b, "# HELP "+f.name+" "+f.help+"\n# TYPE "+f.name+" "+f.typ+"\n"...)
	switch {
	case f.ratio != nil:
		return append(appendName(b, f.name, nil), formatFloat(f.ratio())+"\n"...)
	case f.sample != nil:
		for _, k := range sortedKeys(sampled) {
			var labels []byte
			if len(f.labels) > 0 {
				labels = appendLabel(nil, f.labels[0], k)
			}
			b = strconv.AppendInt(appendName(b, f.name, labels), sampled[k], 10)
			b = append(b, '\n')
		}
		return b
	}
	all := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		all = append(all, s)
	}
	slices.SortFunc(all, func(x, y *series) int { return slices.Compare(x.values, y.values) })
	var le []byte
	for _, s := range all {
		var labels []byte
		for i, name := range f.labels {
			labels = appendLabel(labels, name, s.values[i])
		}
		if f.bounds == nil {
			b = append(strconv.AppendUint(appendName(b, f.name, labels), s.n, 10), '\n')
			continue
		}
		for i, count := range s.counts {
			bound := "+Inf"
			if i < len(f.bounds) {
				bound = formatFloat(f.bounds[i])
			}
			le = appendLabel(append(le[:0], labels...), "le", bound)
			b = append(strconv.AppendUint(appendName(b, f.name+"_bucket", le), count, 10), '\n')
		}
		b = append(appendName(b, f.name+"_sum", labels), formatFloat(s.sum)+"\n"...)
		b = append(strconv.AppendUint(appendName(b, f.name+"_count", labels), s.counts[len(f.bounds)], 10), '\n')
	}
	return b
}

// appendName writes a sample's name and {labels}, if any, and the
// space before its value.
func appendName(b []byte, name string, labels []byte) []byte {
	b = append(b, name...)
	if len(labels) > 0 {
		b = append(append(append(b, '{'), labels...), '}')
	}
	return append(b, ' ')
}

// labelEscaper escapes a label value as the text format requires:
// backslash, double quote and line feed, nothing else.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendLabel appends name="value" to a comma-separated label list.
func appendLabel(b []byte, name, value string) []byte {
	if len(b) > 0 {
		b = append(b, ',')
	}
	b = append(append(b, name...), `="`...)
	return append(append(b, labelEscaper.Replace(value)...), '"')
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
