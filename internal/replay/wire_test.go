package replay

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
)

// TestJfloatRoundTrip checks the log's float encoding is exact: finite
// values survive bit-identically (shortest round-trip formatting) and
// the non-finite values fault injection produces survive at all.
func TestJfloatRoundTrip(t *testing.T) {
	vals := []float64{
		0, 1, -1, 0.1, 1.0 / 3.0, math.Pi, 1e-300, -1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, v := range vals {
		b, err := json.Marshal(jfloat(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var got jfloat
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.IsNaN(v) {
			if !math.IsNaN(float64(got)) {
				t.Errorf("NaN round-tripped to %v", float64(got))
			}
			continue
		}
		if math.Float64bits(float64(got)) != math.Float64bits(v) {
			t.Errorf("%v round-tripped to %v (bits differ)", v, float64(got))
		}
	}
}

func (f *jfloat) mustUnmarshalFail(t *testing.T, in string) {
	t.Helper()
	if err := f.UnmarshalJSON([]byte(in)); err == nil {
		t.Errorf("UnmarshalJSON(%q) accepted garbage", in)
	}
}

func TestJfloatRejectsGarbage(t *testing.T) {
	var f jfloat
	f.mustUnmarshalFail(t, `"Infinity"`)
	f.mustUnmarshalFail(t, `"nan"`)
	f.mustUnmarshalFail(t, `{}`)
}

// sampler is a live platform whose Sample hands out prepared samples in
// turn, so a test controls exactly what the Recorder encodes.
type sampler struct {
	platform.Platform
	samples []*platform.Sample
}

func (s *sampler) Sample(sim.Time) *platform.Sample {
	next := s.samples[0]
	s.samples = s.samples[1:]
	return next
}

// TestSampleWireRoundTrip pushes samples through the Recorder's encoder
// and back through the scanner: non-finite and negative-zero readings,
// a sample without thread maps and one without core deltas must all
// come back bit for bit, with non-nil maps.
func TestSampleWireRoundTrip(t *testing.T) {
	samples := []*platform.Sample{
		{
			Interval: 500,
			Threads: map[platform.ThreadID]counters.ThreadDelta{
				0: {Interval: 500, Work: 12.5, Instructions: 12500, Accesses: 50, Misses: 5, Migrations: 2},
				3: {Interval: 500, Work: math.NaN(), Instructions: math.Inf(1), Accesses: -3, Misses: math.Copysign(0, -1)},
			},
			Cores: []counters.CoreDelta{
				{Interval: 500, ServedMisses: 5},
				{Interval: 500, ServedMisses: math.Inf(-1)},
			},
			Instr: map[platform.ThreadID]float64{0: 99999.25, 3: 1.0 / 3.0},
		},
		{Interval: 250, Cores: []counters.CoreDelta{{Interval: 250, ServedMisses: math.NaN()}}},
		{
			Threads: map[platform.ThreadID]counters.ThreadDelta{7: {Work: math.MaxFloat64, Misses: math.SmallestNonzeroFloat64}},
			Instr:   map[platform.ThreadID]float64{7: 1e300},
		},
	}
	var buf bytes.Buffer
	rec := NewRecorder(&sampler{Platform: platformtest.NewMachine(platformtest.DefaultConfig()), samples: samples}, &buf)
	if err := rec.Start(Meta{Policy: "wire"}); err != nil {
		t.Fatal(err)
	}
	for i := range samples {
		rec.Sample(sim.Time(i))
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))[1:] // after the header
	var sc scanner
	for i, want := range samples {
		ev, err := sc.decode(lines[i])
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		got := ev.sample
		if got == nil || got.Threads == nil || got.Instr == nil || got.Cores == nil {
			t.Fatalf("sample %d decoded with nil parts: %+v", i, got)
		}
		if diff := sampleDiff(got, toWire(want)); diff != "" {
			t.Errorf("sample %d: %s", i, diff)
		}
	}
}
