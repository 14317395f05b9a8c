package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/sim"
)

// checkEventLine is the scanner's differential check: whenever the
// scanner accepts line, encoding/json must accept it into an event too,
// and both must give the same event bit for bit (a NaN equals a NaN).
// It reports whether the scanner accepted the line.
func checkEventLine(t testing.TB, line []byte) bool {
	t.Helper()
	var sc scanner
	got, err := sc.decode(line)
	if err != nil {
		return false
	}
	var want event
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", line, err)
	}
	if diff := eventDiff(got, &want); diff != "" {
		t.Fatalf("scanner and encoding/json disagree on %q: %s", line, diff)
	}
	return true
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// eventDiff describes how a scanned event differs from the one
// encoding/json decoded, or returns "". A nil and an empty slice or map
// are the same.
func eventDiff(got, want *event) string {
	switch {
	case got.K != want.K || got.Now != want.Now || got.Err != want.Err || got.L != want.L:
		return fmt.Sprintf("k/t/err/l: %q %d %q %d vs %q %d %q %d", got.K, got.Now, got.Err, got.L, want.K, want.Now, want.Err, want.L)
	case got.A != want.A || got.B != want.B || got.Core != want.Core || got.PostA != want.PostA || got.PostB != want.PostB:
		return fmt.Sprintf("ids: %+v vs %+v", *got, *want)
	case fmt.Sprint(got.Alive) != fmt.Sprint(want.Alive):
		return fmt.Sprintf("alive: %v vs %v", got.Alive, want.Alive)
	case !sameFloat(float64(got.E), float64(want.E)) || len(got.W) != len(want.W):
		return fmt.Sprintf("power: %v %v vs %v %v", got.W, got.E, want.W, want.E)
	case got.S != nil || (got.sample == nil) != (want.S == nil):
		return fmt.Sprintf("sample presence: %v vs %v", got.sample != nil, want.S != nil)
	}
	for i := range got.W {
		if !sameFloat(float64(got.W[i]), float64(want.W[i])) {
			return fmt.Sprintf("pw[%d]: %v vs %v", i, got.W[i], want.W[i])
		}
	}
	if want.S == nil {
		return ""
	}
	return sampleDiff(got.sample, want.S)
}

// sampleDiff describes how a decoded sample differs from a wire sample.
func sampleDiff(got *platform.Sample, want *wireSample) string {
	if !sameFloat(got.Interval, float64(want.Interval)) {
		return fmt.Sprintf("interval %v vs %v", got.Interval, want.Interval)
	}
	if len(got.Threads) != len(want.Threads) || len(got.Cores) != len(want.Cores) || len(got.Instr) != len(want.Instr) {
		return fmt.Sprintf("sizes th/co/in %d/%d/%d vs %d/%d/%d",
			len(got.Threads), len(got.Cores), len(got.Instr), len(want.Threads), len(want.Cores), len(want.Instr))
	}
	for id, w := range want.Threads {
		g, ok := got.Threads[id]
		if !ok || g.Migrations != w.Migrations || !sameFloat(g.Interval, float64(w.Interval)) ||
			!sameFloat(g.Work, float64(w.Work)) || !sameFloat(g.Instructions, float64(w.Instructions)) ||
			!sameFloat(g.Accesses, float64(w.Accesses)) || !sameFloat(g.Misses, float64(w.Misses)) {
			return fmt.Sprintf("thread %d: %+v vs %+v", id, g, w)
		}
	}
	for i, w := range want.Cores {
		if g := got.Cores[i]; !sameFloat(g.Interval, float64(w.Interval)) || !sameFloat(g.ServedMisses, float64(w.ServedMisses)) {
			return fmt.Sprintf("core %d: %+v vs %+v", i, g, w)
		}
	}
	for id, w := range want.Instr {
		if g, ok := got.Instr[id]; !ok || !sameFloat(g, float64(w)) {
			return fmt.Sprintf("instr %d: %v vs %v", id, g, w)
		}
	}
	return ""
}

// handMadeLines are event lines no recording in the tests produces:
// escaped error strings, an empty alive set, and sample events whose
// readings are null or missing (which the scanner or the Player must
// reject).
var handMadeLines = []string{
	`{"k":"m","t":500,"a":1,"b":0,"c":2,"pa":1,"pb":0,"err":"machine: \"core\" 2 <busy>\n\ttab \\ \/ 😀 é"}`,
	`{"k":"w","t":500,"a":1,"b":2,"c":0,"pa":1,"pb":0,"err":"bad \udc00 surrogate é"}`,
	`{"k":"q","t":0,"alive":[],"a":0,"b":0,"c":0,"pa":0,"pb":0}`,
	`{"k":"s","t":0,"s":null,"a":0,"b":0,"c":0,"pa":0,"pb":0}`,
	`{"k":"s","t":0,"a":0,"b":0,"c":0,"pa":0,"pb":0}`,
	`{"k":"e","t":0,"a":0,"b":0,"c":0,"pa":0,"pb":0,"pw":["NaN",-0,"+Inf",1e-320],"pe":"-Inf"}`,
	"\t{ \"k\" : \"d\" , \"t\" : 1500 , \"c\" : 4 , \"l\" : 2 }\r\n",
}

// TestScannerHandMadeLines runs the differential check on the hand-made
// lines, and requires each of them but the null sample to be accepted.
func TestScannerHandMadeLines(t *testing.T) {
	for _, line := range handMadeLines {
		if got, want := checkEventLine(t, []byte(line)), !strings.Contains(line, "null"); got != want {
			t.Errorf("scanner accepted %q: %v, want %v", line, got, want)
		}
	}
}

// TestScannerIsStricter lists lines encoding/json accepts into an event
// but the scanner rejects: keys in another case, repeated or unknown
// keys, nulls, and values encoding/json would coerce or ignore.
func TestScannerIsStricter(t *testing.T) {
	for _, line := range []string{
		`{"K":"q","t":0}`,
		`{"k":"q","T":0}`,
		`{"k":"q","t":0,"t":0}`,
		`{"k":"q","t":0,"x":1}`,
		`{"k":"q","t":null}`,
		`{"k":"q","alive":null}`,
		`{"k":"s","t":0,"s":{"iv":0,"Th":{}}}`,
		`{"k":"s","t":0,"s":{"iv":0,"th":{"1":{},"01":{}}}}`,
		`{"k":"s","t":0,"s":{"iv":0,"co":[{"iv":1,"iv":2}]}}`,
		`{"k":"s","t":0,"s":{"iv":0,"th":{"1":null}}}`,
	} {
		if json.Unmarshal([]byte(line), new(event)) != nil {
			t.Errorf("encoding/json rejects %q; the case tests nothing", line)
		}
		var sc scanner
		if _, err := sc.decode([]byte(line)); err == nil {
			t.Errorf("scanner accepted %q", line)
		}
	}
}

// TestScannerRejectsMalformed lists lines both decoders reject.
func TestScannerRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		``, `{`, `[]`, `{"k":"q"`, `{"k":"q",}`, `{"k":"q"}{}`, `{"k":"q"} x`,
		`{"t":01}`, `{"t":1.5}`, `{"t":+1}`, `{"t":1e3}`, `{"t":9223372036854775808}`, `{"t":"1"}`,
		`{"pe":.5}`, `{"pe":1.}`, `{"pe":1e}`, `{"pe":1e400}`, `{"pe":"nan"}`, `{"pe":"Infinity"}`, `{"pe":true}`,
		`{"pw":[1,]}`, `{"pw":[,1]}`, `{"pw":[1 2]}`, `{"alive":[1.5]}`,
		`{"k":"q` + "\x01" + `"}`, `{"err":"\x"}`, `{"err":"unterminated}`,
		`{"s":{"iv":0,"th":{"x":{}}}}`, `{"s":{"co":{}}}`, `{"s":[]}`,
	} {
		if json.Unmarshal([]byte(line), new(event)) == nil {
			t.Errorf("encoding/json accepts %q", line)
		}
		if checkEventLine(t, []byte(line)) {
			t.Errorf("scanner accepted %q", line)
		}
	}
}

// benchLog records a 40-thread Table I machine for 200 quanta: each
// quantum boundary, sample and swap, as a Dike run logs them. It returns
// the log, the samples the machine produced and the machine.
func benchLog(tb testing.TB) ([]byte, []*platform.Sample, *platformtest.Machine) {
	tb.Helper()
	m := platformtest.NewMachine(platformtest.DefaultConfig())
	n := m.Topology().NumCores()
	for i := 0; i < 40; i++ {
		prog := platformtest.ConstProgram{Work: 1e9, Demand: platformtest.Demand{AccessesPerWork: float64(1 + i%7), MissRatio: 0.1 + 0.02*float64(i%9)}}
		if err := m.AddThread(platform.ThreadID(i), i/4, prog); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	var samples []*platform.Sample
	rec := NewRecorder(m, &buf)
	if err := rec.Start(Meta{Policy: "bench", Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	for q := 0; q < 200; q++ {
		now := sim.Time(q * 500)
		if err := rec.Quantum(now); err != nil {
			tb.Fatal(err)
		}
		if q == 0 {
			for i := 0; i < 40; i++ {
				if err := rec.Place(platform.ThreadID(i), platform.CoreID(i%n)); err != nil {
					tb.Fatal(err)
				}
			}
		}
		samples = append(samples, rec.Sample(now))
		if err := rec.Swap(platform.ThreadID(q%40), platform.ThreadID((q+7)%40), now); err != nil {
			tb.Fatal(err)
		}
		m.Step(now, 500)
	}
	if err := rec.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), samples, m
}

// BenchmarkPlayerDecode times the player's decode layer alone: NewPlayer
// and draining every event, with no policy behind it.
func BenchmarkPlayerDecode(b *testing.B) {
	log, _, _ := benchLog(b)
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := NewPlayer(bytes.NewReader(log))
		if err != nil {
			b.Fatal(err)
		}
		for {
			ev, err := p.peek()
			if err != nil {
				b.Fatal(err)
			}
			if ev == nil {
				break
			}
			p.take()
		}
	}
}

// BenchmarkRecorderEncode times the recorder's encode layer alone: the
// quantum and sample events of benchLog's run, written to io.Discard.
func BenchmarkRecorderEncode(b *testing.B) {
	_, samples, m := benchLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := NewRecorder(&sampler{Platform: m, samples: samples}, io.Discard)
		if err := rec.Start(Meta{Policy: "bench", Seed: 1}); err != nil {
			b.Fatal(err)
		}
		for q := range samples {
			if err := rec.Quantum(sim.Time(q * 500)); err != nil {
				b.Fatal(err)
			}
			rec.Sample(sim.Time(q * 500))
		}
		if err := rec.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
