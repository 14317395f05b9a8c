package replay_test

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dike/internal/platform"
	"dike/internal/platform/platformtest"
	"dike/internal/replay"
)

// record builds a small machine, runs a fixed interaction script
// against a recorder, and returns the log plus the machine's final
// placement for comparison.
func record(t *testing.T) ([]byte, map[platform.ThreadID]platform.CoreID) {
	t.Helper()
	cfg := platformtest.DefaultConfig()
	cfg.Spec.Sockets[0].Cores[0].Physical = 1
	cfg.Spec.Sockets[1].Cores[0].Physical = 1
	m := platformtest.NewMachine(cfg) // 4 logical cores
	for i := 0; i < 4; i++ {
		prog := platformtest.ConstProgram{Work: 1e6, Demand: platformtest.Demand{AccessesPerWork: 2, MissRatio: 0.3}}
		if err := m.AddThread(platform.ThreadID(i), i/2, prog); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	rec := replay.NewRecorder(m, &buf)
	if err := rec.Start(replay.Meta{Policy: "test", Seed: 7}); err != nil {
		t.Fatal(err)
	}

	if err := rec.Quantum(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := rec.Place(platform.ThreadID(i), platform.CoreID(i)); err != nil {
			t.Fatal(err)
		}
	}
	rec.Sample(0)
	m.Step(0, 100)
	if err := rec.Quantum(100); err != nil {
		t.Fatal(err)
	}
	rec.Sample(100)
	if err := rec.Swap(0, 3, 100); err != nil {
		t.Fatal(err)
	}
	if err := rec.Migrate(1, 3, 100); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), platformtest.Placement(m)
}

// drive replays the same script against a player; any step may be
// perturbed by the caller first.
func newPlayer(t *testing.T, log []byte) *replay.Player {
	t.Helper()
	p, err := replay.NewPlayer(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlayerReproducesRecording(t *testing.T) {
	log, finalPlacement := record(t)
	p := newPlayer(t, log)

	if got := p.Meta(); got.Policy != "test" || got.Seed != 7 {
		t.Fatalf("meta = %+v", got)
	}
	if p.MemCapacity() <= 0 {
		t.Error("MemCapacity not restored")
	}
	if p.Topology().NumCores() != 4 {
		t.Fatalf("topology has %d cores, want 4", p.Topology().NumCores())
	}
	if len(p.Threads()) != 4 {
		t.Fatalf("threads = %v", p.Threads())
	}
	if proc, err := p.ProcessOf(2); err != nil || proc != 1 {
		t.Errorf("ProcessOf(2) = %d, %v; want 1", proc, err)
	}

	// Quantum 1: placement and baseline sample.
	now, ok, err := p.NextQuantum()
	if err != nil || !ok || now != 0 {
		t.Fatalf("NextQuantum = %v %v %v", now, ok, err)
	}
	if len(p.Alive()) != 4 {
		t.Fatalf("alive = %v", p.Alive())
	}
	for i := 0; i < 4; i++ {
		if err := p.Place(platform.ThreadID(i), platform.CoreID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := p.Sample(0); s.Interval != 0 {
		t.Errorf("baseline interval = %v", s.Interval)
	}

	// Quantum 2: a real sample, then the recorded swap and migration.
	now, ok, err = p.NextQuantum()
	if err != nil || !ok || now != 100 {
		t.Fatalf("NextQuantum = %v %v %v", now, ok, err)
	}
	s := p.Sample(100)
	if s.Interval != 100 {
		t.Errorf("interval = %v", s.Interval)
	}
	for i := 0; i < 4; i++ {
		if d := s.Threads[platform.ThreadID(i)]; d.Work <= 0 {
			t.Errorf("thread %d replayed delta has no work: %+v", i, d)
		}
	}
	if err := p.Swap(0, 3, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.Migrate(1, 3, 100); err != nil {
		t.Fatal(err)
	}

	// Log exhausted; placement matches the machine's final state.
	if _, ok, err := p.NextQuantum(); ok || err != nil {
		t.Fatalf("expected clean end of log, got ok=%v err=%v", ok, err)
	}
	for id, want := range finalPlacement {
		got, err := p.CoreOf(id)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("thread %d replayed to core %d, machine ended on %d", id, got, want)
		}
	}
}

func TestPlayerDetectsDivergence(t *testing.T) {
	log, _ := record(t)

	// Wrong call arguments at the first mutation.
	p := newPlayer(t, log)
	p.NextQuantum()
	err := p.Place(0, 2) // recorded: Place(0, 0)
	var derr *replay.DivergenceError
	if !errors.As(err, &derr) || !errors.Is(err, replay.ErrDivergence) {
		t.Fatalf("wrong-argument Place returned %v, want DivergenceError", err)
	}
	if !strings.Contains(derr.Error(), "place") {
		t.Errorf("divergence message %q does not name the recorded event", derr.Error())
	}

	// Wrong call kind: sampling where a placement was recorded.
	p = newPlayer(t, log)
	p.NextQuantum()
	p.Sample(0)
	if err := p.Err(); !errors.Is(err, replay.ErrDivergence) {
		t.Fatalf("out-of-order Sample latched %v, want divergence", err)
	}

	// Under-consumption: skipping recorded events surfaces at the next
	// quantum boundary.
	p = newPlayer(t, log)
	p.NextQuantum()
	if _, _, err := p.NextQuantum(); !errors.Is(err, replay.ErrDivergence) {
		t.Fatalf("skipped events surfaced %v, want divergence", err)
	}

	// Over-consumption: calls past the end of the log diverge.
	p = newPlayer(t, log)
	p.NextQuantum()
	for i := 0; i < 4; i++ {
		p.Place(platform.ThreadID(i), platform.CoreID(i))
	}
	p.Sample(0)
	p.NextQuantum()
	p.Sample(100)
	p.Swap(0, 3, 100)
	p.Migrate(1, 3, 100)
	if p.Err() != nil {
		t.Fatalf("faithful replay diverged: %v", p.Err())
	}
	if err := p.Migrate(2, 0, 999); !errors.Is(err, replay.ErrDivergence) {
		t.Fatalf("call past end of log returned %v, want divergence", err)
	}
}

func TestPlayerRejectsBadLogs(t *testing.T) {
	if _, err := replay.NewPlayer(strings.NewReader("")); err == nil {
		t.Error("empty log accepted")
	}
	if _, err := replay.NewPlayer(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("future version accepted")
	}
	if _, err := replay.NewPlayer(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	// Kind and socket ids size the topology's tables, so they are bounded
	// by the log's kind names and core count.
	for _, core := range []string{`{"id":0,"kind":1000000000,"speed":1,"phys":0}`, `{"id":0,"kind":0,"speed":1,"phys":0,"sock":1000000000}`} {
		if _, err := replay.NewPlayer(strings.NewReader(`{"version":1,"cores":[` + core + `]}`)); err == nil {
			t.Errorf("header core %s accepted", core)
		}
	}

	// A sample event without readings, whether null or missing, is a
	// decode error naming the event (the baseline sample is event 5,
	// after the first boundary and four placements), never a panic.
	log, _ := record(t)
	lines := strings.Split(string(log), "\n")
	if !strings.HasPrefix(lines[6], `{"k":"s","t":0,`) {
		t.Fatalf("line 6 is not the baseline sample: %.40s", lines[6])
	}
	for _, bad := range []string{
		`{"k":"s","t":0,"s":null,"a":0,"b":0,"c":0,"pa":0,"pb":0}`,
		`{"k":"s","t":0,"a":0,"b":0,"c":0,"pa":0,"pb":0}`,
		`{"k":"s","t":0,"s":{"iv":0},"a":0,"b":0,"c":0,"pa":0,"pb":0}`, // no core deltas
		`{"K":"s","t":0,"s":{"iv":0},"a":0,"b":0,"c":0,"pa":0,"pb":0}`, // keys are case-sensitive
	} {
		edited := append(append([]string(nil), lines[:6]...), bad)
		p := newPlayer(t, []byte(strings.Join(append(edited, lines[7:]...), "\n")))
		p.NextQuantum()
		for i := 0; i < 4; i++ {
			if err := p.Place(platform.ThreadID(i), platform.CoreID(i)); err != nil {
				t.Fatal(err)
			}
		}
		if s := p.Sample(0); s == nil || s.Threads == nil {
			t.Errorf("%s: Sample returned %v", bad, s)
		}
		if err := p.Err(); err == nil || errors.Is(err, replay.ErrDivergence) || !strings.Contains(err.Error(), "event 5:") {
			t.Errorf("%s: latched %v, want a decode error naming event 5", bad, err)
		}
	}
}

// TestPlayerReadsLongLines records a run on a machine built here with so
// many threads that a sample line outgrows the player's 64 KiB read
// buffer, and replays it: the line reader has no length limit, and the
// replayed sample equals the recorded one.
func TestPlayerReadsLongLines(t *testing.T) {
	cfg := platformtest.DefaultConfig()
	cfg.Spec = &platform.MachineSpec{
		CoreTypes: []platform.CoreTypeSpec{{Name: "big", Speed: 2, SMTWays: 2}, {Name: "little", Speed: 1, SMTWays: 1}},
		Sockets: []platform.SocketSpec{{
			Cores: []platform.CoreGroup{{Type: "big", Physical: 8}, {Type: "little", Physical: 16}},
			Mem:   platform.MemSpec{Capacity: 16, BaseLatency: 0.008, MaxUtil: 0.96},
		}},
	}
	m := platformtest.NewMachine(cfg)
	const threads = 1000
	for i := 0; i < threads; i++ {
		prog := platformtest.ConstProgram{Work: 1e6, Demand: platformtest.Demand{AccessesPerWork: 1 + float64(i%5), MissRatio: 0.3}}
		if err := m.AddThread(platform.ThreadID(i), i/10, prog); err != nil {
			t.Fatal(err)
		}
	}
	cores := m.Topology().NumCores()
	var buf bytes.Buffer
	rec := replay.NewRecorder(m, &buf)
	if err := rec.Start(replay.Meta{Policy: "long", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Quantum(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threads; i++ {
		if err := rec.Place(platform.ThreadID(i), platform.CoreID(i%cores)); err != nil {
			t.Fatal(err)
		}
	}
	rec.Sample(0)
	m.Step(0, 100)
	if err := rec.Quantum(100); err != nil {
		t.Fatal(err)
	}
	want := rec.Sample(100)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, ln := range bytes.Split(buf.Bytes(), []byte("\n")) {
		longest = max(longest, len(ln))
	}
	if longest <= 64<<10 {
		t.Fatalf("longest line is %d bytes; the test needs one over 64 KiB", longest)
	}

	p := newPlayer(t, buf.Bytes())
	p.NextQuantum()
	for i := 0; i < threads; i++ {
		if err := p.Place(platform.ThreadID(i), platform.CoreID(i%cores)); err != nil {
			t.Fatal(err)
		}
	}
	p.Sample(0)
	if _, ok, err := p.NextQuantum(); !ok || err != nil {
		t.Fatalf("second quantum: ok=%v err=%v", ok, err)
	}
	if got := p.Sample(100); !reflect.DeepEqual(got, want) {
		t.Error("replayed long sample differs from the recorded one")
	}
	if _, ok, err := p.NextQuantum(); ok || err != nil {
		t.Fatalf("expected clean end of log, got ok=%v err=%v", ok, err)
	}
}

// TestDivergenceDescribesCall pins the exact description of the
// diverging call for every verified Player method: after the first
// quantum boundary the recording expects place(0, 0), so each call
// below diverges there.
func TestDivergenceDescribesCall(t *testing.T) {
	log, _ := record(t)
	for _, tc := range []struct {
		name string
		call func(p *replay.Player) error
		want string
	}{
		{"Sample", func(p *replay.Player) error { p.Sample(1234); return p.Err() }, "sample(t=1.234s)"},
		{"Place", func(p *replay.Player) error { return p.Place(0, 2) }, "place(thread=0, core=2)"},
		{"Migrate", func(p *replay.Player) error { return p.Migrate(1, 3, 250) }, "migrate(thread=1, core=3, t=0.250s)"},
		{"Swap", func(p *replay.Player) error { return p.Swap(2, 1, 100500) }, "swap(2, 1, t=100.500s)"},
		{"PowerSample", func(p *replay.Player) error { p.PowerSample(); return p.Err() }, "powersample()"},
		{"SetDVFS", func(p *replay.Player) error { return p.SetDVFS(3, 2) }, "setdvfs(core=3, level=2)"},
	} {
		p := newPlayer(t, log)
		if _, _, err := p.NextQuantum(); err != nil {
			t.Fatal(err)
		}
		var derr *replay.DivergenceError
		if err := tc.call(p); !errors.As(err, &derr) {
			t.Fatalf("%s: returned %v, want a DivergenceError", tc.name, err)
		}
		if derr.Got != tc.want || derr.Index != 1 || derr.Want != "place(thread=0, core=0)" {
			t.Errorf("%s: divergence at event %d: recorded %q, got %q; want event 1, %q, %q",
				tc.name, derr.Index, derr.Want, derr.Got, "place(thread=0, core=0)", tc.want)
		}
	}
}
