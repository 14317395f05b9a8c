package replay_test

import (
	"bytes"
	"errors"
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
	return buf.Bytes(), m.PlacementSnapshot()
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
	if p.Quanta() != 2 {
		t.Errorf("quanta = %d, want 2", p.Quanta())
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
}
