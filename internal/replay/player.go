package replay

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// ErrDivergence is the sentinel matched by errors.Is when a replayed
// policy's behaviour departs from the recorded stream. The concrete
// error is a *DivergenceError naming the event where replay broke.
var ErrDivergence = errors.New("replay: run diverged from recording")

// DivergenceError reports the first point at which the replayed run
// stopped matching the recorded one.
type DivergenceError struct {
	// Index is the 0-based index of the log event where replay diverged.
	Index int
	// Want describes the recorded event; Got describes the call the
	// policy made instead (or "" when the log ended or had spare events).
	Want, Got string
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("%v: event %d: recorded %s, got %s", ErrDivergence, e.Index, e.Want, e.Got)
}

// Unwrap makes errors.Is(err, ErrDivergence) succeed.
func (e *DivergenceError) Unwrap() error { return ErrDivergence }

// describe renders an event for divergence messages.
func describe(ev *event) string {
	if ev == nil {
		return "<end of log>"
	}
	switch ev.K {
	case evQuantum:
		return fmt.Sprintf("quantum(t=%v)", ev.Now)
	case evSample:
		return fmt.Sprintf("sample(t=%v)", ev.Now)
	case evPlace:
		return fmt.Sprintf("place(thread=%d, core=%d)", ev.A, ev.Core)
	case evMigrate:
		return fmt.Sprintf("migrate(thread=%d, core=%d, t=%v)", ev.A, ev.Core, ev.Now)
	case evSwap:
		return fmt.Sprintf("swap(%d, %d, t=%v)", ev.A, ev.B, ev.Now)
	case evPower:
		return fmt.Sprintf("powersample(t=%v)", ev.Now)
	case evDVFS:
		return fmt.Sprintf("setdvfs(core=%d, level=%d, t=%v)", ev.Core, ev.L, ev.Now)
	}
	return fmt.Sprintf("unknown event %q", ev.K)
}

// Player implements platform.Platform from a recorded log, with no
// machine model behind it. Reads are served from replayed state;
// Sample and the affinity calls are verified against the recorded
// stream in order and produce the recorded outcomes. Drive the run
// with Run, which fires the policy at each recorded quantum boundary.
//
// The player decodes its log a chunk ahead of the policy. A chunk is
// the whole lines in the read buffer; its decode, split by bytes across
// one goroutine per part, runs while the policy consumes the chunk
// before. At most one chunk's decode is in flight, and its goroutines
// wait on nothing, so a player that is dropped leaves nothing running
// once that decode ends.
type Player struct {
	hdr       header
	topo      *platform.Topology
	threads   []platform.ThreadID
	procs     map[platform.ThreadID]int
	placement map[platform.ThreadID]platform.CoreID
	alive     []platform.ThreadID

	// The log is read into buf[:w]; buf[r:w] is not yet in a chunk.
	rd   io.Reader
	buf  []byte
	r, w int
	rerr error // the reader's final error, io.EOF at a clean end

	parts  []part         // one per goroutine of a chunk's decode
	decode sync.WaitGroup // the chunk decode in flight
	busy   bool           // a chunk decode is in flight
	chunk  []*event       // the decoded chunk the policy is consuming
	pos    int            // index in chunk of the next event to hand out
	cerr   error          // the decode error that ends chunk

	pending *event // one-event lookahead
	idx     int    // index of the next event to consume
	lastNow sim.Time
	quanta  int
	sticky  error // first divergence; latched because Sample cannot return an error
}

// part is one goroutine's share of a chunk: a run of whole lines,
// decoded in place into evs. Decoding stops at the first bad line,
// whose error is err.
type part struct {
	scan scanner
	evs  []*event
	err  error
}

// readSize is the size of the player's read buffer. A line longer than
// the buffer grows it.
const readSize = 64 << 10

// NewPlayer reads the log header from r and returns a player positioned
// before the first event. The header is the first line, decoded with
// encoding/json; each later line is one event, decoded by the scanner.
// The decode of the event lines read along with the header starts
// before NewPlayer returns.
func NewPlayer(r io.Reader) (*Player, error) {
	p := &Player{rd: r, buf: make([]byte, readSize), parts: make([]part, runtime.GOMAXPROCS(0))}
	p.fill()
	nl := bytes.IndexByte(p.buf[:p.w], '\n')
	switch {
	case nl >= 0:
		p.r = nl + 1
	case p.w > 0 && errors.Is(p.rerr, io.EOF):
		p.r = p.w // a header without a newline and no events
	default:
		return nil, fmt.Errorf("replay: reading header: %w", p.rerr)
	}
	var h header
	if err := json.Unmarshal(p.buf[:p.r], &h); err != nil {
		return nil, fmt.Errorf("replay: reading header: %w", err)
	}
	if h.Version != Version {
		return nil, fmt.Errorf("replay: log version %d, player supports %d", h.Version, Version)
	}
	cores := make([]platform.Core, len(h.Cores))
	kinds := max(len(h.KindNames), 2)
	for i, c := range h.Cores {
		// The topology and a governor allocate tables per kind and per
		// socket; a recorded topology has no kind past its name table
		// and no more sockets than cores.
		if int(c.Kind) >= kinds || c.Socket >= len(h.Cores) {
			return nil, fmt.Errorf("replay: header: core %d has kind %d and socket %d; the log names %d kinds and %d cores", c.ID, c.Kind, c.Socket, kinds, len(h.Cores))
		}
		cores[i] = platform.Core{ID: c.ID, Kind: c.Kind, Speed: float64(c.Speed), Physical: c.Physical, Socket: c.Socket}
	}
	var err error
	p.topo, err = platform.NewTopologyNamed(cores, h.KindNames)
	if err != nil {
		return nil, fmt.Errorf("replay: header: %w", err)
	}
	p.hdr = h
	p.procs = make(map[platform.ThreadID]int, len(h.Threads))
	p.placement = make(map[platform.ThreadID]platform.CoreID, len(h.Threads))
	for _, t := range h.Threads {
		if _, ok := p.procs[t.ID]; ok {
			return nil, fmt.Errorf("replay: header: duplicate thread %d", t.ID)
		}
		p.threads = append(p.threads, t.ID)
		p.procs[t.ID] = t.Proc
		p.placement[t.ID] = 0
	}
	p.launch()
	return p, nil
}

// Meta returns the policy metadata the log was recorded under.
func (p *Player) Meta() Meta {
	return Meta{Policy: p.hdr.Policy, Seed: p.hdr.Seed, PolicyConfig: p.hdr.PolicyConfig, Static: p.hdr.Static, Power: p.hdr.Power}
}

// LastTime returns the simulated time of the most recent event.
func (p *Player) LastTime() sim.Time { return p.lastNow }

// Err returns the first divergence or decode error hit so far, or nil.
func (p *Player) Err() error { return p.sticky }

// peek returns the next event without consuming it, or nil at a clean
// end of log. Blank lines are skipped. Events come out in log order,
// and a decode, check or read error is latched at the index of the
// event it stands in for, whichever goroutine decoded the line.
func (p *Player) peek() (*event, error) {
	if p.sticky != nil {
		return nil, p.sticky
	}
	if p.pending != nil {
		return p.pending, nil
	}
	for p.pos == len(p.chunk) {
		switch {
		case p.cerr != nil:
			return nil, p.latch(p.cerr)
		case p.busy:
			p.join()
			if p.cerr == nil {
				p.refill() // decode the next chunk while this one is consumed
			}
		case p.rerr == nil:
			p.refill()
		case errors.Is(p.rerr, io.EOF):
			return nil, nil
		default:
			return nil, p.latch(p.rerr)
		}
	}
	ev := p.chunk[p.pos]
	p.pos++
	if err := p.check(ev); err != nil {
		return nil, p.latch(err)
	}
	p.pending = ev
	return ev, nil
}

// latch records err as the error at the next event's index.
func (p *Player) latch(err error) error {
	p.sticky = fmt.Errorf("replay: event %d: %w", p.idx, err)
	return p.sticky
}

// fill reads until buf[r:w] holds a newline or the reader is done. It
// reads with single Read calls, so a line is handed on as soon as it
// arrives, and gives up with io.ErrNoProgress after as many empty reads
// in a row as bufio.Reader allows.
func (p *Player) fill() {
	seen := p.r // buf[p.r:seen] holds no newline
	empty := 0
	for p.rerr == nil && bytes.IndexByte(p.buf[seen:p.w], '\n') < 0 {
		seen = p.w
		if p.w == len(p.buf) {
			p.buf = append(p.buf, make([]byte, len(p.buf))...)
		}
		n, err := p.rd.Read(p.buf[p.w:])
		p.w += n
		switch {
		case err != nil:
			p.rerr = err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == 100 {
				p.rerr = io.ErrNoProgress
			}
		}
	}
}

// refill moves the bytes not yet in a chunk to the front of the buffer,
// reads at least one more whole line and launches its chunk. The buffer
// is free: the chunk decode before has been joined, and decoded events
// hold no reference to it.
func (p *Player) refill() {
	p.w = copy(p.buf, p.buf[p.r:p.w])
	p.r = 0
	p.fill()
	p.launch()
}

// launch cuts the whole lines of buf[r:w] into a chunk, along with a
// last line without a newline once the reader is at its end, and starts
// the chunk's decode: the chunk is split by bytes at line boundaries
// into one part per goroutine. It does nothing if there is no line.
func (p *Player) launch() {
	end := p.w
	if !errors.Is(p.rerr, io.EOF) {
		end = p.r + bytes.LastIndexByte(p.buf[p.r:p.w], '\n') + 1
	}
	chunk := p.buf[p.r:end]
	p.r = end
	if len(chunk) == 0 {
		return
	}
	for i := range p.parts {
		seg := chunk
		if rest := len(p.parts) - i; rest > 1 {
			cut := len(chunk) / rest
			if nl := bytes.IndexByte(chunk[cut:], '\n'); nl >= 0 {
				seg = chunk[:cut+nl+1]
			}
		}
		chunk = chunk[len(seg):]
		pt := &p.parts[i]
		pt.evs, pt.err = pt.evs[:0], nil
		if len(seg) > 0 {
			p.decode.Add(1)
			go pt.run(seg, &p.decode)
		}
	}
	p.busy = true
}

// run decodes the lines of seg into pt, skipping blank ones.
func (pt *part) run(seg []byte, done *sync.WaitGroup) {
	defer done.Done()
	for len(seg) > 0 {
		n := bytes.IndexByte(seg, '\n') + 1
		if n == 0 {
			n = len(seg)
		}
		line := seg[:n]
		seg = seg[n:]
		if blank(line) {
			continue
		}
		ev, err := pt.scan.decode(line)
		if err != nil {
			pt.err = err
			return
		}
		pt.evs = append(pt.evs, ev)
	}
}

// join waits for the chunk decode in flight and makes its events, in
// log order up to the first bad line, the chunk being consumed.
func (p *Player) join() {
	p.decode.Wait()
	p.busy = false
	p.chunk, p.pos = p.chunk[:0], 0
	for i := range p.parts {
		pt := &p.parts[i]
		p.chunk = append(p.chunk, pt.evs...)
		if pt.err != nil {
			p.cerr = pt.err
			return
		}
	}
}

func blank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// check rejects an event whose thread or core ids fall outside the
// header's thread table and topology, or a sample that lacks its
// readings or a delta for each core: policies index their per-thread
// and per-core state by these. A failed call is exempt: its ids are
// only compared with the replayed call, never applied, and a platform
// records an out-of-range request as it was made.
func (p *Player) check(ev *event) error {
	switch {
	case ev.K == evQuantum:
		for _, id := range ev.Alive {
			if err := p.checkThread(id); err != nil {
				return err
			}
		}
	case ev.K == evSample:
		if ev.sample == nil {
			return errors.New(`sample event without "s"`)
		}
		if n := p.topo.NumCores(); len(ev.sample.Cores) != n {
			return fmt.Errorf("sample has %d core deltas, the topology %d cores", len(ev.sample.Cores), n)
		}
	case ev.Err != "":
	case ev.K == evPlace, ev.K == evMigrate:
		return errors.Join(p.checkThread(ev.A), p.checkCore(ev.Core), p.checkCore(ev.PostA))
	case ev.K == evSwap:
		return errors.Join(p.checkThread(ev.A), p.checkThread(ev.B), p.checkCore(ev.PostA), p.checkCore(ev.PostB))
	case ev.K == evDVFS:
		return p.checkCore(ev.Core)
	}
	return nil
}

func (p *Player) checkThread(id platform.ThreadID) error {
	if _, ok := p.procs[id]; !ok {
		return fmt.Errorf("thread %d is not in the header's thread table", id)
	}
	return nil
}

func (p *Player) checkCore(c platform.CoreID) error {
	if n := p.topo.NumCores(); c < 0 || int(c) >= n {
		return fmt.Errorf("core %d is outside the header's %d-core topology", c, n)
	}
	return nil
}

// take consumes the event returned by the last peek.
func (p *Player) take() {
	p.pending = nil
	p.idx++
}

// expect consumes the next event, requiring it to match the call the
// policy just made. match checks argument equality; got describes the
// call, and runs only on a mismatch, which is latched and returned.
func (p *Player) expect(got func() string, match func(*event) bool) (*event, error) {
	ev, err := p.peek()
	if err != nil {
		return nil, err
	}
	if ev == nil || !match(ev) {
		p.sticky = &DivergenceError{Index: p.idx, Want: describe(ev), Got: got()}
		return nil, p.sticky
	}
	p.take()
	p.lastNow = ev.Now
	return ev, nil
}

// recordedErr reconstructs an error recorded on an event.
func recordedErr(ev *event) error {
	if ev.Err == "" {
		return nil
	}
	return errors.New(ev.Err)
}

// Topology implements platform.Platform.
func (p *Player) Topology() *platform.Topology { return p.topo }

// MemCapacity implements platform.Platform.
func (p *Player) MemCapacity() float64 { return float64(p.hdr.MemCapacity) }

// Threads implements platform.Platform.
func (p *Player) Threads() []platform.ThreadID {
	out := make([]platform.ThreadID, len(p.threads))
	copy(out, p.threads)
	return out
}

// Alive implements platform.Platform: the alive set recorded at the
// current quantum boundary (empty before the first).
func (p *Player) Alive() []platform.ThreadID {
	out := make([]platform.ThreadID, len(p.alive))
	copy(out, p.alive)
	return out
}

// CoreOf implements platform.Platform from replayed placement state.
func (p *Player) CoreOf(id platform.ThreadID) (platform.CoreID, error) {
	c, ok := p.placement[id]
	if !ok {
		return 0, fmt.Errorf("replay: unknown thread %d", id)
	}
	return c, nil
}

// ProcessOf implements platform.Platform.
func (p *Player) ProcessOf(id platform.ThreadID) (int, error) {
	proc, ok := p.procs[id]
	if !ok {
		return 0, fmt.Errorf("replay: unknown thread %d", id)
	}
	return proc, nil
}

// Sample implements platform.Platform: it verifies the call against the
// stream and returns the recorded readings in a freshly allocated
// sample, which belongs to the caller. Sample cannot return an error,
// so on divergence it returns an empty zero-interval sample — which
// policies treat as "nothing measured yet" — and latches the divergence
// for Run to surface.
func (p *Player) Sample(now sim.Time) *platform.Sample {
	ev, err := p.expect(func() string { return fmt.Sprintf("sample(t=%v)", now) }, func(ev *event) bool {
		return ev.K == evSample && ev.Now == now
	})
	if err != nil {
		return &platform.Sample{
			Threads: map[platform.ThreadID]counters.ThreadDelta{},
			Instr:   map[platform.ThreadID]float64{},
		}
	}
	return ev.sample
}

// Place implements platform.Platform, applying the recorded outcome.
func (p *Player) Place(id platform.ThreadID, core platform.CoreID) error {
	ev, err := p.expect(func() string { return fmt.Sprintf("place(thread=%d, core=%d)", id, core) }, func(ev *event) bool {
		return ev.K == evPlace && ev.A == id && ev.Core == core
	})
	if err != nil {
		return err
	}
	if ev.Err == "" {
		p.placement[id] = ev.PostA
	}
	return recordedErr(ev)
}

// Migrate implements platform.Platform. The thread lands on the
// recorded post-migration core, which on a faulty recorded platform may
// be where it already was (silently dropped affinity change).
func (p *Player) Migrate(id platform.ThreadID, core platform.CoreID, now sim.Time) error {
	ev, err := p.expect(func() string { return fmt.Sprintf("migrate(thread=%d, core=%d, t=%v)", id, core, now) }, func(ev *event) bool {
		return ev.K == evMigrate && ev.A == id && ev.Core == core && ev.Now == now
	})
	if err != nil {
		return err
	}
	if ev.Err == "" {
		p.placement[id] = ev.PostA
	}
	return recordedErr(ev)
}

// Swap implements platform.Platform, applying both recorded outcomes.
func (p *Player) Swap(a, b platform.ThreadID, now sim.Time) error {
	ev, err := p.expect(func() string { return fmt.Sprintf("swap(%d, %d, t=%v)", a, b, now) }, func(ev *event) bool {
		return ev.K == evSwap && ev.A == a && ev.B == b && ev.Now == now
	})
	if err != nil {
		return err
	}
	if ev.Err == "" {
		p.placement[a] = ev.PostA
		p.placement[b] = ev.PostB
	}
	return recordedErr(ev)
}

// PowerSample implements platform.PowerControl: it verifies the call
// against the stream and returns the recorded reading. Like Sample it
// cannot error, so on divergence it returns the zero sample and latches
// the divergence for Run to surface.
func (p *Player) PowerSample() platform.PowerSample {
	ev, err := p.expect(func() string { return "powersample()" }, func(ev *event) bool {
		return ev.K == evPower
	})
	if err != nil {
		return platform.PowerSample{}
	}
	s := platform.PowerSample{Energy: float64(ev.E)}
	if len(ev.W) > 0 {
		s.Watts = make([]float64, len(ev.W))
		for i, w := range ev.W {
			s.Watts[i] = float64(w)
		}
	}
	return s
}

// SetDVFS implements platform.PowerControl, verifying the actuation —
// core and level — against the recorded stream and reproducing the
// recorded outcome.
func (p *Player) SetDVFS(core platform.CoreID, level int) error {
	ev, err := p.expect(func() string { return fmt.Sprintf("setdvfs(core=%d, level=%d)", core, level) }, func(ev *event) bool {
		return ev.K == evDVFS && ev.Core == core && ev.L == level
	})
	if err != nil {
		return err
	}
	return recordedErr(ev)
}

// NextQuantum advances to the next recorded quantum boundary, loading
// its alive set. It returns ok=false at a clean end of log. A
// non-quantum event in next position means the policy consumed fewer
// events in the previous quantum than the recording holds — that, too,
// is divergence.
func (p *Player) NextQuantum() (now sim.Time, ok bool, err error) {
	ev, err := p.peek()
	if err != nil {
		return 0, false, err
	}
	if ev == nil {
		return 0, false, nil
	}
	if ev.K != evQuantum {
		p.sticky = &DivergenceError{Index: p.idx, Want: describe(ev), Got: "<quantum boundary: recorded events left unconsumed>"}
		return 0, false, p.sticky
	}
	p.take()
	p.lastNow = ev.Now
	p.alive = ev.Alive
	p.quanta++
	return ev.Now, true, nil
}

// Run drives pol through every recorded quantum: for each boundary it
// loads the recorded alive set and invokes pol.Quantum at the recorded
// time. It returns the number of quanta replayed and the first
// divergence, decode or policy error.
func Run(p *Player, pol sim.Policy) (int, error) {
	for {
		now, ok, err := p.NextQuantum()
		if err != nil {
			return p.quanta, err
		}
		if !ok {
			return p.quanta, nil
		}
		if err := pol.Quantum(now); err != nil {
			// A latched divergence is the root cause; prefer it over the
			// policy's view of the garbage it was handed.
			if p.sticky != nil {
				return p.quanta, p.sticky
			}
			return p.quanta, fmt.Errorf("replay: policy %q failed at %v: %w", pol.Name(), now, err)
		}
		if p.sticky != nil {
			return p.quanta, p.sticky
		}
	}
}

var (
	_ platform.Platform     = (*Player)(nil)
	_ platform.PowerControl = (*Player)(nil)
)
