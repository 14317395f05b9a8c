package replay

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"testing/iotest"
	"time"

	"dike/internal/sim"
)

// drain reads a log through a player as Run does, peek then take, and
// returns every event handed out with the error that ended the log, or
// nil at a clean end.
func drain(r io.Reader) ([]*event, error) {
	p, err := NewPlayer(r)
	if err != nil {
		return nil, err
	}
	var evs []*event
	for {
		ev, err := p.peek()
		if ev == nil || err != nil {
			return evs, err
		}
		evs = append(evs, ev)
		p.take()
	}
}

// serialDecode decodes the event lines of log one after another with a
// single scanner, up to the first line it rejects.
func serialDecode(log []byte) []*event {
	var sc scanner
	var evs []*event
	for _, line := range bytes.SplitAfter(log, []byte("\n"))[1:] {
		if blank(line) {
			continue
		}
		ev, err := sc.decode(line)
		if err != nil {
			break
		}
		evs = append(evs, ev)
	}
	return evs
}

// stallReader reads nothing and reports no error.
type stallReader struct{}

func (stallReader) Read([]byte) (int, error) { return 0, nil }

// TestPlayerChunkedDecode runs logs edited around the player's chunk
// boundaries, and readers that split, stall or fail, through the player
// at several GOMAXPROCS values. The events handed out must equal a
// serial decode of the same bytes, and each log must end after the same
// number of events, with the same error text, as it did under the
// line-at-a-time bufio reader the chunked decode replaced; the table
// holds what that reader gave.
func TestPlayerChunkedDecode(t *testing.T) {
	log, _, _ := benchLog(t)
	log = log[:bytes.LastIndexByte(log[:5*readSize], '\n')+1] // five chunks
	hdr := bytes.IndexByte(log, '\n') + 1
	// Chunk 1 ends at the last newline of the first buffer's worth, when
	// a Read fills the buffer, as bytes.Reader does.
	e1 := bytes.LastIndexByte(log[:readSize], '\n') + 1
	p, err := NewPlayer(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if p.r != e1 {
		t.Fatalf("chunk 1 ends at byte %d, want %d", p.r, e1)
	}
	lastOfChunk1 := bytes.LastIndexByte(log[:e1-1], '\n') + 1
	lastLine := bytes.LastIndexByte(log[:len(log)-1], '\n') + 1

	// edit returns a copy of log with b in place of log[at:at+cut].
	edit := func(at, cut int, b []byte) []byte {
		return append(append(append([]byte(nil), log[:at]...), b...), log[at+cut:]...)
	}
	// bad makes the line starting at at undecodable, keeping its length.
	bad := func(at int) []byte { return edit(at, 5, []byte(`{"K":`)) }
	// A swap in chunk 2 with a two-digit thread id, which check rejects
	// once the id is out of the header's table.
	swap := regexp.MustCompile(`"k":"w","t":\d+,"a":\d\d,`).FindIndex(log[e1:])
	if swap == nil {
		t.Fatal("no swap with a two-digit thread id in chunk 2")
	}
	outOfTable := edit(e1+swap[1]-3, 2, []byte("99"))
	// Blank lines inserted after chunk 1's last line run past the first
	// buffer's end, so chunk 1 ends and chunk 2 starts with blank lines.
	blanks := bytes.Repeat([]byte(" \t\r\n\n"), (readSize-e1)/5+20)
	pad := bytes.Repeat([]byte(" "), 100<<10)
	errDisk := errors.New("disk gone")
	// failAt and stallAt wrap a reader that fails, or stalls, after n
	// bytes.
	failAt := func(n int64) func(io.Reader) io.Reader {
		return func(r io.Reader) io.Reader { return io.MultiReader(io.LimitReader(r, n), iotest.ErrReader(errDisk)) }
	}
	stallAt := func(n int64) func(io.Reader) io.Reader {
		return func(r io.Reader) io.Reader { return io.MultiReader(io.LimitReader(r, n), stallReader{}) }
	}

	cases := []struct {
		name string
		log  []byte
		r    func(io.Reader) io.Reader
	}{
		{"whole", log, nil},
		{"one-byte-reads", log, iotest.OneByteReader},
		{"half-reads", log, iotest.HalfReader},
		{"data-with-EOF", log, iotest.DataErrReader},
		{"read-error-mid-line", log, failAt(int64(e1) + 100)},
		{"read-error-at-line-end", log, failAt(int64(e1))},
		{"read-error-in-header", log, failAt(100)},
		{"stalled-reader", log, stallAt(int64(e1) + 100)},
		{"bad-first-line", bad(hdr), nil},
		{"bad-last-line-of-chunk", bad(lastOfChunk1), nil},
		{"bad-line-after-refill", bad(e1), nil},
		{"bad-last-line", bad(lastLine), nil},
		{"thread-out-of-table", outOfTable, nil},
		{"blank-lines-across-chunks", edit(e1, 0, blanks), nil},
		{"blank-lines-across-chunks-half-reads", edit(e1, 0, blanks), iotest.HalfReader},
		{"no-final-newline", log[:len(log)-1], nil},
		{"long-line", edit(e1, 0, pad), nil},
		{"long-first-line", edit(hdr, 0, pad), nil},
		{"long-line-half-reads", edit(e1, 0, pad), iotest.HalfReader},
	}
	// What each log gave under the bufio reader: the events handed out
	// before the log ended, and the error, or "" at a clean end.
	want := map[string]struct {
		n   int
		err string
	}{
		"whole":                                {176, ""},
		"one-byte-reads":                       {176, ""},
		"half-reads":                           {176, ""},
		"data-with-EOF":                        {176, ""},
		"read-error-mid-line":                  {68, "replay: event 68: disk gone"},
		"read-error-at-line-end":               {68, "replay: event 68: disk gone"},
		"read-error-in-header":                 {0, "replay: reading header: disk gone"},
		"stalled-reader":                       {68, "replay: event 68: multiple Read calls return no data or error"},
		"bad-first-line":                       {0, `replay: event 0: byte 5: unknown event key "K"`},
		"bad-last-line-of-chunk":               {67, `replay: event 67: byte 5: unknown event key "K"`},
		"bad-line-after-refill":                {68, `replay: event 68: byte 5: unknown event key "K"`},
		"bad-last-line":                        {175, `replay: event 175: byte 5: unknown event key "K"`},
		"thread-out-of-table":                  {72, "replay: event 72: thread 99 is not in the header's thread table"},
		"blank-lines-across-chunks":            {176, ""},
		"blank-lines-across-chunks-half-reads": {176, ""},
		"no-final-newline":                     {176, ""},
		"long-line":                            {176, ""},
		"long-first-line":                      {176, ""},
		"long-line-half-reads":                 {176, ""},
	}

	serial := make([][]*event, len(cases))
	for i, c := range cases {
		serial[i] = serialDecode(c.log)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(procs)
		for i, c := range cases {
			name := fmt.Sprintf("%s/procs=%d", c.name, procs)
			var r io.Reader = bytes.NewReader(c.log)
			if c.r != nil {
				r = c.r(r)
			}
			got, err := drain(r)
			msg := ""
			if err != nil {
				msg = err.Error()
			}
			w, ok := want[c.name]
			if !ok || len(got) != w.n || msg != w.err {
				t.Errorf("%s: %d events, error %q; want %d, %q", name, len(got), msg, w.n, w.err)
			}
			if len(got) > len(serial[i]) || len(got) > 0 && !reflect.DeepEqual(got, serial[i][:len(got)]) {
				t.Errorf("%s: events differ from a serial decode of the same bytes", name)
			}
		}
	}
}

// waitGoroutines waits until no more than n goroutines run, or fails
// the test at its deadline.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	deadline, ok := t.Deadline()
	if !ok {
		deadline = time.Now().Add(time.Minute)
	}
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines run, %d before the player", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// diverger places thread 0 on core 1 at every quantum, where the
// recording placed it on core 0.
type diverger struct{ p *Player }

func (d diverger) Name() string               { return "diverger" }
func (d diverger) QuantaLength() sim.Time     { return 500 }
func (d diverger) Quantum(now sim.Time) error { return d.p.Place(0, 1) }

// TestPlayerLeavesNothingRunning checks that a Run stopped by a
// divergence in its first quantum, and a player dropped right after
// NewPlayer, leave no decode goroutine behind, on a log of many chunks.
func TestPlayerLeavesNothingRunning(t *testing.T) {
	log, _, _ := benchLog(t)
	if len(log) < 4*readSize {
		t.Fatalf("log of %d bytes is too short to span several chunks", len(log))
	}
	n := runtime.NumGoroutine()
	p, err := NewPlayer(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if q, err := Run(p, diverger{p}); q != 1 || !errors.Is(err, ErrDivergence) {
		t.Fatalf("Run replayed %d quanta and returned %v; want a divergence in quantum 1", q, err)
	}
	waitGoroutines(t, n)

	if _, err := NewPlayer(bytes.NewReader(log)); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, n)
}
