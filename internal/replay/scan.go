package replay

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dike/internal/counters"
	"dike/internal/platform"
	"dike/internal/sim"
)

// scanner decodes the event lines of a log without reflection. It reads
// exactly the event schema the Recorder writes (the event, wireSample,
// wireThreadDelta and wireCoreDelta types) and writes a sample straight
// into a fresh platform.Sample.
//
// Every line the scanner accepts, encoding/json also accepts into an
// event, with the same values bit for bit (FuzzDecodeEvent checks
// this). The scanner is the stricter of the two: keys must match
// exactly (encoding/json folds case) and appear once, and unknown keys
// and null values are errors. A recorded log has none of these.
//
// Only the scanner's scratch slices are reused from line to line; the
// events and samples it returns belong to the caller.
type scanner struct {
	b []byte // the line being decoded
	i int    // read offset into b

	// An alive set's ids and a sample's entries, collected so the slices
	// and maps returned can be allocated at their final size.
	ids []platform.ThreadID
	th  []threadEntry
	in  []instrEntry
	co  []counters.CoreDelta
}

type threadEntry struct {
	id platform.ThreadID
	d  counters.ThreadDelta
}

type instrEntry struct {
	id platform.ThreadID
	v  float64
}

// decode decodes one event line. The line may end in a newline.
func (s *scanner) decode(line []byte) (*event, error) {
	s.b, s.i = line, 0
	s.ws()
	if !s.eat('{') {
		return nil, s.errorf("expected '{'")
	}
	ev := new(event)
	var seen uint
	for n := 0; ; n++ {
		key, ok, err := s.member(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		var bit uint
		switch string(key) {
		case "k":
			bit = 0
			ev.K, err = s.string()
		case "t":
			bit = 1
			var t int64
			t, err = s.int(64)
			ev.Now = sim.Time(t)
		case "alive":
			bit = 2
			ev.Alive, err = s.threadIDs()
		case "s":
			bit = 3
			ev.sample, err = s.sample()
		case "a":
			bit = 4
			ev.A, err = s.threadID()
		case "b":
			bit = 5
			ev.B, err = s.threadID()
		case "c":
			bit = 6
			ev.Core, err = s.coreID()
		case "pa":
			bit = 7
			ev.PostA, err = s.coreID()
		case "pb":
			bit = 8
			ev.PostB, err = s.coreID()
		case "err":
			bit = 9
			ev.Err, err = s.string()
		case "pw":
			bit = 10
			ev.W, err = s.floats()
		case "pe":
			bit = 11
			var e float64
			e, err = s.float()
			ev.E = jfloat(e)
		case "l":
			bit = 12
			var l int64
			l, err = s.int(strconv.IntSize)
			ev.L = int(l)
		default:
			return nil, s.errorf("unknown event key %q", key)
		}
		if err != nil {
			return nil, err
		}
		if err := s.once(&seen, bit, key); err != nil {
			return nil, err
		}
	}
	s.ws()
	if s.i != len(s.b) {
		return nil, s.errorf("data after the event")
	}
	return ev, nil
}

// sample reads a wireSample object into a fresh platform.Sample. Its
// maps and core slice are never nil, as a live platform's are not.
func (s *scanner) sample() (*platform.Sample, error) {
	if !s.eat('{') {
		return nil, s.errorf("expected a sample object")
	}
	out := new(platform.Sample)
	s.th, s.in, s.co = s.th[:0], s.in[:0], s.co[:0]
	var seen uint
	for n := 0; ; n++ {
		key, ok, err := s.member(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		var bit uint
		switch string(key) {
		case "iv":
			bit = 0
			out.Interval, err = s.float()
		case "th":
			bit = 1
			err = s.threadDeltas()
		case "co":
			bit = 2
			err = s.coreDeltas()
		case "in":
			bit = 3
			err = s.instrs()
		default:
			return nil, s.errorf("unknown sample key %q", key)
		}
		if err != nil {
			return nil, err
		}
		if err := s.once(&seen, bit, key); err != nil {
			return nil, err
		}
	}
	out.Threads = make(map[platform.ThreadID]counters.ThreadDelta, len(s.th))
	for _, e := range s.th {
		if _, dup := out.Threads[e.id]; dup {
			return nil, s.errorf("thread %d sampled twice", e.id)
		}
		out.Threads[e.id] = e.d
	}
	out.Instr = make(map[platform.ThreadID]float64, len(s.in))
	for _, e := range s.in {
		if _, dup := out.Instr[e.id]; dup {
			return nil, s.errorf("thread %d has two instruction counts", e.id)
		}
		out.Instr[e.id] = e.v
	}
	out.Cores = append(make([]counters.CoreDelta, 0, len(s.co)), s.co...)
	return out, nil
}

// threadDeltas reads the "th" map of a sample into s.th.
func (s *scanner) threadDeltas() error {
	if !s.eat('{') {
		return s.errorf("expected a thread-delta object")
	}
	for n := 0; ; n++ {
		key, ok, err := s.member(n)
		if err != nil || !ok {
			return err
		}
		id, err := s.mapKey(key)
		if err != nil {
			return err
		}
		d, err := s.threadDelta()
		if err != nil {
			return err
		}
		s.th = append(s.th, threadEntry{id, d})
	}
}

// threadDelta reads one wireThreadDelta object.
func (s *scanner) threadDelta() (counters.ThreadDelta, error) {
	var d counters.ThreadDelta
	if !s.eat('{') {
		return d, s.errorf("expected a thread delta")
	}
	var seen uint
	for n := 0; ; n++ {
		key, ok, err := s.member(n)
		if err != nil || !ok {
			return d, err
		}
		var bit uint
		switch string(key) {
		case "iv":
			bit = 0
			d.Interval, err = s.float()
		case "w":
			bit = 1
			d.Work, err = s.float()
		case "in":
			bit = 2
			d.Instructions, err = s.float()
		case "ac":
			bit = 3
			d.Accesses, err = s.float()
		case "mi":
			bit = 4
			d.Misses, err = s.float()
		case "mg":
			bit = 5
			var mg int64
			mg, err = s.int(strconv.IntSize)
			d.Migrations = int(mg)
		default:
			return d, s.errorf("unknown thread-delta key %q", key)
		}
		if err != nil {
			return d, err
		}
		if err := s.once(&seen, bit, key); err != nil {
			return d, err
		}
	}
}

// coreDeltas reads the "co" array of a sample into s.co.
func (s *scanner) coreDeltas() error {
	if !s.eat('[') {
		return s.errorf("expected a core-delta array")
	}
	for n := 0; ; n++ {
		ok, err := s.elem(n)
		if err != nil || !ok {
			return err
		}
		if !s.eat('{') {
			return s.errorf("expected a core delta")
		}
		var d counters.CoreDelta
		var seen uint
		for m := 0; ; m++ {
			key, ok, err := s.member(m)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			var bit uint
			switch string(key) {
			case "iv":
				bit = 0
				d.Interval, err = s.float()
			case "sm":
				bit = 1
				d.ServedMisses, err = s.float()
			default:
				return s.errorf("unknown core-delta key %q", key)
			}
			if err != nil {
				return err
			}
			if err := s.once(&seen, bit, key); err != nil {
				return err
			}
		}
		s.co = append(s.co, d)
	}
}

// instrs reads the "in" map of a sample into s.in.
func (s *scanner) instrs() error {
	if !s.eat('{') {
		return s.errorf("expected an instruction-count object")
	}
	for n := 0; ; n++ {
		key, ok, err := s.member(n)
		if err != nil || !ok {
			return err
		}
		id, err := s.mapKey(key)
		if err != nil {
			return err
		}
		v, err := s.float()
		if err != nil {
			return err
		}
		s.in = append(s.in, instrEntry{id, v})
	}
}

// threadIDs reads an array of thread ids.
func (s *scanner) threadIDs() ([]platform.ThreadID, error) {
	if !s.eat('[') {
		return nil, s.errorf("expected a thread-id array")
	}
	s.ids = s.ids[:0]
	for n := 0; ; n++ {
		ok, err := s.elem(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			return append(make([]platform.ThreadID, 0, len(s.ids)), s.ids...), nil
		}
		id, err := s.threadID()
		if err != nil {
			return nil, err
		}
		s.ids = append(s.ids, id)
	}
}

// floats reads an array of jfloats.
func (s *scanner) floats() ([]jfloat, error) {
	if !s.eat('[') {
		return nil, s.errorf("expected a float array")
	}
	var fs []jfloat
	for n := 0; ; n++ {
		ok, err := s.elem(n)
		if err != nil || !ok {
			return fs, err
		}
		f, err := s.float()
		if err != nil {
			return nil, err
		}
		fs = append(fs, jfloat(f))
	}
}

// member moves to the next member of an object whose opening brace and
// n members have been read. It returns the member's raw key with the
// colon consumed, or ok=false once it has consumed the closing brace.
func (s *scanner) member(n int) (key []byte, ok bool, err error) {
	s.ws()
	if s.eat('}') {
		return nil, false, nil
	}
	if n > 0 {
		if !s.eat(',') {
			return nil, false, s.errorf("expected ',' or '}'")
		}
		s.ws()
	}
	tok, _, err := s.stringToken()
	if err != nil {
		return nil, false, err
	}
	s.ws()
	if !s.eat(':') {
		return nil, false, s.errorf("expected ':'")
	}
	s.ws()
	return tok[1 : len(tok)-1], true, nil
}

// elem moves to the next element of an array whose opening bracket and
// n elements have been read. It returns ok=false once it has consumed
// the closing bracket.
func (s *scanner) elem(n int) (ok bool, err error) {
	s.ws()
	if s.eat(']') {
		return false, nil
	}
	if n > 0 {
		if !s.eat(',') {
			return false, s.errorf("expected ',' or ']'")
		}
		s.ws()
	}
	return true, nil
}

// once records that the key numbered bit has been read, rejecting a
// repeat: encoding/json would let the later value win, or merge them.
func (s *scanner) once(seen *uint, bit uint, key []byte) error {
	if *seen&(1<<bit) != 0 {
		return s.errorf("duplicate key %q", key)
	}
	*seen |= 1 << bit
	return nil
}

// mapKey parses the raw key of a thread-keyed map as encoding/json
// parses an integer map key. An escaped key fails to parse.
func (s *scanner) mapKey(key []byte) (platform.ThreadID, error) {
	id, err := strconv.ParseInt(string(key), 10, strconv.IntSize)
	if err != nil {
		return 0, s.errorf("bad thread key %q", key)
	}
	return platform.ThreadID(id), nil
}

func (s *scanner) threadID() (platform.ThreadID, error) {
	v, err := s.int(strconv.IntSize)
	return platform.ThreadID(v), err
}

func (s *scanner) coreID() (platform.CoreID, error) {
	v, err := s.int(strconv.IntSize)
	return platform.CoreID(v), err
}

// int reads a JSON integer that fits in a signed integer of the given
// bit size, as encoding/json reads one into an integer field.
func (s *scanner) int(bits int) (int64, error) {
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(string(tok), 10, bits)
	if err != nil {
		return 0, s.errorf("bad integer %s", tok)
	}
	return v, nil
}

// float reads a jfloat: a JSON number, or one of the quoted strings
// "NaN", "+Inf" and "-Inf" exactly as jfloat.MarshalJSON writes them.
// Numbers go through strconv.ParseFloat, as in jfloat.UnmarshalJSON, so
// the value is bit-identical.
func (s *scanner) float() (float64, error) {
	if s.i < len(s.b) && s.b[s.i] == '"' {
		tok, _, err := s.stringToken()
		if err != nil {
			return 0, err
		}
		switch string(tok) {
		case `"NaN"`:
			return math.NaN(), nil
		case `"+Inf"`:
			return math.Inf(1), nil
		case `"-Inf"`:
			return math.Inf(-1), nil
		}
		return 0, s.errorf("bad float %s", tok)
	}
	tok, err := s.number()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, s.errorf("bad float %s", tok)
	}
	return v, nil
}

// number returns the span of the JSON number at the read offset. The
// grammar check matters: strconv also parses forms JSON does not allow,
// such as "+1", ".5", "Inf" and "0x10".
func (s *scanner) number() ([]byte, error) {
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, s.errorf("expected a number")
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return nil, s.errorf("expected a digit after '.'")
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return nil, s.errorf("expected an exponent")
		}
		i = digits(b, i)
	}
	s.i = i
	return b[start:i], nil
}

func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// string reads a JSON string. A token with escapes or non-ASCII bytes
// is decoded by encoding/json itself, which replaces invalid UTF-8 and
// lone surrogates; the Recorder escapes only error messages, so that
// path is rare.
func (s *scanner) string() (string, error) {
	tok, plain, err := s.stringToken()
	if err != nil {
		return "", err
	}
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	var v string
	if err := json.Unmarshal(tok, &v); err != nil {
		return "", s.errorf("bad string %s", tok)
	}
	return v, nil
}

// stringToken returns the JSON string token at the read offset, quotes
// included. plain reports that it holds neither escapes nor non-ASCII
// bytes, so its content is its raw bytes.
func (s *scanner) stringToken() (tok []byte, plain bool, err error) {
	b, start := s.b, s.i
	if start >= len(b) || b[start] != '"' {
		return nil, false, s.errorf("expected a string")
	}
	plain = true
	for i := start + 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[start:s.i], plain, nil
		case c == '\\':
			plain = false
			i++ // an escaped byte never ends the string
		case c < 0x20:
			return nil, false, s.errorf("control character in string")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, s.errorf("unterminated string")
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (s *scanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

func (s *scanner) errorf(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", s.i, fmt.Sprintf(format, args...))
}
