package trace

import (
	"strings"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("err")
	if s.Len() != 0 {
		t.Error("fresh series state wrong")
	}
	s.Add(1, 0.5)
	s.Add(2, 0.7)
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	tm, v := s.At(1)
	if tm != 2 || v != 0.7 {
		t.Errorf("At(1) = %v, %v", tm, v)
	}
}

func TestWriteWideCSV(t *testing.T) {
	a := NewSeries("a")
	a.Add(1, 10)
	a.Add(3, 30)
	b := NewSeries("b")
	b.Add(1, 100)
	b.Add(2, 200)
	var buf strings.Builder
	if err := WriteWideCSV(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_ms,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("rows = %d", len(lines)-1)
	}
	// t=2 has no sample for a: empty cell.
	if lines[2] != "2.000,,200" {
		t.Errorf("row t=2 = %q", lines[2])
	}
	// t=3 has no sample for b.
	if lines[3] != "3.000,30," {
		t.Errorf("row t=3 = %q", lines[3])
	}
}

func TestWriteWideCSVNil(t *testing.T) {
	if err := WriteWideCSV(&strings.Builder{}, nil); err == nil {
		t.Error("nil series accepted")
	}
}
