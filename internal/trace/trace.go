// Package trace records time series during simulation runs and exports
// them as wide CSV. Its one user is the harness's run tracing, which
// samples memory utilisation, live threads, swaps and the like.
package trace

import (
	"errors"
	"io"
	"sort"
	"strconv"
)

// Series is a named time series with millisecond timestamps.
type Series struct {
	Name   string
	Times  []float64
	Values []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends one sample.
func (s *Series) Add(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// At returns the i-th sample.
func (s *Series) At(i int) (t, v float64) { return s.Times[i], s.Values[i] }

// WriteWideCSV writes the series in wide form — one time column and one
// value column per series — aligning samples by exact timestamp. Missing
// cells are left empty.
func WriteWideCSV(w io.Writer, series ...*Series) error {
	times := map[float64]bool{}
	for _, s := range series {
		if s == nil {
			return errors.New("trace: nil series")
		}
		for _, t := range s.Times {
			times[t] = true
		}
	}
	sorted := make([]float64, 0, len(times))
	for t := range times {
		sorted = append(sorted, t)
	}
	sort.Float64s(sorted)

	header := "time_ms"
	for _, s := range series {
		header += "," + s.Name
	}
	if _, err := io.WriteString(w, header+"\n"); err != nil {
		return err
	}
	lookup := make([]map[float64]float64, len(series))
	for i, s := range series {
		m := make(map[float64]float64, len(s.Times))
		for j, t := range s.Times {
			m[t] = s.Values[j]
		}
		lookup[i] = m
	}
	for _, t := range sorted {
		row := strconv.FormatFloat(t, 'f', 3, 64)
		for i := range series {
			if v, ok := lookup[i][t]; ok {
				row += "," + strconv.FormatFloat(v, 'g', 8, 64)
			} else {
				row += ","
			}
		}
		if _, err := io.WriteString(w, row+"\n"); err != nil {
			return err
		}
	}
	return nil
}
