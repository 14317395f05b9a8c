package harness

import (
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result: the rows the paper's
// corresponding table or figure reports.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends one row; values are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString("## " + t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	write := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := io.WriteString(w, strings.Join(out, ",")+"\n")
		return err
	}
	if err := write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := write(row); err != nil {
			return err
		}
	}
	return nil
}

// Report is one experiment's full output: one or more tables plus notes
// about methodology (scales, seeds, substitutions).
type Report struct {
	ID     string
	Title  string
	Tables []*Table
	Notes  []string
	// Bench is the run's bench document; nil for experiments that write
	// none.
	Bench *BenchDoc
}

// Render writes the report as text.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// pct formats a fraction as a signed percentage.
func pct(f float64) string { return fmt.Sprintf("%+.1f%%", f*100) }

// ms formats a millisecond duration as seconds.
func msec(f float64) string { return fmt.Sprintf("%.1fs", f/1000) }
