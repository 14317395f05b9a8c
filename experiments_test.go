package dike

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestHeadlineTableMatchesFig6 checks EXPERIMENTS.md's headline table
// against the committed dikebench output, without simulating: every
// "measured" fairness and performance number must be the policy's
// geomean in the fig6 section of experiments_full.txt, and every swap
// number its Table III average, rounded to a whole swap.
func TestHeadlineTableMatchesFig6(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile("experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	fig6 := section(string(full), "\n# fig6 ", "\n# ")
	want := map[string]map[string]string{
		"fairness":    summaryRow(t, section(fig6, "## Fig 6a", "\n## "), "geomean"),
		"performance": summaryRow(t, section(fig6, "## Fig 6b", "\n## "), "geomean"),
		"avg swaps":   summaryRow(t, section(fig6, "## Table III", "\n## "), "average"),
	}
	for policy, v := range want["avg swaps"] {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("Table III average %q: %v", v, err)
		}
		want["avg swaps"][policy] = strconv.Itoa(int(math.Round(f)))
	}

	rows := 0
	for _, line := range strings.Split(section(string(doc), "## Headline comparison", "\n## "), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 6 {
			continue
		}
		quantity, policy, ok := strings.Cut(strings.TrimSpace(cells[1]), ", ")
		if !ok {
			continue
		}
		byPolicy := want[quantity]
		if byPolicy == nil {
			t.Errorf("headline row %q: unknown quantity", line)
			continue
		}
		measured := strings.ReplaceAll(strings.Fields(cells[3])[0], "−", "-")
		if got := byPolicy[strings.ToLower(policy)]; measured != got {
			t.Errorf("headline %s, %s: EXPERIMENTS.md says %s, experiments_full.txt %s", quantity, policy, measured, got)
		}
		rows++
	}
	if rows != 12 {
		t.Errorf("checked %d headline rows, want 12 (fairness, performance and swaps for 4 policies)", rows)
	}
}

// section returns the part of s from the first start to the next end
// after it, or "" when s has no start.
func section(s, start, end string) string {
	i := strings.Index(s, start)
	if i < 0 {
		return ""
	}
	s = s[i+len(start):]
	if j := strings.Index(s, end); j >= 0 {
		s = s[:j]
	}
	return s
}

// summaryRow maps each policy column of a fig6 table to its value on
// the summary line whose first field is label. The header line names
// the columns after "workload type"; summary lines have no type field.
func summaryRow(t *testing.T, table, label string) map[string]string {
	t.Helper()
	var header, values []string
	for _, line := range strings.Split(table, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 2 && f[0] == "workload":
			header = f[2:]
		case len(f) > 1 && f[0] == label:
			values = f[1:]
		}
	}
	if len(header) == 0 || len(header) != len(values) {
		t.Fatalf("fig6 table has columns %q and %s values %q", header, label, values)
	}
	row := make(map[string]string, len(header))
	for i, policy := range header {
		row[policy] = values[i]
	}
	return row
}
