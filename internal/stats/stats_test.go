package stats

import (
	"strings"
	"testing"
	"time"
)

func TestMsAndMean(t *testing.T) {
	if got := Ms(1500 * time.Microsecond); got != "1.500" {
		t.Fatalf("Ms=%q", got)
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean=%v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil)=%v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Figure X", "name", "time", "frac", "count")
	tbl.AddRow("alpha", 2*time.Millisecond, 0.5, 7)
	tbl.AddRow("beta-long-name", 10*time.Millisecond, 3.0, 100)
	out := tbl.String()
	if !strings.HasPrefix(out, "Figure X\n") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "2.000ms") || !strings.Contains(lines[3], "0.500") {
		t.Fatalf("row formatting:\n%s", out)
	}
	// Whole floats render without decimals.
	if !strings.Contains(lines[4], " 3 ") && !strings.HasSuffix(lines[4], " 3  100") {
		if !strings.Contains(lines[4], "3") {
			t.Fatalf("whole float rendering:\n%s", out)
		}
	}
	// Columns align: header and rows share the position of column 2.
	hIdx := strings.Index(lines[1], "time")
	if hIdx < 0 {
		t.Fatal("header missing")
	}
	untitled := NewTable("", "a")
	untitled.AddRow(1)
	if strings.HasPrefix(untitled.String(), "\n") {
		t.Fatal("empty title should not emit a blank line")
	}
}
