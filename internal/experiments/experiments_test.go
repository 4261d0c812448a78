package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"planar/internal/dataset"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-select",
		"ext-adaptive", "ext-constraint", "ext-count", "ext-reduce",
		"fig10", "fig11", "fig12", "fig13a", "fig13b", "fig13c",
		"fig14a", "fig14b", "fig14c",
		"fig6a", "fig6b", "fig6c", "fig6d",
		"fig7", "fig8", "fig9",
		"table2", "table3",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d is %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.sweep == nil {
			t.Fatalf("experiment %q lacks title or runner", e.ID)
		}
	}
	if _, ok := Find("fig7"); !ok {
		t.Fatal("Find(fig7) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find(nope) succeeded")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Points = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero points accepted")
	}
	var buf bytes.Buffer
	if err := Run("fig7", bad, &buf); err == nil {
		t.Fatal("Run with bad config accepted")
	}
	if err := Run("nope", DefaultConfig(), &buf); err == nil {
		t.Fatal("unknown id accepted")
	}
}

var (
	durationRe = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s)\b`)
	spacesRe   = regexp.MustCompile(` +`)
	dashesRe   = regexp.MustCompile(`-{2,}`)
)

// mask blanks what changes from run to run in an experiment's output:
// every duration becomes T, and runs of spaces and of dashes, whose
// length follows the width of the timing strings, are squeezed.
func mask(out string) string {
	out = durationRe.ReplaceAllString(out, "T")
	out = spacesRe.ReplaceAllString(out, " ")
	return dashesRe.ReplaceAllString(out, "--")
}

// TestEveryExperimentRuns executes the full registry at tiny scale
// and compares each masked output with testdata/<id>.golden, so every
// fixture, query stream, pruning figure and result count is pinned.
// This is the integration test that the whole reproduction pipeline
// is wired correctly.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	cfg := TinyConfig()
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(cfg, &buf); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			// Every experiment renders at least one table with a
			// header separator.
			if !strings.Contains(out, "--") {
				t.Fatalf("%s output lacks a table:\n%s", e.ID, out)
			}
			want, err := os.ReadFile(filepath.Join("testdata", e.ID+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := mask(out); got != string(want) {
				t.Fatalf("%s masked output differs from its golden file\ngot:\n%s\nwant:\n%s", e.ID, got, want)
			}
		})
	}
}

func TestFig14aAnswersAgree(t *testing.T) {
	// fig14a already cross-checks planar, MBR-tree and baseline pair
	// counts internally and fails on mismatch; run it at a slightly
	// larger scale to make that check meaningful.
	cfg := TinyConfig()
	cfg.MovingN = 120
	var buf bytes.Buffer
	if err := Run("fig14a", cfg, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mbr-tree") {
		t.Fatal("fig14a output missing MBR-tree column")
	}
}

// TestRunFailsOnWrongAnswer runs an experiment whose planar side drops
// one id of every answer: the loop's check against the scan must fail
// the run.
func TestRunFailsOnWrongAnswer(t *testing.T) {
	fx := lazySynth(dataset.KindIndependent, 2000, 4, 4, 10, 1)
	e := Experiment{ID: "dropping", Title: "drops an id", sweep: func(s *sweep) error {
		_, err := s.measure("planar", s.Queries, func() (op, check, error) {
			run, chk, err := indexed(fx, 42, s.Queries)()
			return func(i int) (outcome, error) {
				got, err := run(i)
				got.n-- // the first id is dropped
				return got, err
			}, chk, err
		})
		return err
	}}
	var buf bytes.Buffer
	err := e.Run(TinyConfig(), &buf)
	if err == nil || !strings.Contains(err.Error(), "disagrees with the baseline") {
		t.Fatalf("Run with a dropped id returned %v", err)
	}
}

// TestCellsBuildLazily lists every experiment's cells without building
// a fixture, and prepares one cell of a large grid on its own.
func TestCellsBuildLazily(t *testing.T) {
	for _, e := range All() {
		cells, err := e.Cells(DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(cells) == 0 && e.ID != "fig13b" && e.ID != "table2" {
			t.Fatalf("%s declares no cells", e.ID)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if seen[c.Name] {
				t.Fatalf("%s: cell %q declared twice", e.ID, c.Name)
			}
			seen[c.Name] = true
		}
	}
	e, _ := Find("fig8")
	cells, err := e.Cells(TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Name != "dim14/ind50/anti" {
			continue
		}
		run, err := c.Prepare()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2*TinyConfig().Queries; i++ {
			if err := run(i); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	t.Fatal("fig8 has no cell dim14/ind50/anti")
}
