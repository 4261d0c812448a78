package lint_test

import (
	"testing"

	"planar/internal/lint"
	"planar/internal/lint/analysis"
)

// run exercises one analyzer against a testdata fixture type-checked
// under a masquerade import path, comparing diagnostics against the
// fixture's "// want" comments (see analysis.RunTestdata). Fixtures
// with no want comments assert the analyzer stays silent — that is
// how scoping and //nolint handling are proven.
func run(t *testing.T, name, dir, asPath string) {
	t.Helper()
	a := lint.ByName(name)
	if a == nil {
		t.Fatalf("unknown analyzer %q", name)
	}
	analysis.RunTestdata(t, a, "testdata/"+dir, asPath)
}

func TestErrsink(t *testing.T) {
	run(t, "errsink", "errsink", "planar/internal/wal")
}

func TestErrsinkUnscoped(t *testing.T) {
	run(t, "errsink", "errsink_unscoped", "planar/internal/core")
}

func TestFloatkey(t *testing.T) {
	run(t, "floatkey", "floatkey", "planar/internal/exec")
}

func TestFloatkeyVecmathExempt(t *testing.T) {
	run(t, "floatkey", "floatkey_vecmath", "planar/internal/vecmath")
}

func TestCtxhttp(t *testing.T) {
	run(t, "ctxhttp", "ctxhttp", "planar/internal/replica")
}

func TestBodyclose(t *testing.T) {
	run(t, "bodyclose", "bodyclose", "planar/internal/replica")
}

func TestFilesync(t *testing.T) {
	run(t, "filesync", "filesync", "planar/internal/pager")
}

func TestFilesyncUnscoped(t *testing.T) {
	run(t, "filesync", "filesync_unscoped", "planar/internal/dataset")
}

func TestTickerleak(t *testing.T) {
	run(t, "tickerleak", "tickerleak", "planar/internal/replica")
}

func TestWalordering(t *testing.T) {
	run(t, "walordering", "walordering", "planar/internal/service")
}

func TestWalorderingUnscoped(t *testing.T) {
	run(t, "walordering", "walordering_unscoped", "planar/internal/btree")
}

func TestLocknesting(t *testing.T) {
	run(t, "locknesting", "locknesting", "planar/internal/replica")
}

func TestPinrelease(t *testing.T) {
	run(t, "pinrelease", "pinrelease", "planar/internal/btree")
}

func TestAtomicmix(t *testing.T) {
	run(t, "atomicmix", "atomicmix", "planar/internal/replog")
}

func TestGuardedby(t *testing.T) {
	run(t, "guardedby", "guardedby", "planar/internal/pager")
}

func TestSpawnjoin(t *testing.T) {
	run(t, "spawnjoin", "spawnjoin", "planar/internal/replica")
}

// TestTreeClean is the end-to-end regression gate: the full analyzer
// suite over the real module must stay at zero findings. A finding
// here means either new code broke an invariant or an analyzer
// regressed into a false positive — both are failures.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := analysis.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, stats, err := analysis.Run(pkgs, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if want := len(lint.All()); len(stats) != want {
		t.Errorf("got stats for %d analyzers, want %d", len(stats), want)
	}
}

func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		if got := lint.ByName(a.Name); got != a {
			t.Errorf("ByName(%q) = %v, want the registered analyzer", a.Name, got)
		}
	}
	if lint.ByName("nope") != nil {
		t.Errorf("ByName(nope) should be nil")
	}
}
