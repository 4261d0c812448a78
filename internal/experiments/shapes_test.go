package experiments

import (
	"math/rand"
	"testing"
	"time"

	"planar/internal/dataset"
	"planar/internal/moving"
)

// TestPaperShapes asserts the paper's qualitative findings as
// regression checks, at a scale small enough for CI. If any of these
// fail after a change, the reproduction no longer reproduces.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape checks skipped in -short mode")
	}
	const n = 20000
	const seed = 1

	pruningAt := func(dim, rq, budget int) float64 {
		t.Helper()
		store, m, g, err := SynthSetup(dataset.KindIndependent, n, dim, rq, budget, seed)
		if err != nil {
			t.Fatal(err)
		}
		return measured(t, synth{store, m, g}, seed+42, 10).avgStat()
	}

	t.Run("PruningFallsWithRQ", func(t *testing.T) {
		// Paper Figure 9: more query randomness → less pruning.
		lo, hi := pruningAt(6, 12, 50), pruningAt(6, 2, 50)
		if hi < lo {
			t.Fatalf("pruning at RQ=2 (%v) below RQ=12 (%v)", hi, lo)
		}
		if hi < 0.9 {
			t.Fatalf("pruning at dim=6/RQ=2 is %v, paper says ~100%%", hi)
		}
	})

	t.Run("PruningGrowsWithBudget", func(t *testing.T) {
		// Paper Figure 10: more indexes → more pruning.
		one, many := pruningAt(6, 4, 1), pruningAt(6, 4, 50)
		if many < one {
			t.Fatalf("pruning with 50 indexes (%v) below 1 index (%v)", many, one)
		}
	})

	t.Run("PruningFallsWithDimension", func(t *testing.T) {
		// Paper Figures 9-10: higher dimensionality → less pruning.
		low, high := pruningAt(2, 4, 50), pruningAt(14, 4, 50)
		if low < high {
			t.Fatalf("pruning at dim=2 (%v) below dim=14 (%v)", low, high)
		}
	})

	t.Run("VerificationPeaksMidSelectivity", func(t *testing.T) {
		// Paper Figure 11: query cost peaks at mid selectivity. The
		// mechanism is the intermediate interval (the verified
		// fraction = 1 − pruning), which is deterministic — wall
		// clock at this scale is too noisy to assert on.
		store, m, g, err := SynthSetup(dataset.KindIndependent, n, 6, 4, 50, seed)
		if err != nil {
			t.Fatal(err)
		}
		verifiedAt := func(ineq float64) float64 {
			f := synth{store, m, g}
			f.g.Ineq = ineq
			return 1 - measured(t, f, seed+42, 10).avgStat()
		}
		low, mid, high := verifiedAt(0.10), verifiedAt(0.50), verifiedAt(1.00)
		if mid < low || mid < high {
			t.Fatalf("no mid-selectivity verification peak: %v / %v / %v", low, mid, high)
		}
	})

	t.Run("CircularIntersectionBeatsBaseline", func(t *testing.T) {
		// Paper Figure 14(b): planar wins 2.5-75x on circular motion.
		rng := rand.New(rand.NewSource(seed))
		omegas := []float64{moving.DegPerMin(1), moving.DegPerMin(3), moving.DegPerMin(5)}
		circ, ws := moving.GenCircular(150, moving.Vec2{X: 50, Y: 50}, 1, 100, omegas, rng)
		lin := moving.GenLinear2D(150, 100, 0.1, 1, rng)
		w, err := moving.NewCircularWorkload(circ, ws, lin, []float64{10, 11, 12, 13, 14, 15})
		if err != nil {
			t.Fatal(err)
		}
		var planar, base time.Duration
		for _, tm := range []float64{10, 12, 14} {
			start := time.Now()
			got, _, err := w.At(tm, 10)
			planar += time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			start = time.Now()
			want := w.Baseline(tm, 10)
			base += time.Since(start)
			if len(got) != len(want) {
				t.Fatalf("t=%v: planar %d pairs, baseline %d", tm, len(got), len(want))
			}
		}
		if base < 2*planar {
			t.Fatalf("circular speedup only %vx (planar %v, baseline %v)",
				float64(base)/float64(planar), planar, base)
		}
	})
}
