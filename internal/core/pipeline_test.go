package core

import (
	"math"
	"math/rand"
	"testing"

	"planar/internal/vecmath"
)

// pipelineMulti builds a store plus a Multi with two first-octant
// indexes, the shared fixture for the plan-cache and batch tests.
func pipelineMulti(t *testing.T, opts ...MultiOption) (*PointStore, *Multi) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	s := randomStore(t, rng, 800, 3, 1, 50)
	m, err := NewMulti(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	oct := vecmath.FirstOctant(3)
	for _, normal := range [][]float64{{1, 2, 3}, {3, 1, 1}} {
		if ok, err := m.AddNormal(normal, oct); err != nil || !ok {
			t.Fatalf("AddNormal(%v): ok=%v err=%v", normal, ok, err)
		}
	}
	return s, m
}

func TestPlanCacheEndToEnd(t *testing.T) {
	s, m := pipelineMulti(t)
	a := []float64{1, 1, 2}

	q := Query{A: a, B: 90, Op: LE}
	ids1, st1, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CacheHit {
		t.Error("first query reported a cache hit")
	}
	// Same direction, different threshold: the selection is served
	// from the cache but the answer must stay exact.
	for _, b := range []float64{-10, 40, 90, 200, 5000} {
		q := Query{A: a, B: b, Op: LE}
		ids, st, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if !st.CacheHit {
			t.Errorf("b=%v: repeated direction missed the plan cache", b)
		}
		if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
			t.Fatalf("b=%v: cached plan returned wrong ids", b)
		}
	}
	if !equalIDs(sortedIDs(ids1), bruteForce(s, q)) {
		t.Fatal("cold plan returned wrong ids")
	}
	hits, misses := m.PlanCacheCounters()
	if hits < 5 || misses < 1 {
		t.Fatalf("cache counters hits=%d misses=%d", hits, misses)
	}

	// Any mutation bumps the epoch and invalidates cached selections.
	if _, err := m.Append([]float64{100, 100, 100}); err != nil {
		t.Fatal(err)
	}
	_, st2, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if st2.CacheHit {
		t.Error("query after mutation still reported a cache hit")
	}
	_, st3, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.CacheHit {
		t.Error("second query after mutation should re-hit the cache")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	s, m := pipelineMulti(t, WithPlanCache(0))
	a := []float64{2, 1, 1}
	for _, b := range []float64{50, 50, 120} {
		q := Query{A: a, B: b, Op: LE}
		ids, st, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHit {
			t.Fatal("disabled cache reported a hit")
		}
		if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
			t.Fatalf("b=%v: wrong ids with cache disabled", b)
		}
	}
	if hits, misses := m.PlanCacheCounters(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache has counters hits=%d misses=%d", hits, misses)
	}
}

// TestPlanCacheAgreesWithUncached runs the same random query stream
// through a cached and an uncached Multi over the same store and
// demands identical answers and identical index selections.
func TestPlanCacheAgreesWithUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := randomStore(t, rng, 600, 3, 1, 40)
	build := func(opts ...MultiOption) *Multi {
		m, err := NewMulti(s, opts...)
		if err != nil {
			t.Fatal(err)
		}
		oct := vecmath.FirstOctant(3)
		for _, normal := range [][]float64{{1, 1, 1}, {1, 4, 2}, {5, 1, 1}} {
			if _, err := m.AddNormal(normal, oct); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	cached, uncached := build(), build(WithPlanCache(0))

	dirs := [][]float64{{1, 2, 1}, {3, 1, 2}, {1, 1, 5}}
	for trial := 0; trial < 60; trial++ {
		q := Query{A: dirs[trial%len(dirs)], B: rng.Float64() * 2000, Op: LE}
		got, st1, err := cached.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		want, st2, err := uncached.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(got), sortedIDs(want)) {
			t.Fatalf("trial %d: cached ids differ from uncached", trial)
		}
		if st1.IndexUsed != st2.IndexUsed {
			t.Fatalf("trial %d: cached selection chose index %d, uncached %d",
				trial, st1.IndexUsed, st2.IndexUsed)
		}
	}
}

func TestInequalityBatchMatchesSingles(t *testing.T) {
	s, m := pipelineMulti(t)
	a := []float64{1, 3, 1}
	bs := []float64{-50, 0, 60, 130, 400, 10000}

	for _, op := range []Op{LE, GE} {
		batch, sts, err := m.InequalityBatch(a, op, bs)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(bs) || len(sts) != len(bs) {
			t.Fatalf("op %v: batch returned %d/%d results for %d thresholds",
				op, len(batch), len(sts), len(bs))
		}
		for i, b := range bs {
			q := Query{A: a, B: b, Op: op}
			single, st, err := m.InequalityIDs(q)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(sortedIDs(batch[i]), sortedIDs(single)) {
				t.Fatalf("op %v b=%v: batch ids differ from single query", op, b)
			}
			if !equalIDs(sortedIDs(batch[i]), bruteForce(s, q)) {
				t.Fatalf("op %v b=%v: batch ids differ from brute force", op, b)
			}
			if sts[i].Accepted != st.Accepted || sts[i].Verified != st.Verified ||
				sts[i].Matched != st.Matched || sts[i].Rejected != st.Rejected ||
				sts[i].IndexUsed != st.IndexUsed {
				t.Fatalf("op %v b=%v: batch stats %+v differ from single %+v", op, b, sts[i], st)
			}
		}
	}

	// Validation: bad coefficients and non-finite thresholds error.
	if _, _, err := m.InequalityBatch(nil, LE, bs); err == nil {
		t.Error("empty coefficient vector accepted")
	}
	if _, _, err := m.InequalityBatch(a, LE, []float64{1, math.NaN()}); err == nil {
		t.Error("NaN threshold accepted")
	}
	if out, sts, err := m.InequalityBatch(a, LE, nil); err != nil || len(out) != 0 || len(sts) != 0 {
		t.Errorf("empty batch: out=%d sts=%d err=%v", len(out), len(sts), err)
	}
}

// TestPipelineStatsStages checks the new per-stage fields are wired
// through the public query paths.
func TestPipelineStatsStages(t *testing.T) {
	_, m := pipelineMulti(t)
	q := Query{A: []float64{1, 1, 1}, B: 80, Op: LE}
	_, st, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.PlanNanos < 0 || st.ExecNanos < 0 {
		t.Fatalf("negative stage times: %+v", st)
	}
	if st.N == 0 {
		t.Fatal("stats missing population size")
	}
	if st.Accepted+st.Verified+st.Rejected > st.N {
		t.Fatalf("interval counters exceed N: %+v", st)
	}
}
