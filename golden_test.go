// Golden cross-path tests: every query entry point now routes through
// internal/exec, so the index pipeline, the scan fallback, the batch
// API and a brute-force oracle must all agree on every answer —
// across sinks and with the plan cache on or off.
package planar

import (
	"math/rand"
	"sort"
	"testing"

	"planar/internal/core"
	"planar/internal/scan"
	"planar/internal/vecmath"
)

func goldenStore(t *testing.T, rng *rand.Rand, n, dim int) *core.PointStore {
	t.Helper()
	s, err := core.NewPointStore(dim)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = rng.Float64() * 60
		}
		if _, err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func goldenMulti(t *testing.T, s *core.PointStore, opts ...core.MultiOption) *core.Multi {
	t.Helper()
	m, err := core.NewMulti(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	oct := vecmath.FirstOctant(s.Dim())
	normals := [][]float64{{1, 1, 1}, {1, 3, 1}, {4, 1, 2}}
	for _, normal := range normals {
		if _, err := m.AddNormal(normal[:s.Dim()], oct); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func goldenSorted(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func goldenEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func goldenBrute(s *core.PointStore, q core.Query) []uint32 {
	var ids []uint32
	s.Each(func(id uint32, v []float64) bool {
		if q.Satisfies(v) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// TestGoldenAllPathsAgree is the post-refactor equivalence suite: for
// a stream of random queries, the indexed pipeline, the scan package,
// the batch API, COUNT and top-k must match
// the brute-force oracle and each other.
func TestGoldenAllPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	s := goldenStore(t, rng, 1200, 3)
	m := goldenMulti(t, s)

	for trial := 0; trial < 50; trial++ {
		a := []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5}
		if trial%7 == 0 {
			a[trial%3] = 0
		}
		op := core.LE
		if trial%2 == 1 {
			op = core.GE
		}
		q := core.Query{A: a, B: rng.Float64() * 400, Op: op}
		want := goldenBrute(s, q)

		ids, _, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !goldenEqual(goldenSorted(ids), want) {
			t.Fatalf("trial %d: indexed ids differ from brute force", trial)
		}

		if got := goldenSorted(scan.IDs(s, q)); !goldenEqual(got, want) {
			t.Fatalf("trial %d: scan ids differ from brute force", trial)
		}

		n, _, err := m.Count(q)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n != len(want) || scan.Count(s, q) != len(want) {
			t.Fatalf("trial %d: count %d (scan %d) want %d", trial, n, scan.Count(s, q), len(want))
		}

		batch, _, err := m.InequalityBatch(q.A, q.Op, []float64{q.B})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !goldenEqual(goldenSorted(batch[0]), want) {
			t.Fatalf("trial %d: batch ids differ from brute force", trial)
		}
	}
}

// TestGoldenTopK compares the indexed descending-SI top-k walk with
// the scan fallback's exhaustive heap.
func TestGoldenTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := goldenStore(t, rng, 900, 3)
	m := goldenMulti(t, s)
	for trial := 0; trial < 20; trial++ {
		q := core.Query{
			A:  []float64{1 + rng.Float64()*3, 1 + rng.Float64()*3, 1 + rng.Float64()*3},
			B:  50 + rng.Float64()*300,
			Op: core.LE,
		}
		k := 1 + rng.Intn(12)
		got, _, err := m.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := scan.TopK(s, q, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: topk sizes %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d: topk[%d] id %d vs scan %d (dist %.9g vs %.9g)",
					trial, i, got[i].ID, want[i].ID, got[i].Distance, want[i].Distance)
			}
		}
	}
}

// TestGoldenExplainConsistency cross-checks the (estimate-only)
// explain plan against the stats of the executed query.
func TestGoldenExplainConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := goldenStore(t, rng, 700, 3)
	m := goldenMulti(t, s)
	q := core.Query{A: []float64{1, 2, 1}, B: 180, Op: core.LE}
	plan, err := m.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	ids, st, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != st.N {
		t.Fatalf("explain N=%d, executed N=%d", plan.N, st.N)
	}
	if plan.IndexUsed != st.IndexUsed {
		t.Fatalf("explain chose index %d, execution used %d", plan.IndexUsed, st.IndexUsed)
	}
	if plan.Accepted != st.Accepted || plan.Verified != st.Verified {
		t.Fatalf("explain intervals (%d,%d) vs executed (%d,%d)",
			plan.Accepted, plan.Verified, st.Accepted, st.Verified)
	}
	if len(ids) < plan.Accepted {
		t.Fatalf("%d results but explain promised >= %d unverified accepts", len(ids), plan.Accepted)
	}
}
