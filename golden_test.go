// Golden cross-path tests: every query entry point now routes through
// internal/exec, so the index pipeline, the scan fallback, the batch
// API and a brute-force oracle must all agree on every answer —
// across sinks and with the plan cache on or off.
package planar

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
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

// topKCase is one top-k query of the golden suite, on the Multi m
// over store s.
type topKCase struct {
	m *core.Multi
	s *core.PointStore
	q core.Query
	k int
}

// goldenTopKCases builds one store per d ∈ {2, 3, 4, 6}, each indexed
// in the first octant twice and in a mixed-sign octant once. Points
// appended after the build lie outside every index's translation, so
// each index's δ has widened (Shift ≠ 0), and some points are then
// removed. The 24 queries per store are LE and GE, each near one
// index's normal (a GE query near its negation) or, one in eight, in
// no index's octant — which the scan answers — with B near a random
// point's scalar product and k from 1 to 16.
func goldenTopKCases(t *testing.T) []topKCase {
	t.Helper()
	rng := rand.New(rand.NewSource(35))
	var cases []topKCase
	for _, d := range []int{2, 3, 4, 6} {
		s, err := core.NewPointStore(d)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMulti(s)
		if err != nil {
			t.Fatal(err)
		}
		v := make([]float64, d)
		for i := 0; i < 800; i++ {
			for j := range v {
				v[j] = rng.Float64()*100 - 5
			}
			if _, err := m.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		mixed := make(vecmath.SignPattern, d)
		for j := range mixed {
			mixed[j] = int8(1 - 2*(j%2))
		}
		var effective [][]float64 // each index's c_i·s_i
		for _, signs := range []vecmath.SignPattern{vecmath.FirstOctant(d), vecmath.FirstOctant(d), mixed} {
			normal := make([]float64, d)
			for j := range normal {
				normal[j] = 0.5 + rng.Float64()*3
			}
			if _, err := m.AddNormal(normal, signs); err != nil {
				t.Fatal(err)
			}
			effective = append(effective, m.Index(m.NumIndexes()-1).EffectiveNormal())
		}
		for i := 0; i < 40; i++ {
			for j := range v {
				v[j] = rng.Float64()*110 - 12
			}
			if _, err := m.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 120; i++ {
			_ = m.Remove(uint32(rng.Intn(840))) // a repeat fails; that is fine
		}
		for i := 0; i < m.NumIndexes(); i++ {
			if m.Index(i).Shift() == 0 {
				t.Fatalf("d=%d: index %d's translation did not widen", d, i)
			}
		}

		var live []uint32
		s.Each(func(id uint32, _ []float64) bool { live = append(live, id); return true })
		for trial := 0; trial < 24; trial++ {
			op, sign := core.LE, 1.0
			if trial%2 == 1 {
				op, sign = core.GE, -1
			}
			near := effective[rng.Intn(len(effective))]
			scanned := rng.Intn(8) == 0
			a := make([]float64, d)
			for j := range a {
				a[j] = sign * near[j] * (0.85 + 0.3*rng.Float64())
			}
			if scanned {
				a[0] = -a[0]
			}
			b := vecmath.Dot(a, s.Vector(live[rng.Intn(len(live))])) + (rng.Float64()-0.5)*float64(d)*10
			cases = append(cases, topKCase{m: m, s: s, q: core.Query{A: a, B: b, Op: op}, k: 1 + rng.Intn(16)})
		}
	}
	return cases
}

// bruteTopK answers c by brute force over the store's live points:
// every point satisfying the query, sorted by (distance, id), the
// first k kept.
func bruteTopK(c topKCase) []core.Result {
	nq := c.q.LE()
	var all []core.Result
	c.s.Each(func(id uint32, v []float64) bool {
		if c.q.Satisfies(v) {
			all = append(all, core.Result{ID: id, Distance: nq.Distance(v)})
		}
		return true
	})
	slices.SortFunc(all, func(x, y core.Result) int {
		if c := cmp.Compare(x.Distance, y.Distance); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	return all[:min(c.k, len(all))]
}

// TestGoldenTopK checks the indexed top-k walk and the scan baseline
// against brute force, ids and distances exactly, on mixed-sign
// octants, GE queries and widened translations.
func TestGoldenTopK(t *testing.T) {
	indexed := 0
	for i, c := range goldenTopKCases(t) {
		want := bruteTopK(c)
		got, st, err := c.m.TopK(c.q, c.k)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%+v, k=%d): top-k %v, brute force %v", i, c.q, c.k, got, want)
		}
		if sc := scan.TopK(c.s, c.q, c.k); !slices.Equal(sc, want) {
			t.Fatalf("case %d: scan top-k %v, brute force %v", i, sc, want)
		}
		if st.IndexUsed >= 0 {
			indexed++
		}
	}
	if indexed < 60 {
		t.Fatalf("only %d cases ran on an index", indexed)
	}
}

// goldenTopKLine formats one case's answer and Stats as a line of the
// pinned fixture: the interval counters, then id:distance-bits pairs.
func goldenTopKLine(i int, got []core.Result, st core.Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d acc=%d ver=%d rej=%d mat=%d idx=%d", i,
		st.Accepted, st.Verified, st.Rejected, st.Matched, st.IndexUsed)
	for _, r := range got {
		fmt.Fprintf(&b, " %d:%016x", r.ID, math.Float64bits(r.Distance))
	}
	return b.String()
}

// TestGoldenTopKPinned pins every top-k answer and its Stats —
// Accepted is Claim 3's k1, the smaller-interval entries examined
// before the cut-off — to testdata/golden_topk.txt. The fixture was
// written by formatting goldenTopKCases' answers with goldenTopKLine,
// one line per case, at commit 3e06925, the last whose top-k walked
// the tree entry by entry (DescendLE) and verified through per-point
// vector lookups; the leaf-chunk walk must not move a bit of it.
func TestGoldenTopKPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "golden_topk.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	cases := goldenTopKCases(t)
	if len(want) != len(cases) {
		t.Fatalf("fixture has %d lines for %d cases", len(want), len(cases))
	}
	for i, c := range cases {
		got, st, err := c.m.TopK(c.q, c.k)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if line := goldenTopKLine(i, got, st); line != want[i] {
			t.Fatalf("case %d:\n got %s\nwant %s", i, line, want[i])
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
