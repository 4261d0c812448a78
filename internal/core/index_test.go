package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"planar/internal/vecmath"
)

// randomStore builds a store of n points with coordinates drawn
// uniformly from [lo, hi) per axis.
func randomStore(t testing.TB, rng *rand.Rand, n, dim int, lo, hi float64) *PointStore {
	t.Helper()
	s, err := NewPointStore(dim)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = lo + rng.Float64()*(hi-lo)
		}
		if _, err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// bruteForce returns the sorted ids satisfying q by scanning.
func bruteForce(s *PointStore, q Query) []uint32 {
	var ids []uint32
	s.Each(func(id uint32, v []float64) bool {
		if q.Satisfies(v) {
			ids = append(ids, id)
		}
		return true
	})
	return ids
}

// oneIndex builds a Multi over s holding the single index (normal,
// signs): the one-index case of the query surface.
func oneIndex(t testing.TB, s *PointStore, normal []float64, signs vecmath.SignPattern, opts ...MultiOption) *Multi {
	t.Helper()
	m, err := NewMulti(s, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := m.AddNormal(normal, signs); err != nil || !ok {
		t.Fatalf("AddNormal(%v, %v): ok=%v err=%v", normal, signs, ok, err)
	}
	return m
}

func sortedIDs(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []uint32) bool {
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

func TestNewIndexValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomStore(t, rng, 10, 3, 0, 1)
	oct := vecmath.FirstOctant(3)
	if _, err := NewMulti(nil); err == nil {
		t.Error("nil store accepted")
	}
	m, err := NewMulti(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddNormal([]float64{1, 1}, oct); err == nil {
		t.Error("wrong-dim normal accepted")
	}
	if _, err := m.AddNormal([]float64{1, 0, 1}, oct); err == nil {
		t.Error("zero normal component accepted")
	}
	if _, err := m.AddNormal([]float64{1, -1, 1}, oct); err == nil {
		t.Error("negative normal component accepted")
	}
	if _, err := m.AddNormal([]float64{1, math.NaN(), 1}, oct); err == nil {
		t.Error("NaN normal accepted")
	}
	if _, err := m.AddNormal([]float64{1, 1, 1}, vecmath.SignPattern{1, 1}); err == nil {
		t.Error("wrong-dim signs accepted")
	}
	if _, err := m.AddNormal([]float64{1, 1, 1}, vecmath.SignPattern{1, 0, 1}); err == nil {
		t.Error("zero sign accepted")
	}
	if m.NumIndexes() != 0 {
		t.Fatalf("invalid normals left %d indexes", m.NumIndexes())
	}
	ix := oneIndex(t, s, []float64{1, 2, 3}, oct).Index(0)
	if ix.Len() != 10 {
		t.Fatalf("Len=%d", ix.Len())
	}
	if got := ix.Normal(); got[2] != 3 {
		t.Fatalf("Normal=%v", got)
	}
	if got := ix.Signs(); !got.Equal(oct) {
		t.Fatalf("Signs=%v", got)
	}
	if got := ix.EffectiveNormal(); got[0] != 1 {
		t.Fatalf("EffectiveNormal=%v", got)
	}
	if ix.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes non-positive")
	}
}

func TestInequalityMatchesBruteForceFirstOctant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dim := range []int{1, 2, 3, 6} {
		s := randomStore(t, rng, 500, dim, 1, 100)
		normal := make([]float64, dim)
		for i := range normal {
			normal[i] = 1 + rng.Float64()*5
		}
		m := oneIndex(t, s, normal, vecmath.FirstOctant(dim))
		for trial := 0; trial < 50; trial++ {
			a := make([]float64, dim)
			for i := range a {
				a[i] = 1 + rng.Float64()*10
			}
			// Bounds spanning empty through full selectivity.
			b := rng.Float64() * 200 * float64(dim) * 5
			q := Query{A: a, B: b, Op: LE}
			ids, st, err := m.InequalityIDs(q)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(s, q)
			if !equalIDs(sortedIDs(ids), want) {
				t.Fatalf("dim=%d trial=%d: got %d ids want %d", dim, trial, len(ids), len(want))
			}
			if st.Accepted+st.Verified+st.Rejected != st.N {
				t.Fatalf("stats do not add up: %+v", st)
			}
			if st.Results() != len(ids) {
				t.Fatalf("Results()=%d want %d", st.Results(), len(ids))
			}
		}
	}
}

func TestInequalityAllOctantsAndOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim := 3
	// Data spread across all octants, including negative coords.
	s := randomStore(t, rng, 400, dim, -50, 50)
	for oct := 0; oct < 8; oct++ {
		signs := make(vecmath.SignPattern, dim)
		for i := range signs {
			if oct>>i&1 == 1 {
				signs[i] = -1
			} else {
				signs[i] = 1
			}
		}
		normal := []float64{1 + rng.Float64(), 1 + rng.Float64(), 1 + rng.Float64()}
		// Angle selection keeps the index in use on the zero-axis
		// trials too, where its intermediate interval has no upper
		// bound; volume selection would score it +Inf and scan.
		m := oneIndex(t, s, normal, signs, WithSelection(SelectAngle))
		for trial := 0; trial < 30; trial++ {
			a := make([]float64, dim)
			for i := range a {
				a[i] = float64(signs[i]) * (rng.Float64() * 5)
			}
			if trial%5 == 0 {
				a[rng.Intn(dim)] = 0 // exercise ignored axes
			}
			b := (rng.Float64() - 0.3) * 300
			q := Query{A: a, B: b, Op: LE}
			ids, st, err := m.InequalityIDs(q)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(s, q)
			if !equalIDs(sortedIDs(ids), want) {
				t.Fatalf("oct=%s trial=%d: got %d want %d (stats %+v)",
					signs, trial, len(ids), len(want), st)
			}
			if st.IndexUsed != 0 || st.FellBack {
				t.Fatalf("oct=%s trial=%d: answered by index %d (fellBack=%v), want the index",
					signs, trial, st.IndexUsed, st.FellBack)
			}
		}
	}
}

func TestGEQueriesViaNegatedOctant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dim := 2
	s := randomStore(t, rng, 300, dim, 0, 10)
	// A GE query with positive coefficients normalises to an LE query
	// with all-negative coefficients, so the serving index must be
	// built for the all-negative octant.
	neg := vecmath.FirstOctant(dim).Negate()
	m := oneIndex(t, s, []float64{1, 1}, neg)
	for trial := 0; trial < 40; trial++ {
		q := Query{
			A:  []float64{rng.Float64() * 4, rng.Float64() * 4},
			B:  rng.Float64() * 60,
			Op: GE,
		}
		if q.A[0] == 0 && q.A[1] == 0 {
			continue
		}
		ids, st, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(s, q)
		if !equalIDs(sortedIDs(ids), want) {
			t.Fatalf("trial %d: got %d want %d", trial, len(ids), len(want))
		}
		if st.IndexUsed != 0 {
			t.Fatalf("trial %d: the negated-octant index did not answer: %+v", trial, st)
		}
	}
	// The positive octant index cannot serve the same GE query: it is
	// scanned.
	pos := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(dim))
	q := Query{A: []float64{1, 1}, B: 5, Op: GE}
	ids, st, err := pos.InequalityIDs(q)
	if err != nil || !st.FellBack || !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
		t.Fatalf("octant miss: %d ids, stats %+v, err %v; want the scan's answer", len(ids), st, err)
	}
}

func TestDegenerateQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomStore(t, rng, 100, 2, 1, 10)
	m := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(2))

	// All-zero coefficients, non-negative bound: everything matches.
	ids, st, err := m.InequalityIDs(Query{A: []float64{0, 0}, B: 0, Op: LE})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 100 || st.Accepted != 100 {
		t.Fatalf("all-match case: ids=%d stats=%+v", len(ids), st)
	}
	// All-zero coefficients, negative bound: nothing matches.
	ids, st, err = m.InequalityIDs(Query{A: []float64{0, 0}, B: -1, Op: LE})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 || st.Rejected != 100 {
		t.Fatalf("none-match case: ids=%d stats=%+v", len(ids), st)
	}
	// Negative bound with positive data: empty without verification.
	ids, st, err = m.InequalityIDs(Query{A: []float64{1, 1}, B: -5, Op: LE})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 || st.Verified != 0 {
		t.Fatalf("b<0 case: ids=%d stats=%+v", len(ids), st)
	}
	// Invalid queries.
	if _, _, err := m.InequalityIDs(Query{A: []float64{1}, B: 0, Op: LE}); err == nil {
		t.Error("wrong-dim query accepted")
	}
	if _, _, err := m.InequalityIDs(Query{A: []float64{1, math.NaN()}, B: 0, Op: LE}); err == nil {
		t.Error("NaN query accepted")
	}
	if _, _, err := m.InequalityIDs(Query{A: []float64{1, 1}, B: math.Inf(1), Op: LE}); err == nil {
		t.Error("infinite bound accepted")
	}
	if _, _, err := m.InequalityIDs(Query{A: []float64{1, 1}, B: 0, Op: Op(9)}); err == nil {
		t.Error("bad op accepted")
	}
}

func TestParallelIndexGivesEmptyIntermediateInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomStore(t, rng, 1000, 3, 1, 100)
	normal := []float64{2, 3, 4}
	m := oneIndex(t, s, normal, vecmath.FirstOctant(3))
	// Query hyperplane parallel to the index family (same normal):
	// Corollary 1 says stretch is 0 and the II is (nearly) empty.
	q := Query{A: normal, B: 500, Op: LE}
	_, st, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Verified > 2 { // guard band may catch boundary points
		t.Fatalf("parallel query verified %d points, want ~0", st.Verified)
	}
	p, err := m.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stretch > 1e-6 {
		t.Fatalf("Stretch=%v want ~0", p.Stretch)
	}
	if math.Abs(p.Cos-1) > 1e-12 {
		t.Fatalf("Cos=%v want 1", p.Cos)
	}
}

func TestEarlyStopVisit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomStore(t, rng, 200, 2, 1, 10)
	m := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(2))
	count := 0
	_, err := m.Inequality(Query{A: []float64{1, 1}, B: 1e6, Op: LE}, func(uint32) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("visited %d want 5", count)
	}
}

func TestDynamicAddWidensTranslation(t *testing.T) {
	s, _ := NewPointStore(2)
	for i := 0; i < 50; i++ {
		s.Append([]float64{float64(i), float64(50 - i)})
	}
	m := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(2))
	ix := m.Index(0)
	tree := ix.Tree()
	// Adding a point with a negative coordinate violates the
	// first-octant translation (δ was 0): δ widens to 10 and the point
	// goes into the same tree, keyed in the frame it was built in.
	if _, err := m.Append([]float64{-10, 5}); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 51 {
		t.Fatalf("Len=%d", ix.Len())
	}
	if ix.Tree() != tree {
		t.Fatal("widening the translation replaced the tree")
	}
	if got := ix.Shift(); got != 10 {
		t.Fatalf("Shift=%v, want 10", got)
	}
	q := Query{A: []float64{2, 3}, B: 40, Op: LE}
	ids, _, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
		t.Fatal("index wrong after a widening add")
	}
	if err := m.Update(9999, []float64{1, 1}); err == nil {
		t.Error("Update of dead id succeeded")
	}
}

func TestEmptyStoreQueries(t *testing.T) {
	s, err := NewPointStore(2)
	if err != nil {
		t.Fatal(err)
	}
	m := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(2))
	q := Query{A: []float64{1, 1}, B: 10, Op: LE}
	ids, st, err := m.InequalityIDs(q)
	if err != nil || len(ids) != 0 || st.N != 0 {
		t.Fatalf("empty inequality: ids=%v st=%+v err=%v", ids, st, err)
	}
	res, _, err := m.TopK(q, 3)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty topk: res=%v err=%v", res, err)
	}
	count, _, err := m.Count(q)
	if err != nil || count != 0 {
		t.Fatalf("empty count: %d err=%v", count, err)
	}
	lo, hi, err := m.SelectivityBounds(q)
	if err != nil || lo != 0 || hi != 0 {
		t.Fatalf("empty bounds: [%d,%d] err=%v", lo, hi, err)
	}
	// Points added after construction are indexed.
	if _, err := m.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	ids, _, _ = m.InequalityIDs(q)
	if len(ids) != 1 {
		t.Fatalf("after add: ids=%v", ids)
	}
}

func TestStatsPruningFraction(t *testing.T) {
	st := Stats{N: 100, Accepted: 30, Verified: 20, Matched: 5, Rejected: 50}
	if got := st.PruningFraction(); got != 0.8 {
		t.Fatalf("PruningFraction=%v", got)
	}
	if got := (Stats{}).PruningFraction(); got != 0 {
		t.Fatalf("empty PruningFraction=%v", got)
	}
	if st.Results() != 35 {
		t.Fatalf("Results=%d", st.Results())
	}
}

func TestQueryHelpers(t *testing.T) {
	q, err := NewQuery([]float64{3, 4}, 10, LE)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Satisfies([]float64{1, 1}) { // 7 <= 10
		t.Error("Satisfies LE wrong")
	}
	if q.Satisfies([]float64{10, 10}) {
		t.Error("Satisfies LE wrong (should fail)")
	}
	g := Query{A: []float64{3, 4}, B: 10, Op: GE}
	if g.Satisfies([]float64{1, 1}) {
		t.Error("Satisfies GE wrong")
	}
	if !g.Satisfies([]float64{10, 10}) {
		t.Error("Satisfies GE wrong (should pass)")
	}
	if d := q.Distance([]float64{2, 1}); d != 0 {
		t.Errorf("Distance=%v", d)
	}
	h, err := q.Hyperplane()
	if err != nil || h.Offset != 10 {
		t.Errorf("Hyperplane=%v err=%v", h, err)
	}
	if LE.String() != "<=" || GE.String() != ">=" || Op(7).String() == "" {
		t.Error("Op.String broken")
	}
	if _, err := NewQuery([]float64{1}, math.NaN(), LE); err == nil {
		t.Error("NaN bound accepted")
	}
}

// Property: for random data, random octant-consistent queries, the
// planar answer always equals brute force and the stats always add
// up. This is the library's central exactness guarantee.
func TestInequalityExactnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		dim := 1 + rng.Intn(5)
		n := 50 + rng.Intn(300)
		lo := -100 + rng.Float64()*100
		hi := lo + rng.Float64()*200
		s := randomStore(t, rng, n, dim, lo, hi)
		signs := make(vecmath.SignPattern, dim)
		for i := range signs {
			if rng.Intn(2) == 0 {
				signs[i] = 1
			} else {
				signs[i] = -1
			}
		}
		normal := make([]float64, dim)
		for i := range normal {
			normal[i] = 0.1 + rng.Float64()*9.9
		}
		m := oneIndex(t, s, normal, signs)
		for qt := 0; qt < 10; qt++ {
			a := make([]float64, dim)
			for i := range a {
				a[i] = float64(signs[i]) * rng.Float64() * 10
			}
			b := (rng.Float64()*2 - 0.5) * 1000
			op := LE
			if rng.Intn(2) == 0 {
				// GE flips the octant; negate coefficients so the
				// normalized query matches this index.
				op = GE
				for i := range a {
					a[i] = -a[i]
				}
				b = -b
			}
			q := Query{A: a, B: b, Op: op}
			ids, st, err := m.InequalityIDs(q)
			if err != nil {
				t.Fatalf("trial=%d qt=%d: %v", trial, qt, err)
			}
			if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
				t.Fatalf("trial=%d qt=%d: mismatch (dim=%d n=%d)", trial, qt, dim, n)
			}
			if st.Accepted+st.Verified+st.Rejected != st.N {
				t.Fatalf("stats inconsistent: %+v", st)
			}
		}
	}
}
