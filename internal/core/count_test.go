package core

import (
	"math/rand"
	"testing"

	"planar/internal/exec"
	"planar/internal/vecmath"
)

func TestCountMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := randomStore(t, rng, 700, 4, -20, 80)
	signs := vecmath.SignPattern{1, -1, 1, 1}
	m := oneIndex(t, s, []float64{1, 2, 0.5, 3}, signs)
	for trial := 0; trial < 60; trial++ {
		a := make([]float64, 4)
		for i := range a {
			a[i] = float64(signs[i]) * rng.Float64() * 5
		}
		if trial%7 == 0 {
			a[trial%4] = 0
		}
		b := (rng.Float64() - 0.2) * 400
		q := Query{A: a, B: b, Op: LE}
		count, st, err := m.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		want := len(bruteForce(s, q))
		if count != want {
			t.Fatalf("trial %d: Count=%d want %d", trial, count, want)
		}
		if st.Accepted+st.Verified+st.Rejected != st.N {
			t.Fatalf("stats inconsistent: %+v", st)
		}
		// Bounds must bracket the truth.
		lo, hi, err := m.SelectivityBounds(q)
		if err != nil {
			t.Fatal(err)
		}
		if lo > want || hi < want {
			t.Fatalf("trial %d: bounds [%d,%d] miss true count %d", trial, lo, hi, want)
		}
	}
}

func TestCountDegenerateCases(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	s := randomStore(t, rng, 100, 2, 1, 10)
	m := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(2))
	// All match.
	if c, _, err := m.Count(Query{A: []float64{0, 0}, B: 1, Op: LE}); err != nil || c != 100 {
		t.Fatalf("all-match Count=%d err=%v", c, err)
	}
	if lo, hi, _ := m.SelectivityBounds(Query{A: []float64{0, 0}, B: 1, Op: LE}); lo != 100 || hi != 100 {
		t.Fatalf("all-match bounds [%d,%d]", lo, hi)
	}
	// None match.
	if c, _, err := m.Count(Query{A: []float64{1, 1}, B: -5, Op: LE}); err != nil || c != 0 {
		t.Fatalf("none-match Count=%d err=%v", c, err)
	}
	if lo, hi, _ := m.SelectivityBounds(Query{A: []float64{1, 1}, B: -5, Op: LE}); lo != 0 || hi != 0 {
		t.Fatalf("none-match bounds [%d,%d]", lo, hi)
	}
	// Validation.
	if _, _, err := m.Count(Query{A: []float64{1}, B: 0, Op: LE}); err == nil {
		t.Error("wrong-dim Count accepted")
	}
	if _, _, err := m.SelectivityBounds(Query{A: []float64{1}, B: 0, Op: LE}); err == nil {
		t.Error("wrong-dim bounds accepted")
	}
}

func TestParallelIndexGivesExactBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := randomStore(t, rng, 1000, 3, 1, 100)
	m := oneIndex(t, s, []float64{2, 3, 4}, vecmath.FirstOctant(3))
	q := Query{A: []float64{2, 3, 4}, B: 600, Op: LE}
	lo, hi, err := m.SelectivityBounds(q)
	if err != nil {
		t.Fatal(err)
	}
	if hi-lo > 2 { // guard band can leave a couple of boundary points
		t.Fatalf("parallel index bounds [%d,%d] not tight", lo, hi)
	}
	want := len(bruteForce(s, q))
	if lo > want || hi < want {
		t.Fatalf("bounds [%d,%d] miss %d", lo, hi, want)
	}
}

func TestMultiCountAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := randomStore(t, rng, 800, 3, 1, 100)
	m, _ := NewMulti(s)
	m.AddNormal([]float64{1, 1, 1}, vecmath.FirstOctant(3))
	m.AddNormal([]float64{4, 1, 2}, vecmath.FirstOctant(3))
	for trial := 0; trial < 30; trial++ {
		q := Query{
			A:  []float64{1 + rng.Float64()*4, 1 + rng.Float64()*4, 1 + rng.Float64()*4},
			B:  rng.Float64() * 600,
			Op: LE,
		}
		want := len(bruteForce(s, q))
		count, st, err := m.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if count != want || st.FellBack {
			t.Fatalf("trial %d: Count=%d want %d (stats %+v)", trial, count, want, st)
		}
		lo, hi, err := m.SelectivityBounds(q)
		if err != nil {
			t.Fatal(err)
		}
		if lo > want || hi < want {
			t.Fatalf("trial %d: multi bounds [%d,%d] miss %d", trial, lo, hi, want)
		}
		// The intersection must be at least as tight as each index.
		l0, h0 := indexBounds(t, m, 0, q)
		l1, h1 := indexBounds(t, m, 1, q)
		if lo < max(l0, l1) || hi > min(h0, h1) {
			t.Fatalf("bounds not intersected: [%d,%d] vs [%d,%d] and [%d,%d]", lo, hi, l0, h0, l1, h1)
		}
	}
	// Fallback count.
	q := Query{A: []float64{-1, 1, 1}, B: 100, Op: LE}
	count, st, err := m.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack || count != len(bruteForce(s, q)) {
		t.Fatalf("fallback count=%d stats=%+v", count, st)
	}
	// No compatible index: trivial bounds.
	lo, hi, err := m.SelectivityBounds(q)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi != s.Len() {
		t.Fatalf("trivial bounds [%d,%d]", lo, hi)
	}
}

// indexBounds returns index i's own guaranteed bounds for q, the
// per-index input that Multi.SelectivityBounds intersects.
func indexBounds(t *testing.T, m *Multi, i int, q Query) (lo, hi int) {
	t.Helper()
	ix := m.Index(i)
	m.mu.RLock()
	defer m.mu.RUnlock()
	info := ix.info()
	return exec.Bounds(&info, q.LE())
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
