package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"planar/internal/vecmath"
)

// bruteTopK computes the reference top-k answer by scanning.
func bruteTopK(s *PointStore, q Query, k int) []Result {
	var all []Result
	s.Each(func(id uint32, v []float64) bool {
		if q.Satisfies(v) {
			all = append(all, Result{ID: id, Distance: q.Distance(v)})
		}
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance {
			return all[i].Distance < all[j].Distance
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// sameTopK compares answers allowing distance ties to resolve to
// different ids.
func sameTopK(a, b []Result, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Distance-b[i].Distance) > eps*(1+a[i].Distance) {
			return false
		}
	}
	return true
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, dim := range []int{2, 4, 6} {
		s := randomStore(t, rng, 600, dim, 1, 100)
		normal := make([]float64, dim)
		for i := range normal {
			normal[i] = 1 + rng.Float64()*3
		}
		m := oneIndex(t, s, normal, vecmath.FirstOctant(dim))
		for trial := 0; trial < 25; trial++ {
			a := make([]float64, dim)
			for i := range a {
				a[i] = 1 + rng.Float64()*6
			}
			b := rng.Float64() * 150 * float64(dim)
			q := Query{A: a, B: b, Op: LE}
			for _, k := range []int{1, 5, 50, 1000} {
				got, st, err := m.TopK(q, k)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteTopK(s, q, k)
				if !sameTopK(got, want, 1e-9) {
					t.Fatalf("dim=%d trial=%d k=%d: got %d results, want %d",
						dim, trial, k, len(got), len(want))
				}
				// Distances must be non-decreasing.
				for i := 1; i < len(got); i++ {
					if got[i].Distance < got[i-1].Distance {
						t.Fatal("results not sorted by distance")
					}
				}
				if st.N != 600 {
					t.Fatalf("stats N=%d", st.N)
				}
			}
		}
	}
}

func TestTopKPruningActuallyPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	s := randomStore(t, rng, 5000, 3, 1, 100)
	normal := []float64{1, 1, 1}
	m := oneIndex(t, s, normal, vecmath.FirstOctant(3))
	// Query parallel to the index: II empty, SI walk should stop
	// after roughly k points (paper best case k1 ≈ k+1).
	q := Query{A: []float64{2, 2, 2}, B: 300, Op: LE}
	_, st, err := m.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted > 100 {
		t.Fatalf("examined %d SI points for k=10 with a parallel index", st.Accepted)
	}
}

func TestTopKGEQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randomStore(t, rng, 400, 2, 1, 50)
	neg := vecmath.FirstOctant(2).Negate()
	m := oneIndex(t, s, []float64{1, 2}, neg)
	q := Query{A: []float64{1, 1}, B: 60, Op: GE}
	got, _, err := m.TopK(q, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteTopK(s, q, 7)
	if !sameTopK(got, want, 1e-9) {
		t.Fatalf("GE top-k mismatch: got %v want %v", got, want)
	}
}

func TestTopKValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := randomStore(t, rng, 50, 2, 1, 10)
	m := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(2))
	if _, _, err := m.TopK(Query{A: []float64{1, 1}, B: 5, Op: LE}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := m.TopK(Query{A: []float64{0, 0}, B: 5, Op: LE}, 3); err == nil {
		t.Error("zero coefficient vector accepted")
	}
	if _, _, err := m.TopK(Query{A: []float64{1}, B: 5, Op: LE}, 3); err == nil {
		t.Error("wrong-dim query accepted")
	}
	// Unsatisfiable query: empty result, no error.
	res, _, err := m.TopK(Query{A: []float64{1, 1}, B: -10, Op: LE}, 3)
	if err != nil || len(res) != 0 {
		t.Errorf("unsatisfiable: res=%v err=%v", res, err)
	}
}

func TestTopKWithKLargerThanMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := randomStore(t, rng, 100, 2, 1, 10)
	m := oneIndex(t, s, []float64{1, 1}, vecmath.FirstOctant(2))
	q := Query{A: []float64{1, 1}, B: 6, Op: LE}
	want := bruteTopK(s, q, 1<<30)
	got, _, err := m.TopK(q, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results want %d", len(got), len(want))
	}
}

// A zero coefficient leaves the intermediate interval unbounded above
// (Tmax = +Inf). Angle selection still picks the index, so Algorithm 2
// walks the tree up to +Inf rather than scanning.
func TestTopKZeroCoefficientAxis(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := randomStore(t, rng, 300, 3, 1, 20)
	m := oneIndex(t, s, []float64{1, 1, 1}, vecmath.FirstOctant(3), WithSelection(SelectAngle))
	q := Query{A: []float64{2, 0, 1}, B: 30, Op: LE}
	got, st, err := m.TopK(q, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexUsed != 0 || st.FellBack {
		t.Fatalf("answered by index %d (fellBack=%v), want the index", st.IndexUsed, st.FellBack)
	}
	if !sameTopK(got, bruteTopK(s, q, 9), 1e-9) {
		t.Fatal("top-k with a zero coefficient axis mismatched brute force")
	}
}

// The distance |⟨A,φ⟩ − B| / |A| is undefined at A = 0, so top-k
// refuses a zero coefficient vector whether or not an index exists —
// a scan must not answer it with NaN distances in arbitrary order.
func TestTopKZeroVectorRejectedWithoutIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	s := randomStore(t, rng, 3, 2, 1, 10)
	m, err := NewMulti(s)
	if err != nil {
		t.Fatal(err)
	}
	if res, _, err := m.TopK(Query{A: []float64{0, 0}, B: 0, Op: LE}, 2); err == nil {
		t.Fatalf("zero coefficient vector answered %v on a store without indexes", res)
	}
}
