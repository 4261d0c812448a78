package core_test

import (
	"fmt"
	"math/rand"

	"planar/internal/core"
	"planar/internal/vecmath"
)

// ExampleIndex demonstrates a single planar index answering an
// inequality query exactly.
func ExampleIndex() {
	store, _ := core.NewPointStore(2)
	for _, v := range [][]float64{{1, 1}, {3, 3}, {2, 5}, {8, 2}, {9, 9}, {4, 4}} {
		store.Append(v)
	}
	m, _ := core.NewMulti(store)
	m.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2))

	// ⟨(1, 2), φ(x)⟩ ≤ 10
	q, _ := core.NewQuery([]float64{1, 2}, 10, core.LE)
	ids, st, _ := m.InequalityIDs(q)
	fmt.Printf("matches=%d accepted-without-verification=%d\n", len(ids), st.Accepted)
	// Output:
	// matches=2 accepted-without-verification=1
}

// ExampleMulti shows budgeted index construction from parameter
// domains and a top-k nearest-neighbour query.
func ExampleMulti() {
	store, _ := core.NewPointStore(2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		store.Append([]float64{rng.Float64() * 10, rng.Float64() * 10})
	}
	m, _ := core.NewMulti(store)
	m.SampleBudget(10, []core.Domain{{Lo: 1, Hi: 3}, {Lo: 1, Hi: 3}}, rng)

	q, _ := core.NewQuery([]float64{2, 1}, 12, core.LE)
	top, _, _ := m.TopK(q, 3)
	fmt.Printf("results=%d closest-first=%v\n", len(top), top[0].Distance <= top[2].Distance)
	// Output:
	// results=3 closest-first=true
}

// ExampleMulti_Count shows the O(log n) COUNT(*) path: only the
// intermediate interval is verified.
func ExampleMulti_Count() {
	store, _ := core.NewPointStore(2)
	for i := 0; i < 100; i++ {
		store.Append([]float64{float64(i), float64(i)})
	}
	m, _ := core.NewMulti(store)
	m.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2))

	// Parallel to the index family: counted with zero verification.
	q, _ := core.NewQuery([]float64{2, 2}, 150, core.LE)
	count, st, _ := m.Count(q)
	fmt.Printf("count=%d verified=%d\n", count, st.Verified)
	// Output:
	// count=38 verified=0
}
