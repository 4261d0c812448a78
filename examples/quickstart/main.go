// Quickstart: index a small set of φ vectors and answer scalar
// product queries — both the inequality form (Problem 1) and the
// top-k nearest-neighbour form (Problem 2) — through the planar
// index, cross-checked against a sequential scan.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"planar/internal/core"
	"planar/internal/scan"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// 1. Store the function values φ(x) for every data point. Here
	//    φ is the identity on 3-d points in (0, 100): the half-space
	//    range searching special case.
	rng := rand.New(rand.NewSource(42))
	store, err := core.NewPointStore(3)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		_, err := store.Append([]float64{
			rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	// 2. Build a budget of planar indexes. Query coefficients will
	//    come from [1, 5] on every axis, so index normals are sampled
	//    from the same domains (paper Section 5.2).
	m, err := core.NewMulti(store)
	if err != nil {
		log.Fatal(err)
	}
	domains := []core.Domain{{Lo: 1, Hi: 5}, {Lo: 1, Hi: 5}, {Lo: 1, Hi: 5}}
	added, err := m.SampleBudget(25, domains, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %d planar indexes over %d points\n", added, store.Len())

	// 3. Inequality query: ⟨a, φ(x)⟩ ≤ b with parameters chosen at
	//    query time.
	q, err := core.NewQuery([]float64{2, 3.5, 1}, 250, core.LE)
	if err != nil {
		log.Fatal(err)
	}
	ids, st, err := m.InequalityIDs(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inequality 2x+3.5y+z <= 250: %d points, %.1f%% pruned without computing the product\n",
		len(ids), 100*st.PruningFraction())

	// Cross-check against the naive scan.
	if want := scan.Count(store, q); want != len(ids) {
		log.Fatalf("index answered %d, scan answered %d", len(ids), want)
	}
	fmt.Println("sequential scan agrees exactly")

	// Every query runs through the plan/execute/sink pipeline; the
	// stats expose the stages.
	fmt.Printf("pipeline: plan %dns, exec %dns\n", st.PlanNanos, st.ExecNanos)

	// A parameter sweep over thresholds b shares one plan.
	perB, _, err := m.InequalityBatch([]float64{2, 3.5, 1}, core.LE,
		[]float64{100, 250, 500})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("batch sweep b=100/250/500: %d / %d / %d points\n",
		len(perB[0]), len(perB[1]), len(perB[2]))

	// 4. Top-k: the 5 satisfying points closest to the query
	//    hyperplane (the active-learning primitive).
	top, _, err := m.TopK(q, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("5 closest satisfying points to the hyperplane:")
	for _, r := range top {
		fmt.Printf("  point %-6d distance %.4f\n", r.ID, r.Distance)
	}

	// 5. Dynamic updates keep every index consistent in O(log n).
	if err := m.Update(ids[0], []float64{99, 99, 99}); err != nil {
		log.Fatal(err)
	}
	after, _, err := m.InequalityIDs(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after moving one matching point away: %d points match\n", len(after))
}
