package core

import (
	"math/rand"
	"strings"
	"testing"

	"planar/internal/vecmath"
)

func TestExplainIndexedPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := randomStore(t, rng, 1000, 3, 1, 100)
	m, _ := NewMulti(s)
	m.AddNormal([]float64{1, 1, 1}, vecmath.FirstOctant(3))
	m.AddNormal([]float64{4, 1, 2}, vecmath.FirstOctant(3))

	q := Query{A: []float64{2, 2, 2}, B: 300, Op: LE}
	plan, err := m.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed != 0 { // parallel to index 0
		t.Fatalf("IndexUsed=%d (plan %+v)", plan.IndexUsed, plan)
	}
	if plan.Compatible != 2 || plan.N != 1000 {
		t.Fatalf("plan %+v", plan)
	}
	// The conservative guard band leaves a tiny nonzero stretch even
	// for an exactly parallel query.
	if plan.Stretch > 1e-5 || plan.Cos < 0.999999 {
		t.Fatalf("parallel query: stretch=%v cos=%v", plan.Stretch, plan.Cos)
	}
	if plan.Accepted+plan.Verified+plan.Rejected != plan.N {
		t.Fatalf("intervals do not add up: %+v", plan)
	}
	// The plan's interval sizes must match what execution reports.
	_, st, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != plan.Accepted || st.Verified != plan.Verified {
		t.Fatalf("plan predicted %d/%d, execution saw %d/%d",
			plan.Accepted, plan.Verified, st.Accepted, st.Verified)
	}
	if st.Results() < plan.BoundsLo || st.Results() > plan.BoundsHi {
		t.Fatalf("answer %d outside plan bounds [%d,%d]",
			st.Results(), plan.BoundsLo, plan.BoundsHi)
	}
	if !strings.Contains(plan.String(), "index 0") {
		t.Fatalf("String() = %q", plan.String())
	}
}

func TestExplainScanPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s := randomStore(t, rng, 500, 2, 1, 100)

	// No compatible octant.
	m, _ := NewMulti(s)
	m.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2))
	plan, err := m.Explain(Query{A: []float64{1, -1}, B: 0, Op: LE})
	if err != nil {
		t.Fatal(err)
	}
	if plan.IndexUsed != -1 || plan.Verified != 500 {
		t.Fatalf("octant-miss plan %+v", plan)
	}
	if !strings.Contains(plan.String(), "sequential scan") {
		t.Fatalf("String() = %q", plan.String())
	}

	// Validation.
	if _, err := m.Explain(Query{A: []float64{1}, B: 0, Op: LE}); err == nil {
		t.Fatal("wrong-dim query accepted")
	}
}
