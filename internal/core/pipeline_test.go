package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"planar/internal/exec"
	"planar/internal/vecmath"
)

// pipelineMulti builds a store plus a Multi with two first-octant
// indexes, the shared fixture for the selection and batch tests.
func pipelineMulti(t *testing.T) (*PointStore, *Multi) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	s := randomStore(t, rng, 800, 3, 1, 50)
	m, err := NewMulti(s)
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

// TestSelectionIsArgminOverCompatible pins what "best index" means:
// the first minimum of exec.Stretch (or maximum of exec.CosToQuery)
// over the indexes whose octant matches the normalized query — for
// every query on its own, whatever was asked or written before it.
func TestSelectionIsArgminOverCompatible(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := randomStore(t, rng, 600, 3, 1, 40)
	octants := []vecmath.SignPattern{{1, 1, 1}, {-1, -1, -1}, {1, -1, 1}, {-1, 1, -1}}
	normals := [][]float64{{1, 1, 1}, {1, 4, 2}, {5, 1, 1}}
	coeffs := []float64{-3, -1, 0, 0.5, 1, 2, 7}

	for _, sel := range []Selection{SelectVolume, SelectAngle} {
		m, err := NewMulti(s, WithSelection(sel))
		if err != nil {
			t.Fatal(err)
		}
		for _, oct := range octants {
			for _, normal := range normals {
				if _, err := m.AddNormal(normal, oct); err != nil {
					t.Fatal(err)
				}
			}
		}
		// want is the selection rule written out longhand: the first
		// finite minimum, or a scan (−1) when there is none.
		want := func(q Query) int {
			le := q.LE()
			pos, bestScore := -1, math.Inf(1)
			for i := 0; i < m.NumIndexes(); i++ {
				info := m.Index(i).info()
				if !info.Signs.Matches(le.A) {
					continue
				}
				score := exec.Stretch(&info, le)
				if sel == SelectAngle {
					score = -exec.CosToQuery(&info, le.A)
				}
				if score < bestScore {
					pos, bestScore = i, score
				}
			}
			return pos
		}

		queries := make([]Query, 300)
		for i := range queries {
			q := Query{A: make([]float64, 3), B: rng.Float64()*400 - 100, Op: Op(i % 2)}
			for j := range q.A {
				q.A[j] = coeffs[rng.Intn(len(coeffs))]
			}
			if q.Validate(3) != nil {
				q.A[0] = 1 // all-zero draw
			}
			queries[i] = q
		}
		chosen := make([]int, len(queries))
		pass := func(round string) {
			for i, q := range queries {
				pos := want(q)
				ids, st, err := m.InequalityIDs(q)
				if err != nil {
					t.Fatalf("%v %s q=%+v: %v", sel, round, q, err)
				}
				if st.IndexUsed != pos {
					t.Fatalf("%v %s q=%+v: index %d answered, argmin is %d", sel, round, q, st.IndexUsed, pos)
				}
				if round == "before" {
					chosen[i] = pos
				} else if pos != chosen[i] {
					t.Fatalf("%v q=%+v: index %d before the update, %d after", sel, q, chosen[i], pos)
				}
				if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
					t.Fatalf("%v %s q=%+v: wrong ids", sel, round, q)
				}
			}
		}
		pass("before")
		// An update inside the data's bounding box moves one key and
		// no index geometry.
		if err := m.Update(7, s.Vector(8)); err != nil {
			t.Fatal(err)
		}
		pass("after")
	}
}

// A zero coefficient ties every compatible index at stretch +Inf: no
// index bounds the intermediate interval, so the query is scanned and
// the plan must not blame the octant.
func TestZeroCoefficientQuery(t *testing.T) {
	s, m := pipelineMulti(t)
	q := Query{A: []float64{1, 0, 2}, B: 60, Op: LE}
	ids, st, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.IndexUsed != -1 || !st.FellBack || st.Verified != s.Len() {
		t.Fatalf("stats %+v, want a scan of all %d points", st, s.Len())
	}
	if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
		t.Fatal("wrong ids")
	}
	p, err := m.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.IndexUsed != -1 || p.Compatible != 2 || strings.Contains(p.Reason, "hyper-octant") {
		t.Fatalf("Explain = %+v, want a scan over 2 compatible indexes that does not blame the octant", p)
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
