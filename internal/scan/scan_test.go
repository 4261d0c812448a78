package scan

import (
	"math/rand"
	"testing"

	"planar/internal/core"
)

func testStore(t *testing.T, n, dim int, seed int64) *core.PointStore {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s, err := core.NewPointStore(dim)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		if _, err := s.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestInequalityAndCount(t *testing.T) {
	s := testStore(t, 500, 3, 1)
	q := core.Query{A: []float64{1, 2, 3}, B: 300, Op: core.LE}
	ids := IDs(s, q)
	if len(ids) != Count(s, q) {
		t.Fatalf("IDs=%d Count=%d", len(ids), Count(s, q))
	}
	for _, id := range ids {
		if !q.Satisfies(s.Vector(id)) {
			t.Fatalf("id %d does not satisfy", id)
		}
	}
	// Complement check.
	total := 0
	s.Each(func(id uint32, v []float64) bool {
		if q.Satisfies(v) {
			total++
		}
		return true
	})
	if total != len(ids) {
		t.Fatalf("missed matches: %d vs %d", total, len(ids))
	}
	// Early stop.
	visited := 0
	Inequality(s, q, func(uint32) bool { visited++; return visited < 3 })
	if visited != 3 {
		t.Fatalf("early stop visited %d", visited)
	}
}

func TestTopK(t *testing.T) {
	s := testStore(t, 400, 2, 2)
	q := core.Query{A: []float64{1, 1}, B: 120, Op: core.LE}
	res := TopK(s, q, 10)
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Distance < res[i-1].Distance {
			t.Fatal("results not sorted")
		}
	}
	for _, r := range res {
		if !q.Satisfies(s.Vector(r.ID)) {
			t.Fatalf("result %d does not satisfy query", r.ID)
		}
	}
	if got := TopK(s, q, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	// k greater than match count returns all matches.
	all := TopK(s, q, 1<<20)
	if len(all) != Count(s, q) {
		t.Fatalf("k>matches: got %d want %d", len(all), Count(s, q))
	}
}

// TestTopKZeroVector pins the baseline to core.Multi.TopK's contract:
// at A = 0 the distance |⟨A,φ⟩ − B| / |A| is undefined, so there is
// no answer — not NaN or +Inf "distances" — whatever B is, and
// whether or not every point satisfies 0 ≤ B.
func TestTopKZeroVector(t *testing.T) {
	s := testStore(t, 50, 2, 4)
	for _, b := range []float64{0, 5, -5} {
		for _, op := range []core.Op{core.LE, core.GE} {
			q := core.Query{A: []float64{0, 0}, B: b, Op: op}
			if got := TopK(s, q, 3); got != nil {
				t.Fatalf("b=%v op=%v: TopK = %v, want nil", b, op, got)
			}
		}
	}
}

func TestGEQuery(t *testing.T) {
	s := testStore(t, 300, 2, 3)
	le := core.Query{A: []float64{1, 1}, B: 100, Op: core.LE}
	ge := core.Query{A: []float64{1, 1}, B: 100, Op: core.GE}
	// Every point satisfies exactly one side unless it sits on the
	// boundary (measure zero for random data), where it satisfies
	// both.
	if Count(s, le)+Count(s, ge) < 300 {
		t.Fatal("LE and GE do not cover the store")
	}
}
