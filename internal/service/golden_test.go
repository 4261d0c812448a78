package service

import (
	"math/rand"
	"sort"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

// goldenDataset is a deterministic point stream shared by the
// unsharded reference and every sharded store under test.
func goldenDataset(rng *rand.Rand, n, dim int) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 60
		}
		vecs[i] = v
	}
	return vecs
}

var goldenNormals = [][]float64{{1, 1, 1}, {1, 3, 1}, {4, 1, 2}}

func goldenReference(t *testing.T, vecs [][]float64) *core.Multi {
	t.Helper()
	s, err := core.NewPointStore(len(vecs[0]))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMulti(s)
	if err != nil {
		t.Fatal(err)
	}
	oct := vecmath.FirstOctant(s.Dim())
	for _, normal := range goldenNormals {
		if _, err := m.AddNormal(normal[:s.Dim()], oct); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range vecs {
		if _, err := m.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func goldenShardStore(t *testing.T, shards int, vecs [][]float64) *DB {
	t.Helper()
	st, err := Open(t.TempDir(), Options{Shards: shards, Dim: len(vecs[0])})
	if err != nil {
		t.Fatal(err)
	}
	oct := vecmath.FirstOctant(st.Dim())
	for _, normal := range goldenNormals {
		if _, err := st.AddNormal(normal[:st.Dim()], oct); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range vecs {
		id, err := st.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if id != uint32(i) {
			t.Fatalf("append %d assigned global id %d (round-robin ids must be dense)", i, id)
		}
	}
	return st
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

func goldenQueries(rng *rand.Rand, dim, n int) []core.Query {
	qs := make([]core.Query, n)
	for i := range qs {
		a := make([]float64, dim)
		for j := range a {
			a[j] = rng.Float64() * 5
		}
		if i%7 == 0 {
			a[i%dim] = 0
		}
		op := core.LE
		if i%2 == 1 {
			op = core.GE
		}
		qs[i] = core.Query{A: a, B: rng.Float64() * 400, Op: op}
	}
	return qs
}

// TestGoldenShardedMatchesUnsharded is the cross-path identity suite:
// sharded stores with N = 1, 2 and 8 must answer every query —
// inequality ids, counts, batches and top-k — identically to one
// unsharded Multi over the same append-only point stream. Id order is
// part of the contract: a gather returns ascending global ids, while
// the only partition of an N = 1 store hands back its own answer
// untouched, in the index's order — the order the reference has.
func TestGoldenShardedMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(2014))
	vecs := goldenDataset(rng, 1500, 3)
	ref := goldenReference(t, vecs)
	queries := goldenQueries(rng, 3, 40)

	for _, shards := range []int{1, 2, 8} {
		st := goldenShardStore(t, shards, vecs)
		if st.Len() != ref.Store().Len() {
			t.Fatalf("shards=%d: Len=%d want %d", shards, st.Len(), ref.Store().Len())
		}
		indexOrder := 0 // answers the reference did not return ascending
		var buf []uint32
		for qi, q := range queries {
			wantIDs, _, err := ref.InequalityIDs(q)
			if err != nil {
				t.Fatal(err)
			}
			want := sortedIDs(wantIDs)
			refBatch, _, err := ref.InequalityBatch(q.A, q.Op, []float64{q.B, q.B / 2})
			if err != nil {
				t.Fatal(err)
			}
			wantHalf := sortedIDs(refBatch[1])
			if shards == 1 {
				if !equalIDs(wantIDs, want) {
					indexOrder++
				}
				want, wantHalf = wantIDs, refBatch[1]
			}

			got, st1, err := st.Query(q)
			if err != nil {
				t.Fatalf("shards=%d query %d: %v", shards, qi, err)
			}
			if !equalIDs(got, want) {
				t.Fatalf("shards=%d query %d: ids differ (%d vs %d results)",
					shards, qi, len(got), len(want))
			}
			if st1.N != ref.Store().Len() {
				t.Fatalf("shards=%d query %d: merged stats N=%d want %d", shards, qi, st1.N, ref.Store().Len())
			}
			// The append-style route, into one buffer carried across
			// the queries: the same answer behind an untouched prefix.
			buf, _, err = st.AppendQuery(append(buf[:0], 7, 7), q)
			if err != nil {
				t.Fatalf("shards=%d query %d: %v", shards, qi, err)
			}
			if buf[0] != 7 || buf[1] != 7 || !equalIDs(buf[2:], want) {
				t.Fatalf("shards=%d query %d: AppendQuery wrote %d ids behind its prefix %v, want %d",
					shards, qi, len(buf)-2, buf[:2], len(want))
			}
			if st1.Accepted+st1.Matched != len(want) {
				t.Fatalf("shards=%d query %d: stats report %d results, want %d",
					shards, qi, st1.Accepted+st1.Matched, len(want))
			}

			n, _, err := st.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(want) {
				t.Fatalf("shards=%d query %d: count %d want %d", shards, qi, n, len(want))
			}

			lo, hi, err := st.SelectivityBounds(q)
			if err != nil {
				t.Fatal(err)
			}
			if lo > len(want) || hi < len(want) {
				t.Fatalf("shards=%d query %d: bounds [%d,%d] exclude answer %d", shards, qi, lo, hi, len(want))
			}

			batch, bsts, err := st.QueryBatch(q.A, q.Op, []float64{q.B, q.B / 2})
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(batch[0], want) {
				t.Fatalf("shards=%d query %d: batch ids differ", shards, qi)
			}
			if !equalIDs(batch[1], wantHalf) {
				t.Fatalf("shards=%d query %d: second batch threshold differs", shards, qi)
			}
			if len(bsts) != 2 {
				t.Fatalf("shards=%d query %d: %d batch stats", shards, qi, len(bsts))
			}
		}
		if shards == 1 && indexOrder == 0 {
			t.Fatal("every reference answer was ascending: the suite cannot tell an untouched answer from a sorted one")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenShardedTopK checks the k-way merge against the unsharded
// top-k walk: same ids, same order, same distances.
func TestGoldenShardedTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vecs := goldenDataset(rng, 900, 3)
	ref := goldenReference(t, vecs)

	for _, shards := range []int{1, 2, 8} {
		st := goldenShardStore(t, shards, vecs)
		for trial := 0; trial < 25; trial++ {
			q := core.Query{
				A:  []float64{1 + rng.Float64()*3, 1 + rng.Float64()*3, 1 + rng.Float64()*3},
				B:  50 + rng.Float64()*300,
				Op: core.LE,
			}
			k := 1 + rng.Intn(12)
			want, _, err := ref.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := st.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d trial %d: topk sizes %d vs %d", shards, trial, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID || got[i].Distance != want[i].Distance {
					t.Fatalf("shards=%d trial %d: topk[%d] = (%d, %g) want (%d, %g)",
						shards, trial, i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
				}
			}
		}
		st.Close()
	}
}

// TestGoldenShardedAfterChurn drives identical update/remove churn
// into the reference and an 8-shard store, then re-checks query
// identity. Ids are assigned append-only before the churn so both
// sides name the same points.
func TestGoldenShardedAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vecs := goldenDataset(rng, 1000, 3)
	ref := goldenReference(t, vecs)
	st := goldenShardStore(t, 8, vecs)
	defer st.Close()

	for i := 0; i < 300; i++ {
		id := uint32(rng.Intn(len(vecs)))
		switch rng.Intn(3) {
		case 0:
			if ref.Store().Live(id) {
				v := []float64{rng.Float64() * 60, rng.Float64() * 60, rng.Float64() * 60}
				if err := ref.Update(id, v); err != nil {
					t.Fatal(err)
				}
				if err := st.Update(id, v); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if ref.Store().Live(id) {
				if err := ref.Remove(id); err != nil {
					t.Fatal(err)
				}
				if err := st.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
		default:
			// Queries interleaved with churn.
		}
	}
	if st.Len() != ref.Store().Len() {
		t.Fatalf("Len=%d want %d", st.Len(), ref.Store().Len())
	}
	for _, q := range goldenQueries(rng, 3, 20) {
		wantIDs, _, err := ref.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(got, sortedIDs(wantIDs)) {
			t.Fatal("post-churn ids differ")
		}
	}
}
