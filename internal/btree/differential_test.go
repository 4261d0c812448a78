package btree

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"planar/internal/btree/reftree"
)

// The differential suite replays identical workloads against the
// arena tree and the retired pointer tree (package reftree) and
// asserts they answer every query identically. The pointer tree is
// the reference implementation the arena rewrite must not diverge
// from.

func refCollect(t *reftree.Tree) []Entry {
	var out []Entry
	t.Ascend(func(e reftree.Entry) bool {
		out = append(out, Entry{Key: e.Key, ID: e.ID})
		return true
	})
	return out
}

func compareTrees(t *testing.T, arena *Tree, ref *reftree.Tree, rng *rand.Rand) {
	t.Helper()
	if arena.Len() != ref.Len() {
		t.Fatalf("Len: arena %d, ref %d", arena.Len(), ref.Len())
	}
	a, b := collect(arena), refCollect(ref)
	if len(a) != len(b) {
		t.Fatalf("Ascend: arena %d entries, ref %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Ascend mismatch at %d: arena %v, ref %v", i, a[i], b[i])
		}
	}
	am, aok := arena.Min()
	rm, rok := ref.Min()
	if aok != rok || (aok && am != (Entry{Key: rm.Key, ID: rm.ID})) {
		t.Fatalf("Min: arena %v/%v, ref %v/%v", am, aok, rm, rok)
	}
	ax, aok := arena.Max()
	rx, rok := ref.Max()
	if aok != rok || (aok && ax != (Entry{Key: rx.Key, ID: rx.ID})) {
		t.Fatalf("Max: arena %v/%v, ref %v/%v", ax, aok, rx, rok)
	}
	// Probe rank and range queries at random and boundary keys.
	probes := []float64{math.Inf(-1), math.Inf(1), 0}
	for i := 0; i < 8; i++ {
		probes = append(probes, rng.Float64()*120-10)
	}
	if len(a) > 0 {
		probes = append(probes, a[0].Key, a[len(a)-1].Key, a[rng.Intn(len(a))].Key)
	}
	for _, hi := range probes {
		if g, w := arena.RankLE(hi), ref.RankLE(hi); g != w {
			t.Fatalf("RankLE(%v): arena %d, ref %d", hi, g, w)
		}
		var wa []Entry
		ga := descendLE(arena, hi, 300)
		ref.DescendLE(hi, func(e reftree.Entry) bool {
			wa = append(wa, Entry{Key: e.Key, ID: e.ID})
			return len(wa) < 300
		})
		if len(ga) != len(wa) {
			t.Fatalf("DescendLE(%v): arena %d entries, ref %d", hi, len(ga), len(wa))
		}
		for i := range ga {
			if ga[i] != wa[i] {
				t.Fatalf("DescendLE(%v) mismatch at %d: %v vs %v", hi, i, ga[i], wa[i])
			}
		}
		for _, lo := range probes {
			if g, w := arena.CountRange(lo, hi), ref.CountRange(lo, hi); g != w {
				t.Fatalf("CountRange(%v,%v): arena %d, ref %d", lo, hi, g, w)
			}
			ga, wa = ascendRange(arena, lo, hi), wa[:0]
			ref.AscendRange(lo, hi, func(e reftree.Entry) bool {
				wa = append(wa, Entry{Key: e.Key, ID: e.ID})
				return true
			})
			if len(ga) != len(wa) {
				t.Fatalf("AscendRange(%v,%v): arena %d entries, ref %d", lo, hi, len(ga), len(wa))
			}
			for i := range ga {
				if ga[i] != wa[i] {
					t.Fatalf("AscendRange(%v,%v) mismatch at %d: %v vs %v", lo, hi, i, ga[i], wa[i])
				}
			}
		}
	}
}

func TestDifferentialVsReftree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	arena := New()
	ref := reftree.New()
	live := make(map[Entry]bool)
	var pool []Entry

	const rounds = 30
	const opsPerRound = 600
	for round := 0; round < rounds; round++ {
		for op := 0; op < opsPerRound; op++ {
			// Narrow key space (quantised) so duplicate keys with
			// distinct ids and exact re-deletes are common.
			e := Entry{
				Key: math.Floor(rng.Float64()*400) / 4,
				ID:  uint32(rng.Intn(2000)),
			}
			if rng.Intn(3) == 0 && len(pool) > 0 {
				e = pool[rng.Intn(len(pool))]
			}
			if rng.Intn(2) == 0 {
				ga := arena.Insert(e.Key, e.ID)
				gr := ref.Insert(e.Key, e.ID)
				if ga != gr {
					t.Fatalf("Insert(%v): arena %v, ref %v", e, ga, gr)
				}
				if ga != !live[e] {
					t.Fatalf("Insert(%v)=%v but live=%v", e, ga, live[e])
				}
				live[e] = true
				pool = append(pool, e)
			} else {
				ga := arena.Delete(e.Key, e.ID)
				gr := ref.Delete(e.Key, e.ID)
				if ga != gr {
					t.Fatalf("Delete(%v): arena %v, ref %v", e, ga, gr)
				}
				if ga != live[e] {
					t.Fatalf("Delete(%v)=%v but live=%v", e, ga, live[e])
				}
				delete(live, e)
			}
			if g, w := arena.Contains(e.Key, e.ID), ref.Contains(e.Key, e.ID); g != w {
				t.Fatalf("Contains(%v): arena %v, ref %v", e, g, w)
			}
		}
		mustValidate(t, arena)
		if err := ref.Validate(); err != nil {
			t.Fatalf("reference tree invalid: %v", err)
		}
		compareTrees(t, arena, ref, rng)
	}

	// Drain to empty through both trees.
	for e := range live {
		if !arena.Delete(e.Key, e.ID) || !ref.Delete(e.Key, e.ID) {
			t.Fatalf("drain delete %v failed", e)
		}
	}
	mustValidate(t, arena)
	compareTrees(t, arena, ref, rng)
	if arena.Len() != 0 {
		t.Fatalf("drained arena still has %d entries", arena.Len())
	}
}

func TestDifferentialBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, leafMin, leafCap, leafCap + 1, 2*leafCap + 17, 7000} {
		ents := make([]Entry, n)
		refEnts := make([]reftree.Entry, n)
		for i := range ents {
			e := Entry{Key: math.Floor(rng.Float64() * 50), ID: uint32(rng.Intn(5000))}
			ents[i] = e
			refEnts[i] = reftree.Entry{Key: e.Key, ID: e.ID}
		}
		arena := BulkLoad(ents)
		ref := reftree.BulkLoad(refEnts)
		mustValidate(t, arena)
		compareTrees(t, arena, ref, rng)
	}
}

// TestChunkViewsMatchEntryWalks pins the contiguous-view APIs
// (RankChunks, DescendChunks, RangeChunks, CollectRange) to the
// entry-at-a-time AscendLE walk: same entries, same order, chunks
// bounded by LeafCap.
func TestChunkViewsMatchEntryWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ents := make([]Entry, 5000)
	for i := range ents {
		ents[i] = Entry{Key: math.Floor(rng.Float64()*1000) / 8, ID: uint32(i)}
	}
	tr := BulkLoad(append([]Entry(nil), ents...))
	// Churn so the leaf chain includes split and merged slots.
	for i := 0; i < 1500; i++ {
		e := ents[rng.Intn(len(ents))]
		tr.Delete(e.Key, e.ID)
	}
	for i := 0; i < 700; i++ {
		tr.Insert(math.Floor(rng.Float64()*1000)/8, uint32(len(ents)+i))
	}
	mustValidate(t, tr)

	walked := collect(tr)
	// RankChunks: every window of positions, the whole tree and the
	// out-of-range clamps included, is that window of the entry walk.
	for trial := 0; trial < 80; trial++ {
		lo, hi := rng.Intn(len(walked)+40)-20, rng.Intn(len(walked)+40)-20
		switch trial {
		case 0:
			lo, hi = 0, len(walked)
		case 1:
			lo, hi = -5, len(walked)+5
		}
		from := min(max(lo, 0), len(walked))
		want := walked[from:max(min(hi, len(walked)), from)]
		var got []uint32
		tr.RankChunks(lo, hi, func(ids []uint32) bool {
			if len(ids) == 0 || len(ids) > LeafCap || cap(ids) != len(ids) {
				t.Fatalf("RankChunks chunk len %d cap %d, want 0 < len = cap <= %d", len(ids), cap(ids), LeafCap)
			}
			got = append(got, ids...)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("RankChunks(%d,%d): %d ids, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i].ID {
				t.Fatalf("RankChunks(%d,%d) mismatch at %d: %d vs %d", lo, hi, i, got[i], want[i].ID)
			}
		}
	}

	// DescendChunks: every prefix of positions, the empty one and the
	// out-of-range clamp included, comes back top down — each chunk
	// ends where the one before began, the first at position hi-1 —
	// and read back to front is that prefix reversed.
	for trial := 0; trial < 80; trial++ {
		hi := rng.Intn(len(walked)+40) - 20
		switch trial {
		case 0:
			hi = len(walked)
		case 1:
			hi = len(walked) + 5
		case 2:
			hi = 1
		}
		want := walked[:min(max(hi, 0), len(walked))]
		var got []Entry
		tr.DescendChunks(hi, func(keys []float64, ids []uint32) bool {
			if len(keys) == 0 || len(keys) > LeafCap || len(ids) != len(keys) || cap(keys) != len(keys) || cap(ids) != len(ids) {
				t.Fatalf("DescendChunks chunk len %d/%d cap %d/%d, want 0 < len = cap <= %d",
					len(keys), len(ids), cap(keys), cap(ids), LeafCap)
			}
			if end := len(want) - len(got) - 1; keys[len(keys)-1] != want[end].Key || ids[len(ids)-1] != want[end].ID {
				t.Fatalf("DescendChunks(%d): chunk does not end at position %d", hi, end)
			}
			for i := len(keys) - 1; i >= 0; i-- {
				got = append(got, Entry{Key: keys[i], ID: ids[i]})
			}
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("DescendChunks(%d): %d entries, want %d", hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[len(want)-1-i] {
				t.Fatalf("DescendChunks(%d) mismatch at %d: %v vs %v", hi, i, got[i], want[len(want)-1-i])
			}
		}
	}

	for trial := 0; trial < 60; trial++ {
		lo := rng.Float64()*140 - 10
		hi := lo + rng.Float64()*60
		if trial%7 == 0 {
			hi = lo // empty or single-key range
		}
		var want []Entry
		for _, e := range walked {
			if e.Key > lo && e.Key <= hi {
				want = append(want, e)
			}
		}
		var got []Entry
		tr.RangeChunks(lo, hi, func(keys []float64, ids []uint32) bool {
			if len(keys) == 0 || len(keys) > LeafCap {
				t.Fatalf("RangeChunks chunk size %d out of (0, %d]", len(keys), LeafCap)
			}
			for i := range keys {
				got = append(got, Entry{Key: keys[i], ID: ids[i]})
			}
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("RangeChunks(%v,%v): %d entries, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("RangeChunks(%v,%v) mismatch at %d: %v vs %v", lo, hi, i, got[i], want[i])
			}
		}
		ids := tr.CollectRange(lo, hi, nil)
		if len(ids) != len(want) {
			t.Fatalf("CollectRange(%v,%v): %d ids, want %d", lo, hi, len(ids), len(want))
		}
		for i := range want {
			if ids[i] != want[i].ID {
				t.Fatalf("CollectRange(%v,%v) mismatch at %d: %d vs %d", lo, hi, i, ids[i], want[i].ID)
			}
		}
	}

	// Early stop: a chunk callback returning false ends the walk.
	calls := 0
	tr.RankChunks(0, tr.Len(), func([]uint32) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("RankChunks early stop made %d calls", calls)
	}
	calls = 0
	tr.DescendChunks(tr.Len(), func([]float64, []uint32) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("DescendChunks early stop made %d calls", calls)
	}
	calls = 0
	tr.RangeChunks(math.Inf(-1), math.Inf(1), func([]float64, []uint32) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("RangeChunks early stop made %d calls", calls)
	}
}

// TestDifferentialInnerBorrow deletes 90 % of a tree three levels
// deep, so underfull inner nodes are fixed by rotating a child from a
// sibling (borrowInnerLeft, borrowInnerRight) as well as by merges,
// and holds the tree to a sorted model on the RAM and the paged
// arena. The deletions run in random order, and range-first: a
// contiguous key range goes first, the rest at random.
func TestDifferentialInnerBorrow(t *testing.T) {
	const n, keep = 60000, 6000
	rng := rand.New(rand.NewSource(45))
	ents := make([]Entry, n)
	for i := range ents {
		ents[i] = Entry{Key: math.Floor(rng.Float64()*1e6) / 16, ID: uint32(i)}
	}
	sort.Slice(ents, func(i, j int) bool { return less(ents[i].Key, ents[i].ID, ents[j].Key, ents[j].ID) })
	random := rng.Perm(n)
	// Range-first: the middle half of the key order, then the rest at
	// random.
	rangeFirst := make([]int, 0, n)
	for i := n / 4; i < 3*n/4; i++ {
		rangeFirst = append(rangeFirst, i)
	}
	for _, i := range rng.Perm(n) {
		if i < n/4 || i >= 3*n/4 {
			rangeFirst = append(rangeFirst, i)
		}
	}
	for _, c := range []struct {
		name  string
		order []int
	}{{"random", random}, {"range-first", rangeFirst}} {
		order := c.order
		for _, arena := range []string{"ram", "paged"} {
			t.Run(c.name+"/"+arena, func(t *testing.T) {
				tr := BulkLoad(append([]Entry(nil), ents...))
				if arena == "paged" {
					_, paged, f, _ := buildPaged(t, ents, 1<<20)
					defer f.Close()
					tr = paged
				}
				dead := make([]bool, n)
				for step, i := range order[:n-keep] {
					if !tr.Delete(ents[i].Key, ents[i].ID) {
						t.Fatalf("delete %v failed", ents[i])
					}
					dead[i] = true
					if step%9000 == 0 {
						mustValidate(t, tr)
					}
				}
				mustValidate(t, tr)
				var model []Entry
				for i, e := range ents {
					if !dead[i] {
						model = append(model, e)
					}
				}
				if got := collectAll(tr); !reflect.DeepEqual(got, model) {
					t.Fatalf("tree holds %d entries, model %d", len(got), len(model))
				}
				for probe := 0; probe < 200; probe++ {
					k := rng.Float64() * 1e6 / 16
					want := sort.Search(len(model), func(i int) bool { return model[i].Key > k })
					if got := tr.RankLE(k); got != want {
						t.Fatalf("RankLE(%v) = %d, model %d", k, got, want)
					}
				}
			})
		}
	}
}
