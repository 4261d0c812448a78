package btree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func collect(t *Tree) []Entry {
	var out []Entry
	t.AscendLE(math.Inf(1), func(e Entry) bool { out = append(out, e); return true })
	return out
}

// ascendRange collects the entries with lo < Key <= hi in ascending
// order through RangeChunks.
func ascendRange(t *Tree, lo, hi float64) []Entry {
	var out []Entry
	t.RangeChunks(lo, hi, func(keys []float64, ids []uint32) bool {
		for i := range keys {
			out = append(out, Entry{Key: keys[i], ID: ids[i]})
		}
		return true
	})
	return out
}

// descendLE collects the entries with Key <= hi in descending order
// through RankLE and DescendChunks, stopping after limit entries when
// limit > 0.
func descendLE(t *Tree, hi float64, limit int) []Entry {
	var out []Entry
	t.DescendChunks(t.RankLE(hi), func(keys []float64, ids []uint32) bool {
		for i := len(keys) - 1; i >= 0; i-- {
			out = append(out, Entry{Key: keys[i], ID: ids[i]})
			if len(out) == limit {
				return false
			}
		}
		return true
	})
	return out
}

func mustValidate(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	mustValidate(t, tr)
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("Len=%d Height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree ok")
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree ok")
	}
	if tr.Contains(1, 1) {
		t.Fatal("Contains on empty tree")
	}
	if tr.Delete(1, 1) {
		t.Fatal("Delete on empty tree succeeded")
	}
	tr.AscendLE(10, func(Entry) bool { t.Fatal("AscendLE visited entry"); return false })
	tr.RankChunks(0, 10, func([]uint32) bool { t.Fatal("RankChunks visited a chunk"); return false })
	tr.DescendChunks(10, func([]float64, []uint32) bool { t.Fatal("DescendChunks visited a chunk"); return false })
}

func TestInsertLookupSmall(t *testing.T) {
	tr := New()
	if !tr.Insert(2, 0) || !tr.Insert(1, 0) || !tr.Insert(3, 0) {
		t.Fatal("insert failed")
	}
	if tr.Insert(2, 0) {
		t.Fatal("duplicate insert succeeded")
	}
	if !tr.Insert(2, 1) {
		t.Fatal("same key different id rejected")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len=%d", tr.Len())
	}
	mustValidate(t, tr)
	got := collect(tr)
	want := []Entry{{1, 0}, {2, 0}, {2, 1}, {3, 0}}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if mn, _ := tr.Min(); mn != (Entry{1, 0}) {
		t.Fatalf("Min=%v", mn)
	}
	if mx, _ := tr.Max(); mx != (Entry{3, 0}) {
		t.Fatalf("Max=%v", mx)
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, leafMin, leafCap, leafCap + 1, 1000, 5000} {
		ents := make([]Entry, n)
		for i := range ents {
			ents[i] = Entry{Key: math.Floor(rng.Float64() * 100), ID: uint32(i)}
		}
		bl := BulkLoad(append([]Entry(nil), ents...))
		mustValidate(t, bl)
		ins := New()
		for _, e := range ents {
			ins.Insert(e.Key, e.ID)
		}
		mustValidate(t, ins)
		a, b := collect(bl), collect(ins)
		if len(a) != len(b) {
			t.Fatalf("n=%d: bulk %d inserted %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d mismatch at %d: %v vs %v", n, i, a[i], b[i])
			}
		}
	}
}

func TestBulkLoadDedupes(t *testing.T) {
	tr := BulkLoad([]Entry{{1, 1}, {1, 1}, {2, 2}, {1, 1}})
	if tr.Len() != 2 {
		t.Fatalf("Len=%d want 2", tr.Len())
	}
	mustValidate(t, tr)
}

func TestDeleteRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 4000
	ents := make([]Entry, n)
	for i := range ents {
		ents[i] = Entry{Key: rng.Float64(), ID: uint32(i)}
	}
	tr := BulkLoad(append([]Entry(nil), ents...))
	perm := rng.Perm(n)
	for round, pi := range perm {
		e := ents[pi]
		if !tr.Delete(e.Key, e.ID) {
			t.Fatalf("delete %v failed", e)
		}
		if tr.Delete(e.Key, e.ID) {
			t.Fatalf("double delete %v succeeded", e)
		}
		if tr.Len() != n-round-1 {
			t.Fatalf("Len=%d want %d", tr.Len(), n-round-1)
		}
		if round%500 == 0 {
			mustValidate(t, tr)
		}
	}
	mustValidate(t, tr)
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("tree not empty after deleting everything: Len=%d", tr.Len())
	}
}

func TestInterleavedInsertDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	ref := map[Entry]bool{}
	for op := 0; op < 20000; op++ {
		e := Entry{Key: float64(rng.Intn(500)), ID: uint32(rng.Intn(50))}
		if rng.Intn(2) == 0 {
			got := tr.Insert(e.Key, e.ID)
			want := !ref[e]
			if got != want {
				t.Fatalf("op %d Insert(%v)=%v want %v", op, e, got, want)
			}
			ref[e] = true
		} else {
			got := tr.Delete(e.Key, e.ID)
			want := ref[e]
			if got != want {
				t.Fatalf("op %d Delete(%v)=%v want %v", op, e, got, want)
			}
			delete(ref, e)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("op %d Len=%d want %d", op, tr.Len(), len(ref))
		}
	}
	mustValidate(t, tr)
	for e := range ref {
		if !tr.Contains(e.Key, e.ID) {
			t.Fatalf("missing %v", e)
		}
	}
}

func refSorted(ref []Entry) []Entry {
	out := append([]Entry(nil), ref...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func TestRangeScans(t *testing.T) {
	// Keys 0..99 with duplicates on ids.
	var ents []Entry
	for k := 0; k < 100; k++ {
		for id := 0; id < 3; id++ {
			ents = append(ents, Entry{Key: float64(k), ID: uint32(id)})
		}
	}
	tr := BulkLoad(append([]Entry(nil), ents...))
	sorted := refSorted(ents)

	scanLE := func(maxKey float64) []Entry {
		var out []Entry
		tr.AscendLE(maxKey, func(e Entry) bool { out = append(out, e); return true })
		return out
	}
	for _, bound := range []float64{-1, 0, 0.5, 10, 50.5, 99, 200} {
		var wantLE, wantGT []Entry
		for _, e := range sorted {
			if e.Key <= bound {
				wantLE = append(wantLE, e)
			} else {
				wantGT = append(wantGT, e)
			}
		}
		gotLE := scanLE(bound)
		if len(gotLE) != len(wantLE) {
			t.Fatalf("AscendLE(%v): %d entries want %d", bound, len(gotLE), len(wantLE))
		}
		for i := range wantLE {
			if gotLE[i] != wantLE[i] {
				t.Fatalf("AscendLE(%v) mismatch at %d", bound, i)
			}
		}
		gotGT := ascendRange(tr, bound, math.Inf(1))
		if len(gotGT) != len(wantGT) {
			t.Fatalf("AscendGT(%v): %d entries want %d", bound, len(gotGT), len(wantGT))
		}
		gotD := descendLE(tr, bound, 0)
		if len(gotD) != len(wantLE) {
			t.Fatalf("descendLE(%v): %d want %d", bound, len(gotD), len(wantLE))
		}
		for i := range gotD {
			if gotD[i] != wantLE[len(wantLE)-1-i] {
				t.Fatalf("descendLE(%v) order mismatch at %d", bound, i)
			}
		}
	}

	for _, r := range [][2]float64{{-5, 5}, {0, 0}, {10, 20}, {10.5, 10.9}, {98, 300}, {50, 40}} {
		var want []Entry
		for _, e := range sorted {
			if e.Key > r[0] && e.Key <= r[1] {
				want = append(want, e)
			}
		}
		got := ascendRange(tr, r[0], r[1])
		if len(got) != len(want) {
			t.Fatalf("ascendRange(%v,%v): %d want %d", r[0], r[1], len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ascendRange(%v,%v) mismatch at %d", r[0], r[1], i)
			}
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := BulkLoad([]Entry{{1, 1}, {2, 2}, {3, 3}, {4, 4}})
	count := 0
	tr.AscendLE(10, func(Entry) bool { count++; return count < 2 })
	if count != 2 {
		t.Fatalf("AscendLE visited %d want 2", count)
	}
	count = 0
	tr.DescendChunks(4, func(keys []float64, _ []uint32) bool { count += len(keys); return false })
	if count != 4 {
		t.Fatalf("DescendChunks handed %d entries before stopping, want one chunk of 4", count)
	}
	count = 0
	tr.RangeChunks(0, 10, func(keys []float64, _ []uint32) bool { count++; return false })
	if count != 1 {
		t.Fatalf("RangeChunks called fn %d times want 1", count)
	}
	count = 0
	tr.AscendLE(10, func(Entry) bool { count++; return false })
	if count != 1 {
		t.Fatalf("AscendLE visited %d want 1", count)
	}
}

func TestRangeBoundaryWithMaxID(t *testing.T) {
	// An entry whose ID is MaxUint32 sits exactly on the seek
	// boundary used by RangeChunks; it must still be excluded from
	// the exclusive lower bound and included under an inclusive
	// upper bound.
	tr := New()
	tr.Insert(5, ^uint32(0))
	tr.Insert(5, 1)
	tr.Insert(6, 2)
	if got := ascendRange(tr, 5, 6); len(got) != 1 || got[0] != (Entry{6, 2}) {
		t.Fatalf("RangeChunks(5,6]=%v", got)
	}
	if got := ascendRange(tr, 4, 5); len(got) != 2 {
		t.Fatalf("RangeChunks(4,5]=%v", got)
	}
}

func TestStats(t *testing.T) {
	tr := BulkLoad(makeSeq(10000))
	s := tr.Stats()
	if s.Entries != 10000 {
		t.Fatalf("Entries=%d", s.Entries)
	}
	if s.Leaves == 0 || s.Inner == 0 {
		t.Fatalf("Leaves=%d Inner=%d", s.Leaves, s.Inner)
	}
	if s.Height != tr.Height() {
		t.Fatalf("Height mismatch %d vs %d", s.Height, tr.Height())
	}
	if s.Bytes < 12*10000 {
		t.Fatalf("Bytes=%d implausibly small", s.Bytes)
	}
	empty := New().Stats()
	if empty.Entries != 0 || empty.Bytes != 0 {
		t.Fatalf("empty stats %+v", empty)
	}
}

func makeSeq(n int) []Entry {
	ents := make([]Entry, n)
	for i := range ents {
		ents[i] = Entry{Key: float64(i), ID: uint32(i)}
	}
	return ents
}

// Property test: any sequence of inserts then a range scan equals the
// sorted, deduped reference.
func TestQuickInsertScan(t *testing.T) {
	f := func(keys []float64, loRaw, hiRaw float64) bool {
		for _, k := range keys {
			if k != k || math.IsInf(k, 0) {
				return true
			}
		}
		if loRaw != loRaw || hiRaw != hiRaw {
			return true
		}
		lo, hi := loRaw, hiRaw
		if lo > hi {
			lo, hi = hi, lo
		}
		tr := New()
		seen := map[Entry]bool{}
		var ref []Entry
		for i, k := range keys {
			e := Entry{Key: k, ID: uint32(i % 7)}
			if !seen[e] {
				seen[e] = true
				ref = append(ref, e)
			}
			tr.Insert(e.Key, e.ID)
		}
		if tr.Validate() != nil {
			return false
		}
		var want []Entry
		for _, e := range refSorted(ref) {
			if e.Key > lo && e.Key <= hi {
				want = append(want, e)
			}
		}
		got := ascendRange(tr, lo, hi)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLargeSequentialAndReverse(t *testing.T) {
	// Sequential insertion stresses rightmost splits; reverse
	// deletion stresses leftmost merges.
	tr := New()
	const n = 30000
	for i := 0; i < n; i++ {
		tr.Insert(float64(i), uint32(i))
	}
	mustValidate(t, tr)
	if tr.Height() < 3 {
		t.Fatalf("Height=%d, expected a deep tree", tr.Height())
	}
	for i := n - 1; i >= 0; i-- {
		if !tr.Delete(float64(i), uint32(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	mustValidate(t, tr)
}

func TestRankAndCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var ents []Entry
	for i := 0; i < 5000; i++ {
		ents = append(ents, Entry{Key: math.Floor(rng.Float64() * 200), ID: uint32(i)})
	}
	tr := BulkLoad(append([]Entry(nil), ents...))
	sorted := refSorted(ents)
	rankRef := func(maxKey float64) int {
		n := 0
		for _, e := range sorted {
			if e.Key <= maxKey {
				n++
			}
		}
		return n
	}
	for _, k := range []float64{-1, 0, 37, 99.5, 150, 200, 500} {
		if got, want := tr.RankLE(k), rankRef(k); got != want {
			t.Fatalf("RankLE(%v)=%d want %d", k, got, want)
		}
	}
	for _, r := range [][2]float64{{-5, 10}, {10, 10}, {20, 10}, {0, 200}, {37, 110.5}} {
		want := 0
		for _, e := range sorted {
			if e.Key > r[0] && e.Key <= r[1] {
				want++
			}
		}
		if got := tr.CountRange(r[0], r[1]); got != want {
			t.Fatalf("CountRange(%v,%v)=%d want %d", r[0], r[1], got, want)
		}
	}
	if New().RankLE(10) != 0 {
		t.Fatal("RankLE on empty tree")
	}
}

// Property: counts stay correct through arbitrary insert/delete
// interleavings (Validate checks the cached subtree counts).
func TestRankAfterChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	tr := New()
	live := map[Entry]bool{}
	for op := 0; op < 30000; op++ {
		e := Entry{Key: float64(rng.Intn(300)), ID: uint32(rng.Intn(40))}
		if rng.Intn(3) < 2 {
			if tr.Insert(e.Key, e.ID) {
				live[e] = true
			}
		} else {
			if tr.Delete(e.Key, e.ID) {
				delete(live, e)
			}
		}
		if op%2500 == 0 {
			mustValidate(t, tr)
			k := float64(rng.Intn(300))
			want := 0
			for e := range live {
				if e.Key <= k {
					want++
				}
			}
			if got := tr.RankLE(k); got != want {
				t.Fatalf("op %d: RankLE(%v)=%d want %d", op, k, got, want)
			}
		}
	}
	mustValidate(t, tr)
}

func BenchmarkRankLE(b *testing.B) {
	tr := BulkLoad(makeSeq(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.RankLE(float64(i % 100000))
	}
}

func BenchmarkBulkLoad100k(b *testing.B) {
	base := makeSeq(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ents := append([]Entry(nil), base...)
		BulkLoad(ents)
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Float64(), uint32(i))
	}
}

func BenchmarkRangeScan(b *testing.B) {
	tr := BulkLoad(makeSeq(100000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.RangeChunks(25000, 75000, func(keys []float64, _ []uint32) bool { count += len(keys); return true })
		if count != 50000 {
			b.Fatalf("count=%d", count)
		}
	}
}
