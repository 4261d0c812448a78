package btree

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"planar/internal/pager"
)

// buildPaged bulk-loads a RAM tree from entries, checkpoints it into
// a fresh page file, and opens the paged twin. Returns both plus the
// file (caller closes) and cache.
func buildPaged(t testing.TB, entries []Entry, cacheBytes int) (*Tree, *Tree, *pager.File, *pager.Cache) {
	t.Helper()
	ram := BulkLoad(append([]Entry(nil), entries...))
	f, err := pager.Create(filepath.Join(t.TempDir(), "tree.plnr"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ram.WritePaged(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(m.AppendTo(nil), 1); err != nil {
		t.Fatal(err)
	}
	cache := pager.NewCache(cacheBytes, pager.PayloadSize)
	paged, err := OpenPaged(f, cache, m)
	if err != nil {
		t.Fatal(err)
	}
	return ram, paged, f, cache
}

func collectAll(t *Tree) []Entry {
	var out []Entry
	t.AscendLE(math.Inf(1), func(e Entry) bool { out = append(out, e); return true })
	return out
}

func comparePagedRAM(t *testing.T, ram, paged *Tree, rng *rand.Rand, keyMax float64) {
	t.Helper()
	if ram.Len() != paged.Len() {
		t.Fatalf("Len: ram %d, paged %d", ram.Len(), paged.Len())
	}
	a, b := collectAll(ram), collectAll(paged)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Ascend diverges: ram %d entries, paged %d", len(a), len(b))
	}
	if err := paged.Validate(); err != nil {
		t.Fatalf("paged Validate: %v", err)
	}
	rmin, rok := ram.Min()
	pmin, pok := paged.Min()
	if rok != pok || rmin != pmin {
		t.Fatalf("Min: ram %v/%v, paged %v/%v", rmin, rok, pmin, pok)
	}
	rmax, rok := ram.Max()
	pmax, pok := paged.Max()
	if rok != pok || rmax != pmax {
		t.Fatalf("Max: ram %v/%v, paged %v/%v", rmax, rok, pmax, pok)
	}
	for i := 0; i < 20; i++ {
		lo := rng.Float64() * keyMax
		hi := lo + rng.Float64()*(keyMax-lo)
		if ram.RankLE(hi) != paged.RankLE(hi) {
			t.Fatalf("RankLE(%v) diverges", hi)
		}
		if ram.CountRange(lo, hi) != paged.CountRange(lo, hi) {
			t.Fatalf("CountRange(%v,%v) diverges", lo, hi)
		}
		if !reflect.DeepEqual(ram.CollectRange(lo, hi, nil), paged.CollectRange(lo, hi, nil)) {
			t.Fatalf("CollectRange(%v,%v) diverges", lo, hi)
		}
		stop := 1 + rng.Intn(50)
		if !reflect.DeepEqual(descendLE(ram, hi, stop), descendLE(paged, hi, stop)) {
			t.Fatalf("DescendChunks below %v diverges", hi)
		}
	}
	// Chunk APIs must hand out identical columns.
	var rk, pk []float64
	ram.RangeChunks(math.Inf(-1), math.Inf(1), func(keys []float64, _ []uint32) bool { rk = append(rk, keys...); return true })
	paged.RangeChunks(math.Inf(-1), math.Inf(1), func(keys []float64, _ []uint32) bool { pk = append(pk, keys...); return true })
	if !reflect.DeepEqual(rk, pk) {
		t.Fatal("RangeChunks diverges")
	}
	lo, hi := rng.Intn(ram.Len()+1), rng.Intn(ram.Len()+1)
	var ri, pi []uint32
	ram.RankChunks(lo, hi, func(ids []uint32) bool { ri = append(ri, ids...); return true })
	paged.RankChunks(lo, hi, func(ids []uint32) bool { pi = append(pi, ids...); return true })
	if !reflect.DeepEqual(ri, pi) {
		t.Fatalf("RankChunks(%d,%d) diverges", lo, hi)
	}
}

// TestPagedMatchesRAM drives a paged tree and its RAM twin through
// an identical random mutation stream — with periodic checkpoint
// flushes and a mid-test close/reopen — and checks every query API
// agrees at each step.
func TestPagedMatchesRAM(t *testing.T) {
	rng := rand.New(rand.NewSource(20140807))
	const keyMax = 1000.0
	var entries []Entry
	for i := 0; i < 4000; i++ {
		entries = append(entries, Entry{Key: math.Round(rng.Float64()*keyMax*8) / 8, ID: uint32(i)})
	}
	ram, paged, f, cache := buildPaged(t, entries, 1<<20)
	defer f.Close()

	live := append([]Entry(nil), collectAll(ram)...)
	for round := 0; round < 8; round++ {
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0, 1: // insert
				e := Entry{Key: math.Round(rng.Float64()*keyMax*8) / 8, ID: uint32(rng.Intn(1 << 20))}
				ri := ram.Insert(e.Key, e.ID)
				pi := paged.Insert(e.Key, e.ID)
				if ri != pi {
					t.Fatalf("Insert(%v) = ram %v, paged %v", e, ri, pi)
				}
				if ri {
					live = append(live, e)
				}
			case 2: // delete
				if len(live) == 0 {
					continue
				}
				j := rng.Intn(len(live))
				e := live[j]
				rd := ram.Delete(e.Key, e.ID)
				pd := paged.Delete(e.Key, e.ID)
				if rd != pd || !rd {
					t.Fatalf("Delete(%v) = ram %v, paged %v", e, rd, pd)
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
		comparePagedRAM(t, ram, paged, rng, keyMax)

		// Checkpoint the paged tree and, mid-test, reopen it cold.
		m, _, err := paged.FlushPaged()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Commit(m.AppendTo(nil), uint64(round+2)); err != nil {
			t.Fatal(err)
		}
		if round == 3 {
			reopened, err := pager.Open(f.Path())
			if err != nil {
				t.Fatal(err)
			}
			m2, err := DecodePagedMeta(reopened.Meta())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			f = reopened
			cache = pager.NewCache(1<<18, pager.PayloadSize)
			paged, err = OpenPaged(f, cache, m2)
			if err != nil {
				t.Fatal(err)
			}
			comparePagedRAM(t, ram, paged, rng, keyMax)
		}
	}
	if cache.Stats().Hits == 0 {
		t.Fatal("paged tree never hit the cache")
	}
}

// TestPagedTinyCacheScans proves correctness with a cache far smaller
// than the tree: full scans must evict behind their front and still
// produce identical results.
func TestPagedTinyCacheScans(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var entries []Entry
	for i := 0; i < 60000; i++ {
		entries = append(entries, Entry{Key: rng.Float64() * 1e6, ID: uint32(i)})
	}
	ram, paged, f, cache := buildPaged(t, entries, 0) // floor-sized cache: 32 frames vs ~270 leaves
	defer f.Close()

	if !reflect.DeepEqual(collectAll(ram), collectAll(paged)) {
		t.Fatal("full scan diverges under a tiny cache")
	}
	for i := 0; i < 10; i++ {
		lo := rng.Float64() * 1e6
		hi := lo + rng.Float64()*(1e6-lo)
		var rids, pids []uint32
		ram.RangeChunks(lo, hi, func(_ []float64, ids []uint32) bool { rids = append(rids, ids...); return true })
		paged.RangeChunks(lo, hi, func(_ []float64, ids []uint32) bool { pids = append(pids, ids...); return true })
		if !reflect.DeepEqual(rids, pids) {
			t.Fatalf("RangeChunks(%v,%v) diverges under a tiny cache", lo, hi)
		}
	}
	var rids, pids []uint32
	ram.RankChunks(0, ram.Len(), func(ids []uint32) bool { rids = append(rids, ids...); return true })
	paged.RankChunks(0, paged.Len(), func(ids []uint32) bool { pids = append(pids, ids...); return true })
	if !reflect.DeepEqual(rids, pids) {
		t.Fatal("RankChunks over the whole tree diverges under a tiny cache")
	}
	if !reflect.DeepEqual(descendLE(ram, math.Inf(1), 0), descendLE(paged, math.Inf(1), 0)) {
		t.Fatal("DescendChunks over the whole tree diverges under a tiny cache")
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("tiny cache never evicted (stats %+v)", st)
	}
	if st.Resident > st.Target+8 {
		t.Fatalf("resident %d far above target %d: scans are not releasing pins", st.Resident, st.Target)
	}
}

// FuzzPageCodec fuzzes the paged-tree metadata codec (the only
// variable-length page-borne encoding the tree owns), seeded with
// real arena dumps. Decoded metas must round-trip exactly; arbitrary
// bytes must never panic and never silently validate into
// out-of-range slot references.
func FuzzPageCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{0, 1, 300, 5000} {
		var entries []Entry
		for i := 0; i < n; i++ {
			entries = append(entries, Entry{Key: rng.Float64(), ID: uint32(i)})
		}
		tr := BulkLoad(entries)
		for i := 0; i < n/3; i++ {
			e := entries[rng.Intn(len(entries))]
			tr.Delete(e.Key, e.ID)
		}
		m := tr.pagedMeta()
		m.LeafPage = make([]int64, len(m.Lnum))
		m.InnerPage = make([]int64, len(m.Knum))
		for i := range m.LeafPage {
			m.LeafPage[i] = int64(2 + i)
		}
		for i := range m.InnerPage {
			m.InnerPage[i] = int64(1000 + i)
		}
		f.Add(m.AppendTo(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{pagedMetaVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodePagedMeta(data)
		if err != nil {
			return
		}
		re := m.AppendTo(nil)
		if !bytes.Equal(re, data) {
			t.Fatalf("decode/encode not identity: %d bytes in, %d out", len(data), len(re))
		}
		m2, err := DecodePagedMeta(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatal("round-trip changed the meta")
		}
		if m.validate() == nil {
			// A meta that passes validation must be safe to hand to
			// OpenPaged's constructor paths: consistent column lengths.
			if len(m.LeafPage) != len(m.Lnum) || len(m.InnerPage) != len(m.Knum) {
				t.Fatal("validated meta with inconsistent columns")
			}
		}
	})
}
