package exec

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"planar/internal/btree"
	"planar/internal/pager"
)

// The differential suite of the chunked accept path: the batched
// engine (two ranks, one walk of the leaf chain, leaf id slices to the
// sink) against the scalar walk a row-less Source runs, on plans whose
// thresholds are placed by hand so that the smaller interval ends
// where the chunking could go wrong.

const chunkN = 20000 // about 90 bulk-loaded leaves

// chunkEntries gives id i the key i, with one tie cluster (ids
// 1000–1009 all at key 1000) and, when asked, id 7 at −Inf — a key
// that overflowed, which orders first and belongs to every SI.
func chunkEntries(negInf bool) []btree.Entry {
	entries := make([]btree.Entry, chunkN)
	for i := range entries {
		entries[i] = btree.Entry{Key: float64(i), ID: uint32(i)}
		if i >= 1000 && i < 1010 {
			entries[i].Key = 1000
		}
	}
	if negInf {
		entries[7].Key = math.Inf(-1)
	}
	return entries
}

// chunkSource wraps a hand-built key tree as a batched Source. The
// points are random and unrelated to the keys: SI ids are accepted on
// the plan's word and II ids verified against q, on both engines
// alike, so the comparison needs no geometry.
func chunkSource(tree *btree.Tree) (*Source, Query) {
	rng := rand.New(rand.NewSource(3))
	points := randPoints(rng, chunkN, 3)
	src := packSource(points, []IndexInfo{{Tree: tree}}, nil)
	return src, Query{A: []float64{1, -2, 0.5}, B: 4}
}

// leafEdge returns a position at which a leaf of tree ends, past the
// first few leaves and clear of the tie cluster.
func leafEdge(t *testing.T, tree *btree.Tree) int {
	t.Helper()
	pos, edge := 0, 0
	tree.RankChunks(0, tree.Len(), func(ids []uint32) bool {
		pos += len(ids)
		if pos > 1100 {
			edge = pos
			return false
		}
		return true
	})
	if edge == 0 || edge >= tree.Len() {
		t.Fatalf("no interior leaf edge found (pos %d)", pos)
	}
	return edge
}

func noClock(st Stats) Stats {
	st.PlanNanos, st.ExecNanos = 0, 0
	return st
}

// runBoth executes plan on both engines — into an IDSink, or with
// stopAfter > 0 into a sink that stops on its stopAfter-th id — and
// fails unless the ids the sinks saw, in order, and the Stats agree.
func runBoth(t *testing.T, name string, src *Source, q Query, plan Plan, stopAfter int) (ids []uint32, st Stats) {
	t.Helper()
	run := func(src *Source) ([]uint32, Stats) {
		var seen []uint32
		var sink Sink = &IDSink{}
		if stopAfter > 0 {
			sink = FuncSink(func(id uint32) bool {
				seen = append(seen, id)
				return len(seen) != stopAfter
			})
		}
		st, err := Execute(src, q, plan, sink)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if all, ok := sink.(*IDSink); ok {
			seen = all.IDs
		}
		return seen, noClock(st)
	}
	chunked, stC := run(src)
	walked, stW := run(rowless(src))
	if !equalIDs(chunked, walked) {
		t.Fatalf("%s: chunked path delivered %d ids, tree walk %d, or in another order", name, len(chunked), len(walked))
	}
	if stC != stW {
		t.Fatalf("%s: stats differ\nchunked %+v\n   walk %+v", name, stC, stW)
	}
	return chunked, stC
}

func testChunkedMatchesTreeWalk(t *testing.T, build func(t *testing.T, entries []btree.Entry) *btree.Tree) {
	plain := build(t, chunkEntries(false))
	withInf := build(t, chunkEntries(true))
	edge := leafEdge(t, plain)
	n := chunkN

	rangePlan := func(tmin, tmax float64) Plan {
		return Plan{Kind: KindRange, IndexPos: 0, Tmin: tmin, Tmax: tmax}
	}
	for _, c := range []struct {
		name     string
		tree     *btree.Tree
		plan     Plan
		accepted int    // want Stats.Accepted
		first    uint32 // want first delivered id, when accepted > 0
	}{
		{"SI ends on a leaf edge", plain, rangePlan(float64(edge-1), float64(edge+300)), edge, 0},
		{"SI ends one past a leaf edge", plain, rangePlan(float64(edge), float64(edge+300)), edge + 1, 0},
		{"ties at Tmin", plain, rangePlan(1000, 1400), 1010, 0},
		{"empty SI", plain, rangePlan(-1, 500), 0, 0},
		{"empty SI and II", plain, rangePlan(-2, -1), 0, 0},
		{"SI is the whole tree", plain, rangePlan(float64(n), math.Inf(1)), n, 0},
		{"SI is the whole tree less its last leaf's tail", plain, rangePlan(float64(n-10), math.Inf(1)), n - 9, 0},
		{"a -Inf key heads SI", withInf, rangePlan(float64(edge-1), float64(edge+300)), edge, 7},
		{"a -Inf key is all of SI", withInf, rangePlan(-1, 700), 1, 7},
		{"large II, kernel blocks", plain, rangePlan(300, 9000), 301, 0},
		{"all-match plan", withInf, Plan{Kind: KindAll, IndexPos: 0}, n, 7},
	} {
		src, q := chunkSource(c.tree)
		ids, st := runBoth(t, c.name, src, q, c.plan, 0)
		if st.Accepted != c.accepted {
			t.Fatalf("%s: accepted %d, want %d (%+v)", c.name, st.Accepted, c.accepted, st)
		}
		if c.accepted > 0 && ids[0] != c.first {
			t.Fatalf("%s: first id %d, want %d", c.name, ids[0], c.first)
		}
		if c.plan.Kind == KindRange && st.Accepted+st.Verified+st.Rejected != n {
			t.Fatalf("%s: intervals do not partition n: %+v", c.name, st)
		}
		if len(ids) != st.Accepted+st.Matched {
			t.Fatalf("%s: %d ids delivered, stats say %d", c.name, len(ids), st.Accepted+st.Matched)
		}

		// The legacy partial-stats contract: a sink that stops inside
		// SI has Accepted = what it took, the id it stopped on
		// included, and nothing else classified — mid-chunk, on a
		// chunk's last id, and on SI's last id alike.
		if c.plan.Kind != KindRange {
			continue
		}
		for _, stop := range []int{1, 100, edge - 1, edge, edge + 1, c.accepted} {
			if stop < 1 || stop > c.accepted {
				continue
			}
			seen, st := runBoth(t, c.name+", early stop", src, q, c.plan, stop)
			if len(seen) != stop || !equalIDs(seen, ids[:stop]) {
				t.Fatalf("%s: sink stopping at %d saw %d ids, or not the answer's prefix", c.name, stop, len(seen))
			}
			if want := (Stats{N: n, Accepted: stop}); st != want {
				t.Fatalf("%s: stop at %d left stats %+v, want %+v", c.name, stop, st, want)
			}
		}
	}
}

func TestChunkedMatchesTreeWalk(t *testing.T) {
	testChunkedMatchesTreeWalk(t, func(_ *testing.T, entries []btree.Entry) *btree.Tree {
		return btree.BulkLoad(entries)
	})
}

// TestPagedChunkedMatchesTreeWalk is the same suite on paged trees
// behind a floor-sized page cache (32 frames against some 90 leaves),
// so every SI longer than the cache is delivered while its leaves are
// being evicted behind the walk: a chunk must have been consumed
// before its leaf's pin is dropped.
func TestPagedChunkedMatchesTreeWalk(t *testing.T) {
	var caches []*pager.Cache
	testChunkedMatchesTreeWalk(t, func(t *testing.T, entries []btree.Entry) *btree.Tree {
		ram := btree.BulkLoad(entries)
		f, err := pager.Create(filepath.Join(t.TempDir(), "tree.plnr"), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = f.Close() })
		m, err := ram.WritePaged(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Commit(m.AppendTo(nil), 1); err != nil {
			t.Fatal(err)
		}
		cache := pager.NewCache(0, pager.PayloadSize)
		caches = append(caches, cache)
		paged, err := btree.OpenPaged(f, cache, m)
		if err != nil {
			t.Fatal(err)
		}
		return paged
	})
	for _, cache := range caches {
		st := cache.Stats()
		if st.Evictions == 0 {
			t.Fatalf("the page cache never evicted (stats %+v): SI fitted in it", st)
		}
		if st.Resident > st.Target+8 {
			t.Fatalf("resident %d far above target %d: the walk is not releasing pins", st.Resident, st.Target)
		}
	}
}
