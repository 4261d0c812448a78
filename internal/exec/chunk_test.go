package exec

import (
	"cmp"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"planar/internal/btree"
	"planar/internal/pager"
	"planar/internal/vecmath"
)

// The oracle suite of the chunked accept path: the engine (two ranks,
// one walk of the leaf chain, leaf id slices to the sink) against an
// answer read off the sorted entries, on plans whose thresholds are
// placed by hand so that the smaller interval ends where the chunking
// could go wrong.

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

// chunkSource wraps a hand-built key tree as a Source. The points
// are random and unrelated to the keys: SI ids are accepted on the
// plan's word and II ids verified against q, so the oracle needs no
// geometry.
func chunkSource(tree *btree.Tree) (*Source, Query, [][]float64) {
	rng := rand.New(rand.NewSource(3))
	points := randPoints(rng, chunkN, 3)
	src := makeSource(points, []IndexInfo{{Tree: tree}})
	return src, Query{A: []float64{1, -2, 0.5}, B: 4}, points
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

// chunkOracle answers plan off the entries, sorted: SI (key ≤ Tmin,
// or every entry of an all-match plan) in key order, then the II
// entries (Tmin < key ≤ Tmax) that satisfy q, with the Stats of a
// query no sink stopped.
func chunkOracle(entries []btree.Entry, points [][]float64, q Query, plan Plan) ([]uint32, Stats) {
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, func(a, b btree.Entry) int {
		if a.Less(b) {
			return -1
		}
		return 1
	})
	st := Stats{N: len(sorted), IndexUsed: plan.IndexPos}
	var ids []uint32
	for _, e := range sorted {
		switch {
		case plan.Kind == KindAll || e.Key <= plan.Tmin:
			st.Accepted++
			ids = append(ids, e.ID)
		case e.Key <= plan.Tmax:
			st.Verified++
			if q.Satisfies(points[e.ID]) {
				st.Matched++
				ids = append(ids, e.ID)
			}
		default:
			st.Rejected++
		}
	}
	return ids, st
}

// runChunked executes plan into an IDSink, or with stopAfter > 0 into
// a sink that stops on its stopAfter-th id, and returns the ids the
// sink saw, in order, and the Stats.
func runChunked(t *testing.T, name string, src *Source, q Query, plan Plan, stopAfter int) ([]uint32, Stats) {
	t.Helper()
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

func testChunkedMatchesOracle(t *testing.T, build func(t *testing.T, entries []btree.Entry) *btree.Tree) {
	plainEntries, infEntries := chunkEntries(false), chunkEntries(true)
	plain := build(t, plainEntries)
	withInf := build(t, infEntries)
	edge := leafEdge(t, plain)
	n := chunkN

	rangePlan := func(tmin, tmax float64) Plan {
		return Plan{Kind: KindRange, IndexPos: 0, Tmin: tmin, Tmax: tmax}
	}
	for _, c := range []struct {
		name     string
		tree     *btree.Tree
		entries  []btree.Entry
		plan     Plan
		accepted int    // want Stats.Accepted
		first    uint32 // want first delivered id, when accepted > 0
	}{
		{"SI ends on a leaf edge", plain, plainEntries, rangePlan(float64(edge-1), float64(edge+300)), edge, 0},
		{"SI ends one past a leaf edge", plain, plainEntries, rangePlan(float64(edge), float64(edge+300)), edge + 1, 0},
		{"ties at Tmin", plain, plainEntries, rangePlan(1000, 1400), 1010, 0},
		{"empty SI", plain, plainEntries, rangePlan(-1, 500), 0, 0},
		{"empty SI and II", plain, plainEntries, rangePlan(-2, -1), 0, 0},
		{"SI is the whole tree", plain, plainEntries, rangePlan(float64(n), math.Inf(1)), n, 0},
		{"SI is the whole tree less its last leaf's tail", plain, plainEntries, rangePlan(float64(n-10), math.Inf(1)), n - 9, 0},
		{"a -Inf key heads SI", withInf, infEntries, rangePlan(float64(edge-1), float64(edge+300)), edge, 7},
		{"a -Inf key is all of SI", withInf, infEntries, rangePlan(-1, 700), 1, 7},
		{"tiny II, no gather", plain, plainEntries, rangePlan(300, 310), 301, 0},
		{"large II, kernel blocks", plain, plainEntries, rangePlan(300, 9000), 301, 0},
		{"all-match plan", withInf, infEntries, Plan{Kind: KindAll, IndexPos: 0}, n, 7},
	} {
		src, q, points := chunkSource(c.tree)
		ids, st := runChunked(t, c.name, src, q, c.plan, 0)
		wantIDs, wantSt := chunkOracle(c.entries, points, q, c.plan)
		if !equalIDs(ids, wantIDs) {
			t.Fatalf("%s: delivered %d ids, oracle %d, or in another order", c.name, len(ids), len(wantIDs))
		}
		if st != wantSt {
			t.Fatalf("%s: stats differ\n engine %+v\n oracle %+v", c.name, st, wantSt)
		}
		if st.Accepted != c.accepted {
			t.Fatalf("%s: accepted %d, want %d (%+v)", c.name, st.Accepted, c.accepted, st)
		}
		if c.accepted > 0 && ids[0] != c.first {
			t.Fatalf("%s: first id %d, want %d", c.name, ids[0], c.first)
		}

		// The partial-stats contract: a sink that stops inside SI has
		// Accepted = what it took, the id it stopped on included, and
		// nothing else classified — mid-chunk, on a chunk's last id,
		// and on SI's last id alike.
		if c.plan.Kind != KindRange {
			continue
		}
		for _, stop := range []int{1, 100, edge - 1, edge, edge + 1, c.accepted} {
			if stop < 1 || stop > c.accepted {
				continue
			}
			seen, st := runChunked(t, c.name+", early stop", src, q, c.plan, stop)
			if len(seen) != stop || !equalIDs(seen, ids[:stop]) {
				t.Fatalf("%s: sink stopping at %d saw %d ids, or not the answer's prefix", c.name, stop, len(seen))
			}
			if want := (Stats{N: n, Accepted: stop}); st != want {
				t.Fatalf("%s: stop at %d left stats %+v, want %+v", c.name, stop, st, want)
			}
		}
	}
}

func TestChunkedMatchesOracle(t *testing.T) {
	testChunkedMatchesOracle(t, func(_ *testing.T, entries []btree.Entry) *btree.Tree {
		return btree.BulkLoad(entries)
	})
}

// TestPagedChunkedMatchesOracle is the same suite on paged trees
// behind a floor-sized page cache (32 frames against some 90 leaves),
// so every SI longer than the cache is delivered while its leaves are
// being evicted behind the walk: a chunk must have been consumed
// before its leaf's pin is dropped.
func TestPagedChunkedMatchesOracle(t *testing.T) {
	var caches []*pager.Cache
	testChunkedMatchesOracle(t, func(t *testing.T, entries []btree.Entry) *btree.Tree {
		paged, cache := pagedTwin(t, btree.BulkLoad(entries))
		caches = append(caches, cache)
		return paged
	})
	for _, cache := range caches {
		checkEvictedUnpinned(t, cache)
	}
}

// pagedTwin writes ram out to a page file and reopens it as a paged
// tree behind a floor-sized page cache (32 frames).
func pagedTwin(t *testing.T, ram *btree.Tree) (*btree.Tree, *pager.Cache) {
	t.Helper()
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
	paged, err := btree.OpenPaged(f, cache, m)
	if err != nil {
		t.Fatal(err)
	}
	return paged, cache
}

// checkEvictedUnpinned fails unless cache evicted (the walk outran
// it) and holds no more than a few frames over its target (the walk
// dropped each leaf's pin behind it).
func checkEvictedUnpinned(t *testing.T, cache *pager.Cache) {
	t.Helper()
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("the page cache never evicted (stats %+v): the walk fitted in it", st)
	}
	if st.Resident > st.Target+8 {
		t.Fatalf("resident %d far above target %d: the walk is not releasing pins", st.Resident, st.Target)
	}
}

// TestPagedTopKDescendsUnderEviction runs top-k on a paged tree behind
// the floor-sized cache with a smaller interval longer than the cache,
// so Claim 3's descending walk faults and evicts leaves as it goes
// down: the answer and Stats must equal the RAM twin's, the answer
// brute force's, and every leaf's pin must be dropped on the way.
func TestPagedTopKDescendsUnderEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	points := randPoints(rng, chunkN, 3)
	info := buildInfo(points, []float64{1, 2, 1}, vecmath.FirstOctant(3))
	q := Query{A: []float64{1, 1.5, 1}, B: 60}
	const k = 12000
	dist := func(id uint32) float64 { return q.Distance(points[id]) }

	run := func(tree *btree.Tree) ([]Result, Stats) {
		pinfo := info
		pinfo.Tree = tree
		src := makeSource(points, []IndexInfo{pinfo})
		plan := PlanQuery(src, q)
		if plan.Kind != KindRange {
			t.Fatalf("plan %+v, want a range plan", plan)
		}
		sink := NewTopKSink(k, dist)
		st, err := Execute(src, q, plan, sink)
		if err != nil {
			t.Fatal(err)
		}
		return sink.Results(), noClock(st)
	}
	paged, cache := pagedTwin(t, info.Tree)
	got, st := run(paged)
	want, wantSt := run(info.Tree)
	if st != wantSt {
		t.Fatalf("stats differ\n paged %+v\n   ram %+v", st, wantSt)
	}
	if st.Accepted <= cache.Stats().Target*btree.LeafCap {
		t.Fatalf("the descent took %d entries, not more than the cache holds (%+v)", st.Accepted, cache.Stats())
	}
	if !slices.Equal(got, want) {
		t.Fatalf("paged answer differs from the RAM twin's (%d vs %d results)", len(got), len(want))
	}
	var brute []Result
	for _, id := range bruteIDs(points, q) {
		brute = append(brute, Result{ID: id, Distance: dist(id)})
	}
	slices.SortFunc(brute, func(a, b Result) int {
		if c := cmp.Compare(a.Distance, b.Distance); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if !slices.Equal(got, brute[:min(k, len(brute))]) {
		t.Fatalf("answer differs from brute force (%d vs %d results)", len(got), min(k, len(brute)))
	}
	checkEvictedUnpinned(t, cache)
}
