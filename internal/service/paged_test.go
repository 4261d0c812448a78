package service

import (
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/pager"
	"planar/internal/vecmath"
)

// pagedGolden drives a paged DB and a plain snapshot-mode DB through
// one identical mutation stream and compares query answers.
type pagedGolden struct {
	t     *testing.T
	rng   *rand.Rand
	dim   int
	paged *DB
	plain *DB
	live  []uint32
}

func (g *pagedGolden) vec() []float64 {
	v := make([]float64, g.dim)
	for i := range v {
		v[i] = g.rng.Float64() * 50
	}
	return v
}

func (g *pagedGolden) append() {
	v := g.vec()
	id1, err := g.paged.Append(v)
	if err != nil {
		g.t.Fatal(err)
	}
	if _, err := g.plain.Append(v); err != nil {
		g.t.Fatal(err)
	}
	g.live = append(g.live, id1)
}

func (g *pagedGolden) mutate(n int) {
	for i := 0; i < n; i++ {
		switch r := g.rng.Intn(10); {
		case r < 6 || len(g.live) == 0:
			g.append()
		case r < 8:
			j := g.rng.Intn(len(g.live))
			v := g.vec()
			if err := g.paged.Update(g.live[j], v); err != nil {
				g.t.Fatal(err)
			}
			if err := g.plain.Update(g.live[j], v); err != nil {
				g.t.Fatal(err)
			}
		default:
			j := g.rng.Intn(len(g.live))
			if err := g.paged.Remove(g.live[j]); err != nil {
				g.t.Fatal(err)
			}
			if err := g.plain.Remove(g.live[j]); err != nil {
				g.t.Fatal(err)
			}
			g.live[j] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
		}
	}
}

func (g *pagedGolden) compare(queries int) {
	g.t.Helper()
	if gl, pl := g.paged.Len(), g.plain.Len(); gl != pl {
		g.t.Fatalf("Len: paged %d, plain %d", gl, pl)
	}
	for q := 0; q < queries; q++ {
		a := make([]float64, g.dim)
		for i := range a {
			a[i] = 0.01 + g.rng.Float64()
		}
		b := g.rng.Float64() * 50 * float64(g.dim)
		qry := core.Query{A: a, B: b, Op: core.LE}
		got, _, err := g.paged.Query(qry)
		if err != nil {
			g.t.Fatal(err)
		}
		want, _, err := g.plain.Query(qry)
		if err != nil {
			g.t.Fatal(err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			g.t.Fatalf("query %d: paged %d ids, plain %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				g.t.Fatalf("query %d: id %d differs (paged %d, plain %d)", q, i, got[i], want[i])
			}
		}
	}
}

// TestPagedServiceEndToEnd is the paged tier's kill-and-reopen e2e,
// unsharded and sharded: a paged DB with a cache far smaller than the
// dataset must answer every query identically to a snapshot-mode
// golden twin, survive a checkpoint + close + reopen cycle with trees
// coming back in paged mode, and replay only the WAL records the
// checkpoint does not cover.
func TestPagedServiceEndToEnd(t *testing.T) {
	eachTopology(t, func(t *testing.T, shards int) {
		root := t.TempDir()
		const dim = 6
		// The cache budget is below the pager's floor, so every shard's
		// slice clamps to the minimum (32 frames) — far fewer than the
		// trees' page count.
		const tinyCache = 1 << 15
		paged, err := Open(filepath.Join(root, "paged"), Options{
			Dim: dim, Shards: shards, Paged: true, PageCacheBytes: tinyCache,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Open(filepath.Join(root, "plain"), Options{Dim: dim, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !paged.Paged() || paged.Shards() != shards {
			t.Fatalf("want %d shards, paged; got %d, paged=%v", shards, paged.Shards(), paged.Paged())
		}
		for _, pd := range partDirs(filepath.Join(root, "paged"), shards) {
			if _, err := os.Stat(filepath.Join(pd, "pages.plnr")); err != nil {
				t.Fatalf("page file missing: %v", err)
			}
		}

		g := &pagedGolden{t: t, rng: rand.New(rand.NewSource(20140808)), dim: dim, paged: paged, plain: plain}
		defer func() {
			g.paged.Close()
			g.plain.Close()
		}()
		// The twins restart together: a sharded store's round-robin
		// append cursor starts over at Open, so the ids the two assign
		// keep matching only if both reopen.
		reopen := func() {
			t.Helper()
			if err := g.paged.Close(); err != nil {
				t.Fatal(err)
			}
			if err := g.plain.Close(); err != nil {
				t.Fatal(err)
			}
			// The twin never checkpoints, so only its options know Dim.
			plain, err := Open(filepath.Join(root, "plain"), Options{Dim: dim})
			if err != nil {
				t.Fatal(err)
			}
			g.plain = plain
			paged, err = Open(filepath.Join(root, "paged"), Options{PageCacheBytes: tinyCache})
			if err != nil {
				t.Fatal(err)
			}
			g.paged = paged
		}

		signs := make(vecmath.SignPattern, dim)
		for i := range signs {
			signs[i] = 1
		}
		addNormal := func(seed int64) {
			nrng := rand.New(rand.NewSource(seed))
			normal := make([]float64, dim)
			for i := range normal {
				normal[i] = 0.1 + nrng.Float64()
			}
			if _, err := g.paged.AddNormal(normal, signs); err != nil {
				t.Fatal(err)
			}
			if _, err := g.plain.AddNormal(normal, signs); err != nil {
				t.Fatal(err)
			}
		}

		// Every shard has its own floor-sized cache to outgrow.
		g.mutate(8000 * shards)
		addNormal(1)
		addNormal(2)
		g.mutate(8000 * shards)
		g.compare(10)

		// First durable checkpoint, then a tail of mutations that only
		// the WAL holds.
		if err := paged.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		const tail = 137
		g.mutate(tail)
		g.compare(5)

		// Kill and reopen: replay must apply exactly the post-checkpoint
		// tail, and the restored trees must run in paged-arena mode.
		reopen()
		if !paged.Paged() || paged.Shards() != shards {
			t.Fatalf("directory with page files reopened with %d shards, paged=%v", paged.Shards(), paged.Paged())
		}
		if got := paged.ReplayedRecords(); got != tail {
			t.Fatalf("reopen replayed %d WAL records, want exactly the post-checkpoint %d", got, tail)
		}
		// Only an unsharded store exposes its trees.
		if m := paged.Multi(); m != nil {
			for i := 0; i < m.NumIndexes(); i++ {
				if !m.Index(i).Tree().Paged() {
					t.Fatalf("restored index %d is not paged", i)
				}
			}
		}
		g.compare(15)

		// The cache must be faulting pages in, not holding the whole
		// file.
		st, ok := paged.PageStats()
		if !ok {
			t.Fatal("PageStats not available on the paged tier")
		}
		if st.Hits == 0 || st.Misses == 0 {
			t.Fatalf("page cache idle after queries: %+v", st)
		}

		// Keep mutating after the reopen (copy-on-write against the new
		// checkpoint), checkpoint again, reopen again.
		g.mutate(1000)
		g.compare(10)
		if err := paged.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		reopen()
		if got := paged.ReplayedRecords(); got != 0 {
			t.Fatalf("reopen after clean checkpoint replayed %d records, want 0", got)
		}
		g.compare(15)

		// After a clean reopen every frame is clean (no WAL tail to
		// COW), so the query sweep above must have cycled the tiny
		// cache: more distinct pages touched than frames, hence
		// evictions.
		st, ok = paged.PageStats()
		if !ok {
			t.Fatal("PageStats not available after clean reopen")
		}
		if st.Evictions == 0 {
			t.Fatalf("cache larger than dataset defeats the test: %+v", st)
		}
		if st.Resident >= int(st.Pages) {
			t.Fatalf("entire page file resident (%d/%d): cache not smaller than dataset", st.Resident, st.Pages)
		}
	})
}

// TestPagedNeverReopenedStore runs a paged DB that is never closed and
// reopened: every index lives on pages from its first checkpoint on,
// the background writer has trees to write, and answers match a
// snapshot-mode twin throughout.
func TestPagedNeverReopenedStore(t *testing.T) {
	root := t.TempDir()
	const dim = 4
	paged, err := Open(filepath.Join(root, "paged"), Options{
		Dim: dim, Paged: true, PageCacheBytes: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	plain, err := Open(filepath.Join(root, "plain"), Options{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	g := &pagedGolden{t: t, rng: rand.New(rand.NewSource(41)), dim: dim, paged: paged, plain: plain}
	for _, normal := range [][]float64{{0.5, 1.1, 0.9, 1.4}, {1.3, 0.2, 0.7, 0.6}} {
		for _, db := range []*DB{paged, plain} {
			if _, err := db.AddNormal(normal, vecmath.FirstOctant(dim)); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.mutate(3000)

	requirePaged := func(when string) {
		t.Helper()
		m := paged.Multi()
		for i := 0; i < m.NumIndexes(); i++ {
			if !m.Index(i).Tree().Paged() {
				t.Fatalf("%s: index %d is not paged", when, i)
			}
		}
	}
	pageStats := func() codec.PageTierStats {
		t.Helper()
		st, ok := paged.PageStats()
		if !ok {
			t.Fatal("PageStats not available on the paged tier")
		}
		return st
	}
	if err := paged.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requirePaged("after the first checkpoint")
	g.compare(10)

	// The writer's own rounds, not the checkpoint's drain, must write
	// the paged trees' dirty pages out between checkpoints.
	written := pageStats().WritebackPages
	g.mutate(1000)
	g.compare(10)
	for deadline := time.Now().Add(10 * time.Second); pageStats().WritebackPages == written; {
		if time.Now().After(deadline) {
			t.Fatalf("no background writeback before the second checkpoint: %+v", pageStats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := paged.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	requirePaged("after the second checkpoint")
	st := pageStats()
	if st.WritebackPages == 0 || st.WritebackErrors != 0 {
		t.Fatalf("writer stats %+v: want tree pages written and no errors", st)
	}
	if st.DirtyFrames != 0 {
		t.Fatalf("%d dirty frames survived a checkpoint", st.DirtyFrames)
	}
	g.compare(10)
}

// TestPagedServiceSharded runs the paged tier with automatic
// checkpoints under both layouts: per-shard page files, split cache
// budget, aggregated stats.
func TestPagedServiceSharded(t *testing.T) {
	eachTopology(t, func(t *testing.T, shards int) {
		root := t.TempDir()
		const dim = 4
		paged, err := Open(filepath.Join(root, "paged"), Options{
			Dim: dim, Shards: shards, Paged: true, PageCacheBytes: 1 << 19,
			CheckpointEvery: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Open(filepath.Join(root, "plain"), Options{Dim: dim, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer plain.Close()
		if !paged.Paged() || paged.Shards() != shards {
			t.Fatalf("want %d shards, paged; got %d, paged=%v", shards, paged.Shards(), paged.Paged())
		}

		g := &pagedGolden{t: t, rng: rand.New(rand.NewSource(7)), dim: dim, paged: paged, plain: plain}
		signs := make(vecmath.SignPattern, dim)
		for i := range signs {
			signs[i] = 1
		}
		normal := []float64{0.5, 1.1, 0.9, 1.4}
		if _, err := paged.AddNormal(normal, signs); err != nil {
			t.Fatal(err)
		}
		if _, err := plain.AddNormal(normal, signs); err != nil {
			t.Fatal(err)
		}
		g.mutate(6000) // crosses the automatic per-shard checkpoint threshold
		g.compare(10)

		if err := paged.Close(); err != nil {
			t.Fatal(err)
		}
		paged, err = Open(filepath.Join(root, "paged"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer paged.Close()
		g.paged = paged
		if !paged.Paged() || paged.Shards() != shards {
			t.Fatalf("paged directory reopened with %d shards, paged=%v", paged.Shards(), paged.Paged())
		}
		if got := paged.ReplayedRecords(); got >= 500*shards {
			t.Fatalf("replayed %d records: automatic checkpoints did not bound the logs", got)
		}
		g.compare(15)
		if st, ok := paged.PageStats(); !ok || st.Pages == 0 {
			t.Fatalf("PageStats = %+v, %v", st, ok)
		}
	})
}

// TestPageCacheDefaultSplit pins where the page-cache default is
// resolved: before the per-shard split. Left unset, the budget is the
// documented 64 MiB whatever the shard count — four shards get a
// quarter each, not 0/4 = 0 and the cache's floor of a few frames.
func TestPageCacheDefaultSplit(t *testing.T) {
	target := func(shards int) int {
		db, err := Open(t.TempDir(), Options{Dim: 2, Paged: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		st, ok := db.PageStats()
		if !ok {
			t.Fatal("PageStats not available on the paged tier")
		}
		return st.Target
	}
	one, four := target(1), target(4)
	// A floored cache targets 32 frames; 64 MiB is some 16 000.
	if want := (64 << 20) / pager.PageSize; one < want*9/10 {
		t.Fatalf("unsharded default cache targets %d frames, want about %d", one, want)
	}
	// Each shard rounds its slice down to whole frames per cache shard.
	if diff := one - four; diff < 0 || diff > one/100 {
		t.Fatalf("default cache targets %d frames over 4 shards, %d unsharded", four, one)
	}
}

// TestPagedWritebackStats reopens a paged DB (trees in paged mode),
// mutates it, and checkpoints: the drain-before-lock path must route
// pages through the background writer and the incremental counters
// must reflect the delta, both unsharded and sharded.
func TestPagedWritebackStats(t *testing.T) {
	for _, shards := range []int{0, 2} {
		dir := t.TempDir()
		const dim = 3
		opts := Options{Dim: dim, Paged: true, Shards: shards}
		db, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(31))
		v := make([]float64, dim)
		appendOne := func() {
			for j := range v {
				v[j] = rng.Float64() * 100
			}
			if _, err := db.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		signs := make(vecmath.SignPattern, dim)
		for i := range signs {
			signs[i] = 1
		}
		if _, err := db.AddNormal([]float64{0.4, 0.8, 1.2}, signs); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 800; i++ {
			appendOne()
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			appendOne()
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, ok := db.PageStats()
		if !ok {
			t.Fatalf("shards=%d: PageStats unavailable", shards)
		}
		if st.WritebackPages == 0 {
			t.Fatalf("shards=%d: checkpoint drain flushed nothing through the writer (stats %+v)", shards, st)
		}
		if st.WritebackErrors != 0 {
			t.Fatalf("shards=%d: writer errors %d", shards, st.WritebackErrors)
		}
		if st.IncrementalPages <= 0 {
			t.Fatalf("shards=%d: incremental checkpoint wrote %d pages", shards, st.IncrementalPages)
		}
		if st.LastCheckpointMs <= 0 {
			t.Fatalf("shards=%d: checkpoint duration not recorded", shards)
		}
		if st.DirtyFrames != 0 {
			t.Fatalf("shards=%d: %d dirty frames survived a checkpoint", shards, st.DirtyFrames)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
