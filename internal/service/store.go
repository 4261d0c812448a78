package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/vecmath"
)

// metaFile records the shard count and dimensionality at the root of
// a partitioned data directory, so reopening never needs them
// respecified and a mismatched -shards flag is caught instead of
// silently resharding.
const metaFile = "shards.meta"

// defaultPageCacheBytes is the store-wide page-cache budget when the
// options leave it unset (64 MiB).
const defaultPageCacheBytes = 64 << 20

func shardDir(root string, i int) string {
	return filepath.Join(root, fmt.Sprintf("shard-%03d", i))
}

// partDir is the layout rule for a fresh store: partition i of n
// lives in root/shard-00i, and the only partition of an unpartitioned
// store in root itself.
func partDir(root string, i, n int) string {
	if n == 1 {
		return root
	}
	return shardDir(root, i)
}

// readMeta parses the meta file's "shards=N dim=D" line.
func readMeta(path string) (shards, dim int, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(string(b), "shards=%d dim=%d", &shards, &dim); err != nil {
		return 0, 0, fmt.Errorf("service: malformed meta file %s: %w", path, err)
	}
	if shards <= 0 || dim <= 0 {
		return 0, 0, fmt.Errorf("service: meta file %s has shards=%d dim=%d", path, shards, dim)
	}
	return shards, dim, nil
}

// writeMeta persists the meta file atomically (write-temp, sync,
// rename) so a crash during creation never leaves a half-written
// configuration.
func writeMeta(path string, shards, dim int) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "shards=%d dim=%d\n", shards, dim); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// layout decides where the partitions of the store in dir live,
// returning one directory per partition and the dimensionality to
// open them with (0: adopt each partition's stored one). A directory
// with a meta file keeps its shard-NNN/ partitions and stored count;
// otherwise Shards ≤ 1 means one partition rooted at dir itself — no
// meta file, no sub-directory — and Shards > 1 creates the
// partitioned layout, unless dir already holds an unpartitioned
// store's files, which the shard directories would silently shadow.
func layout(dir string, n, dim int) (dirs []string, _ int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	metaPath := filepath.Join(dir, metaFile)
	stored, storedDim, err := readMeta(metaPath)
	switch {
	case err == nil:
		if n != 0 && n != stored {
			return nil, 0, fmt.Errorf("service: directory has %d shards, options say %d (resharding is not supported)", stored, n)
		}
		if dim != 0 && dim != storedDim {
			return nil, 0, fmt.Errorf("service: directory dimension %d, options say %d", storedDim, dim)
		}
		n, dim = stored, storedDim
	case !errors.Is(err, os.ErrNotExist):
		return nil, 0, err
	case n <= 1:
		return []string{dir}, dim, nil
	default:
		for _, name := range []string{snapshotFile, walFile, pagesFile} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				return nil, 0, fmt.Errorf("service: directory holds an unpartitioned store (%s); resharding in place is not supported", name)
			}
		}
		if dim <= 0 {
			return nil, 0, errors.New("service: Dim required to create a fresh store")
		}
		if err := writeMeta(metaPath, n, dim); err != nil {
			return nil, 0, err
		}
	}
	dirs = make([]string, n)
	for i := range dirs {
		dirs[i] = shardDir(dir, i)
	}
	return dirs, dim, nil
}

// shardErr names the failing shard in an error, except on an
// unpartitioned store, which has no shard to name.
func (db *DB) shardErr(i int, err error) error {
	if err == nil || len(db.parts) == 1 {
		return err
	}
	return fmt.Errorf("shard %d: %w", i, err)
}

// shardOf routes a global id to its owning shard and local id.
func (db *DB) shardOf(gid uint32) (p *partition, shardIdx int, local uint32) {
	n := uint32(len(db.parts))
	shardIdx = int(gid % n)
	return db.parts[shardIdx], shardIdx, gid / n
}

// scatter runs fn once per shard on a worker pool bounded by the
// store's fanout, returning the first error.
func (db *DB) scatter(fn func(shardIdx int) error) error {
	// With no concurrency budget there is nothing to overlap — visit
	// the shards sequentially and skip the goroutine machinery.
	if db.fanout <= 1 {
		for i := range db.parts {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, db.fanout)
	errs := make([]error, len(db.parts))
	var wg sync.WaitGroup
	for i := range db.parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
			<-sem
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rlockAll takes the cut: every partition's read lock, in index
// order. A commit applies its mutation and takes its LSN under one
// hold of its own partition's write lock, so while all of them are
// held no commit is half done anywhere, and the store is exactly the
// state at seq.Last(). At N = 1 it is the one RLock a query takes.
// It reports ErrClosed when any partition is closed, whose page file
// a query must not fault; the locks are held either way. The
// accessors that read only what a closed store still holds in memory
// (counts, the index configuration, CaptureState's copy) ignore it.
// runlockAll releases the cut. They are two methods, not one
// returning a closure, so a query allocates nothing to take the cut.
func (db *DB) rlockAll() error {
	var err error
	for _, p := range db.parts {
		p.mu.RLock()
		if p.closed {
			err = ErrClosed
		}
	}
	return err
}

func (db *DB) runlockAll() {
	for _, p := range db.parts {
		p.mu.RUnlock()
	}
}

// Len returns the number of live points across all shards.
func (db *DB) Len() int {
	_ = db.rlockAll()
	defer db.runlockAll()
	total := 0
	for _, p := range db.parts {
		total += p.multi.Store().Len()
	}
	return total
}

// NumIndexes returns the number of planar indexes (per shard — every
// shard holds the same configuration).
func (db *DB) NumIndexes() int {
	_ = db.rlockAll()
	defer db.runlockAll()
	return db.parts[0].multi.NumIndexes()
}

// MemoryBytes returns the approximate footprint of the store and
// indexes, summed across shards.
func (db *DB) MemoryBytes() int {
	_ = db.rlockAll()
	defer db.runlockAll()
	total := 0
	for _, p := range db.parts {
		total += p.multi.MemoryBytes()
	}
	return total
}

// AddNormal installs a planar index on every shard (shards must share
// one index configuration for scatter-gather plans to be comparable);
// the configuration is persisted at the next checkpoint. It holds
// every partition's write lock, taken in index order, so no cut sees
// the index on some partitions and not on others. It reports whether
// an index was added. Index changes are not journaled, so they reach
// replicas only through a snapshot bootstrap — query answers do not
// depend on indexes, only query speed, so replicated results stay
// identical either way.
func (db *DB) AddNormal(normal []float64, signs vecmath.SignPattern) (bool, error) {
	if db.readOnly.Load() {
		return false, ErrReadOnly
	}
	var closed bool
	for _, p := range db.parts {
		p.mu.Lock()
		closed = closed || p.closed
	}
	defer func() {
		for _, p := range db.parts {
			p.mu.Unlock()
		}
	}()
	if closed {
		return false, ErrClosed
	}
	added := false
	for i, p := range db.parts {
		ok, err := p.multi.AddNormal(normal, signs)
		if err != nil {
			return false, db.shardErr(i, err)
		}
		if i == 0 {
			added = ok
		}
	}
	return added, nil
}

// gatherBufs is the pooled per-query scratch of a scatter-gather:
// one id buffer and one stats slot per shard. Pooling it keeps the
// scatter overhead of Query and Count off the allocator: the id
// buffers keep their capacity from one query to the next, and the
// merged result goes into the caller's.
type gatherBufs struct {
	ids    [][]uint32
	sts    []core.Stats
	counts []int
}

var gatherPool = sync.Pool{New: func() any { return new(gatherBufs) }}

func getGather(n int) *gatherBufs {
	g := gatherPool.Get().(*gatherBufs)
	if cap(g.ids) < n {
		g.ids = make([][]uint32, n)
		g.sts = make([]core.Stats, n)
		g.counts = make([]int, n)
	}
	g.ids = g.ids[:n]
	g.sts = g.sts[:n]
	g.counts = g.counts[:n]
	for i := range g.ids {
		g.ids[i] = g.ids[i][:0]
		g.sts[i] = core.Stats{}
		g.counts[i] = 0
	}
	return g
}

// maxPooledIDs is the largest per-shard id buffer a gatherBufs keeps
// for the next query (1 MiB), so one huge answer does not pin its
// buffers in the pool forever.
const maxPooledIDs = 1 << 18

func putGather(g *gatherBufs) {
	for i, ids := range g.ids {
		if cap(ids) > maxPooledIDs {
			g.ids[i] = nil
		}
	}
	gatherPool.Put(g)
}

// The query methods share one shape. The accept / verify / reject
// decision is made per point from that point's own key, so the answer
// over a partitioned point set is the union of the partitions'
// answers, provided every partition is read in the same state: each
// method takes the cut (rlockAll) for its whole run, then each shard
// plans and executes on its own (concurrently, up to the fanout) and
// the parts are merged. With one partition there is nothing to merge
// and its answer is returned untouched — no id rewrite, no copy, no
// sort, ids in the index's own order — because on a 20 000-id answer
// the gather's sort alone costs several times the query. A query that
// succeeds folds its stats into the metrics rollup (record).

// Query answers an inequality query into a fresh slice. A sharded
// store returns the ids in ascending global id order, with the
// per-stage stats rolled up; an unsharded one in its index's own
// order.
func (db *DB) Query(q core.Query) ([]uint32, core.Stats, error) {
	return db.AppendQuery(nil, q)
}

// AppendQuery is Query appending the answer to dst, which it returns
// extended as append does (and untouched on an error): a caller that
// hands the returned slice back, cut to [:0], reuses one buffer
// across queries. One partition fills dst itself; several fill pooled
// buffers of their own, which are merged into dst.
func (db *DB) AppendQuery(dst []uint32, q core.Query) ([]uint32, core.Stats, error) {
	err := db.rlockAll()
	defer db.runlockAll()
	if err != nil {
		return dst, core.Stats{}, err
	}
	if len(db.parts) == 1 {
		ids, st, err := db.parts[0].multi.AppendInequalityIDs(dst, q)
		if err == nil {
			db.record(st)
		}
		return ids, st, err
	}
	g := getGather(len(db.parts))
	defer putGather(g)
	err = db.scatter(func(i int) error {
		lids, st, err := db.parts[i].multi.AppendInequalityIDs(g.ids[i], q)
		if err != nil {
			return err
		}
		g.ids[i], g.sts[i] = db.parts[i].globalize(lids), st
		return nil
	})
	if err != nil {
		return dst, core.Stats{}, err
	}
	st := mergeStats(g.sts)
	db.record(st)
	return mergeIDs(dst, g.ids), st, nil
}

// QueryBatch answers one inequality query per threshold, sharing a
// single plan per shard across the batch (see
// core.Multi.InequalityBatch).
func (db *DB) QueryBatch(a []float64, op core.Op, bs []float64) ([][]uint32, []core.Stats, error) {
	err := db.rlockAll()
	defer db.runlockAll()
	if err != nil {
		return nil, nil, err
	}
	if len(db.parts) == 1 {
		ids, sts, err := db.parts[0].multi.InequalityBatch(a, op, bs)
		if err != nil {
			return nil, nil, err
		}
		for _, st := range sts {
			db.record(st)
		}
		return ids, sts, nil
	}
	ids := make([][][]uint32, len(db.parts)) // [shard][threshold]
	sts := make([][]core.Stats, len(db.parts))
	err = db.scatter(func(i int) error {
		lids, lsts, err := db.parts[i].multi.InequalityBatch(a, op, bs)
		if err != nil {
			return err
		}
		for t := range lids {
			lids[t] = db.parts[i].globalize(lids[t])
		}
		ids[i], sts[i] = lids, lsts
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	outIDs := make([][]uint32, len(bs))
	outSts := make([]core.Stats, len(bs))
	perShard := make([][]uint32, len(db.parts))
	perStats := make([]core.Stats, len(db.parts))
	for t := range bs {
		for i := range db.parts {
			perShard[i] = ids[i][t]
			perStats[i] = sts[i][t]
		}
		outIDs[t] = mergeIDs(nil, perShard)
		outSts[t] = mergeStats(perStats)
		db.record(outSts[t])
	}
	return outIDs, outSts, nil
}

// TopK answers a top-k nearest-to-hyperplane query: each shard runs
// the pipeline's descending smaller-interval walk with the Claim-3
// cut-off locally, then the per-shard answers are k-way merged on
// (distance, id).
func (db *DB) TopK(q core.Query, k int) ([]core.Result, core.Stats, error) {
	err := db.rlockAll()
	defer db.runlockAll()
	if err != nil {
		return nil, core.Stats{}, err
	}
	if len(db.parts) == 1 {
		res, st, err := db.parts[0].multi.TopK(q, k)
		if err == nil {
			db.record(st)
		}
		return res, st, err
	}
	res := make([][]core.Result, len(db.parts))
	sts := make([]core.Stats, len(db.parts))
	err = db.scatter(func(i int) error {
		p := db.parts[i]
		rs, st, err := p.multi.TopK(q, k)
		if err != nil {
			return err
		}
		for j := range rs {
			rs[j].ID = p.gid(rs[j].ID)
		}
		res[i], sts[i] = rs, st
		return nil
	})
	if err != nil {
		return nil, core.Stats{}, err
	}
	st := mergeStats(sts)
	db.record(st)
	return mergeTopK(res, k), st, nil
}

// Count answers an exact COUNT(*) as the sum of per-shard counts.
func (db *DB) Count(q core.Query) (int, core.Stats, error) {
	err := db.rlockAll()
	defer db.runlockAll()
	if err != nil {
		return 0, core.Stats{}, err
	}
	if len(db.parts) == 1 {
		n, st, err := db.parts[0].multi.Count(q)
		if err == nil {
			db.record(st)
		}
		return n, st, err
	}
	g := getGather(len(db.parts))
	defer putGather(g)
	err = db.scatter(func(i int) (err error) {
		g.counts[i], g.sts[i], err = db.parts[i].multi.Count(q)
		return err
	})
	if err != nil {
		return 0, core.Stats{}, err
	}
	total := 0
	for _, n := range g.counts {
		total += n
	}
	st := mergeStats(g.sts)
	db.record(st)
	return total, st, nil
}

// SelectivityBounds returns guaranteed cardinality bounds
// lo ≤ |answer| ≤ hi without computing a scalar product: the sum of
// the per-shard bounds (each shard's answer is individually
// bracketed, so the sums bracket the global answer).
func (db *DB) SelectivityBounds(q core.Query) (lo, hi int, err error) {
	err = db.rlockAll()
	defer db.runlockAll()
	if err != nil {
		return 0, 0, err
	}
	for _, p := range db.parts {
		plo, phi, err := p.multi.SelectivityBounds(q)
		if err != nil {
			return 0, 0, err
		}
		lo += plo
		hi += phi
	}
	return lo, hi, nil
}

// Explain returns the execution plan for q without touching data,
// aggregated across shards: interval sizes, live counts and
// cardinality bounds sum, while the selection diagnostics (index
// choice, stretch, |cos|) are shard 0's — every shard holds the same
// index configuration, so shard 0's choice is representative even
// though data-dependent interval sizes can occasionally tip another
// shard toward a different candidate.
func (db *DB) Explain(q core.Query) (core.Plan, error) {
	err := db.rlockAll()
	defer db.runlockAll()
	if err != nil {
		return core.Plan{}, err
	}
	out, err := db.parts[0].multi.Explain(q)
	if err != nil {
		return core.Plan{}, db.shardErr(0, err)
	}
	if len(db.parts) == 1 {
		return out, nil
	}
	out.Reason = fmt.Sprintf("scatter-gather over %d shards: %s", len(db.parts), out.Reason)
	for i, p := range db.parts[1:] {
		pl, err := p.multi.Explain(q)
		if err != nil {
			return core.Plan{}, db.shardErr(i+1, err)
		}
		out.Accepted += pl.Accepted
		out.Verified += pl.Verified
		out.Rejected += pl.Rejected
		out.N += pl.N
		out.BoundsLo += pl.BoundsLo
		out.BoundsHi += pl.BoundsHi
	}
	return out, nil
}

// Paged reports whether the DB runs on the disk-paged storage tier
// (all shards share one layout).
func (db *DB) Paged() bool {
	p := db.parts[0]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pstore != nil
}

// PageStats returns the paged tier's cache and file counters, summed
// across shards. ok is false when the DB runs on the flat-snapshot
// tier.
func (db *DB) PageStats() (st codec.PageTierStats, ok bool) {
	for _, p := range db.parts {
		p.mu.RLock()
		if p.pstore != nil {
			st = st.Add(p.pstore.Stats())
			ok = true
		}
		p.mu.RUnlock()
	}
	return st, ok
}

// ReplayedRecords returns how many WAL records Open applied after the
// checkpoint filter — the restart-cost observability hook (paged mode
// replays only post-checkpoint entries), summed across shards.
func (db *DB) ReplayedRecords() int {
	total := 0
	for _, p := range db.parts {
		total += p.replayed
	}
	return total
}

// Checkpoint makes every shard's state durable in its checkpoint file
// (a fresh snapshot written atomically, or an incremental page-file
// commit on the paged tier) and truncates its log; shards checkpoint
// in parallel.
func (db *DB) Checkpoint() error {
	return db.scatter(func(i int) error {
		return db.shardErr(i, db.parts[i].checkpoint())
	})
}
