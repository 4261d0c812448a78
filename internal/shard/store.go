package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/replog"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

// metaFile records the shard count and dimensionality at the root of
// a partitioned data directory, so reopening never needs them
// respecified and a mismatched -shards flag is caught instead of
// silently resharding.
const metaFile = "shards.meta"

// defaultPageCacheBytes is the store-wide page-cache budget when the
// options leave it unset (64 MiB).
const defaultPageCacheBytes = 64 << 20

// ErrClosed reports a write, checkpoint or query against a closed
// store.
var ErrClosed = errors.New("shard: store is closed")

// Options configures a Store.
type Options struct {
	// Shards is the number of hash partitions of a fresh store (0 or 1:
	// one partition, rooted at the directory itself). A directory that
	// was created partitioned reopens with its stored count whatever
	// this says; a non-zero value is validated against it.
	Shards int
	// Dim is the φ dimensionality; required when creating a fresh
	// store, validated against the stored one otherwise.
	Dim int
	// SyncEveryWrite fsyncs a shard's log after each mutation.
	SyncEveryWrite bool
	// CheckpointEvery triggers an automatic per-shard checkpoint after
	// this many mutations on that shard (0 disables).
	CheckpointEvery int
	// Paged selects the disk-paged storage tier for every shard (see
	// service.Options.Paged). Directories holding page files reopen
	// paged regardless.
	Paged bool
	// PageCacheBytes is the store-wide page-cache budget (0 = a 64 MiB
	// default), split evenly across shards (each shard enforces a
	// small floor).
	PageCacheBytes int
}

// Store is a hash-partitioned collection of planar index shards with
// scatter-gather query execution. Global point ids are dense across
// the store: global id g lives on shard g mod N as local id g div N.
// An unpartitioned store is the N = 1 case, not a different thing:
// ids are the partition's own and every answer is the partition's
// own, returned untouched. All methods are safe for concurrent use;
// mutations lock only the owning shard, and every read that spans the
// partitions holds all of their read locks at once (rlockAll).
type Store struct {
	parts  []*partition
	fanout int
	rr     atomic.Uint64
	seq    *replog.Sequencer
}

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

// WriteLayout lays a consistent cut of a store down in dir as a fresh
// data directory — replica bootstrap's way of adopting a primary's
// topology: one snapshot per partition where partDir puts it (and the
// meta file when there are several), each beside an empty WAL segment
// whose base is pinned at lsn+1 so opening the directory resumes the
// replication cursor exactly where the cut was taken.
func WriteLayout(dir string, dim int, lsn uint64, snaps []*codec.Snapshot) error {
	n := len(snaps)
	if n == 0 || dim <= 0 {
		return fmt.Errorf("shard: layout needs shards=%d dim=%d positive", n, dim)
	}
	write := func(pd string, snap *codec.Snapshot) error {
		if err := os.MkdirAll(pd, 0o755); err != nil {
			return err
		}
		if err := snap.Save(filepath.Join(pd, snapshotFile)); err != nil {
			return err
		}
		w, err := wal.Create(filepath.Join(pd, walFile), dim, lsn+1)
		if err != nil {
			return err
		}
		return w.Close()
	}
	for i, snap := range snaps {
		if err := write(partDir(dir, i, n), snap); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if n == 1 {
		return nil
	}
	return writeMeta(filepath.Join(dir, metaFile), n, dim)
}

// readMeta parses the meta file's "shards=N dim=D" line.
func readMeta(path string) (shards, dim int, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	if _, err := fmt.Sscanf(string(b), "shards=%d dim=%d", &shards, &dim); err != nil {
		return 0, 0, fmt.Errorf("shard: malformed meta file %s: %w", path, err)
	}
	if shards <= 0 || dim <= 0 {
		return 0, 0, fmt.Errorf("shard: meta file %s has shards=%d dim=%d", path, shards, dim)
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
			return nil, 0, fmt.Errorf("shard: directory has %d shards, options say %d (resharding is not supported)", stored, n)
		}
		if dim != 0 && dim != storedDim {
			return nil, 0, fmt.Errorf("shard: directory dimension %d, options say %d", storedDim, dim)
		}
		n, dim = stored, storedDim
	case !errors.Is(err, os.ErrNotExist):
		return nil, 0, err
	case n <= 1:
		return []string{dir}, dim, nil
	default:
		for _, name := range []string{snapshotFile, walFile, pagesFile} {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				return nil, 0, fmt.Errorf("shard: directory holds an unpartitioned store (%s); resharding in place is not supported", name)
			}
		}
		if dim <= 0 {
			return nil, 0, errors.New("shard: Dim required to create a fresh store")
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

// Open restores (or initialises) the store in dir; see layout for
// where its partitions live. An empty dir creates an ephemeral store
// with no durability — the configuration used by benchmarks and
// tests. Crash recovery opens every shard in parallel: each shard
// independently loads its snapshot and replays its own WAL segment.
func Open(dir string, opts Options) (*Store, error) {
	// An ephemeral store's partitions have no directories.
	dirs, dim := make([]string, max(opts.Shards, 1)), opts.Dim
	if dir != "" {
		var err error
		if dirs, dim, err = layout(dir, opts.Shards, opts.Dim); err != nil {
			return nil, err
		}
	}
	n := len(dirs)

	s := &Store{parts: make([]*partition, n), fanout: min(n, runtime.GOMAXPROCS(0))}

	// The page-cache budget is store-wide; each shard gets an equal
	// slice (the per-shard cache enforces its own floor).
	if opts.PageCacheBytes <= 0 {
		opts.PageCacheBytes = defaultPageCacheBytes
	}
	opts.PageCacheBytes /= n

	// Shards recover independently, so open them in parallel: each
	// goroutine loads one snapshot and replays one WAL segment.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range dirs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.parts[i], errs[i] = openPartition(dirs[i], dim, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.Close() // release shards that did open
			return nil, s.shardErr(i, err)
		}
	}

	// The commit sequence resumes one past the highest LSN any shard
	// has journaled (each segment's header pins the position even
	// when the segment is empty).
	next := uint64(1)
	for _, p := range s.parts {
		if n := p.nextLSN(); n > next {
			next = n
		}
	}
	s.seq = replog.NewSequencer(next, 0, s.Dim())
	for i, p := range s.parts {
		p.seq, p.stride, p.index = s.seq, uint32(n), uint32(i)
	}
	return s, nil
}

// shardErr names the failing shard in an error, except on an
// unpartitioned store, which has no shard to name.
func (s *Store) shardErr(i int, err error) error {
	if err == nil || len(s.parts) == 1 {
		return err
	}
	return fmt.Errorf("shard %d: %w", i, err)
}

// Seq exposes the store-wide commit sequencer — the LSN authority and
// in-memory replication tail shared by every partition.
func (s *Store) Seq() *replog.Sequencer { return s.seq }

// NumShards returns the number of partitions.
func (s *Store) NumShards() int { return len(s.parts) }

// Dim returns the φ dimensionality.
func (s *Store) Dim() int { return s.parts[0].multi.Store().Dim() }

// Multi exposes the index collection of an unpartitioned store, whose
// local ids are the global ids. It returns nil on a partitioned store
// — use the Store-level accessors, which work for every N.
func (s *Store) Multi() *core.Multi {
	if len(s.parts) != 1 {
		return nil
	}
	return s.parts[0].multi
}

// shardOf routes a global id to its owning shard and local id.
func (s *Store) shardOf(gid uint32) (p *partition, shardIdx int, local uint32) {
	n := uint32(len(s.parts))
	shardIdx = int(gid % n)
	return s.parts[shardIdx], shardIdx, gid / n
}

// scatter runs fn once per shard on a worker pool bounded by the
// store's fanout, returning the first error.
func (s *Store) scatter(fn func(shardIdx int) error) error {
	// With no concurrency budget there is nothing to overlap — visit
	// the shards sequentially and skip the goroutine machinery.
	if s.fanout <= 1 {
		for i := range s.parts {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, s.fanout)
	errs := make([]error, len(s.parts))
	var wg sync.WaitGroup
	for i := range s.parts {
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
// (counts, the index configuration, Capture's copy) ignore it.
// runlockAll releases the cut. They are two methods, not one
// returning a closure, so a query allocates nothing to take the cut.
func (s *Store) rlockAll() error {
	var err error
	for _, p := range s.parts {
		p.mu.RLock()
		if p.closed {
			err = ErrClosed
		}
	}
	return err
}

func (s *Store) runlockAll() {
	for _, p := range s.parts {
		p.mu.RUnlock()
	}
}

// Len returns the number of live points across all shards.
func (s *Store) Len() int {
	_ = s.rlockAll()
	defer s.runlockAll()
	total := 0
	for _, p := range s.parts {
		total += p.multi.Store().Len()
	}
	return total
}

// NumIndexes returns the number of planar indexes per shard (every
// shard holds the same index configuration).
func (s *Store) NumIndexes() int {
	_ = s.rlockAll()
	defer s.runlockAll()
	return s.parts[0].multi.NumIndexes()
}

// MemoryBytes returns the approximate footprint of all shards.
func (s *Store) MemoryBytes() int {
	_ = s.rlockAll()
	defer s.runlockAll()
	total := 0
	for _, p := range s.parts {
		total += p.multi.MemoryBytes()
	}
	return total
}

// Live reports whether a global id names a live point.
func (s *Store) Live(gid uint32) bool {
	p, _, local := s.shardOf(gid)
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.Store().Live(local)
}

// Vector returns a copy of a live point's φ vector.
func (s *Store) Vector(gid uint32) ([]float64, error) {
	p, _, local := s.shardOf(gid)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.multi.Store().Live(local) {
		return nil, fmt.Errorf("shard: point %d is not live", gid)
	}
	return vecmath.Clone(p.multi.Store().Vector(local)), nil
}

// NextAppendLane returns the shard the next append routes to, in
// round-robin order. Append and the grouped write path draw from the
// same counter, so both assign points to shards in the same order,
// which is what makes them produce identical stores.
//
// The counter is not persisted: it restarts at lane 0 at every Open,
// wherever the previous process left off. Ids stay unique (each shard
// hands out its own next local id), but the dense 0, 1, 2, … sequence
// breaks at a restart that did not fall on a multiple of N, so a twin
// store fed the same appends without the restart assigns different
// ids from there on.
func (s *Store) NextAppendLane() int {
	return int(s.rr.Add(1)-1) % len(s.parts)
}

// LaneOf returns the shard owning a global id — the ingest lane its
// updates and removes must ride so same-key operations commit in
// submission order.
func (s *Store) LaneOf(gid uint32) int {
	_, si, _ := s.shardOf(gid)
	return si
}

// Append adds a point to the next shard in round-robin order and
// returns its global id and the LSN of its record. For an append-only
// stream the assigned ids are the dense sequence 0, 1, 2, … whatever N
// is; after removals each shard recycles its own local ids, so ids
// stay unique and stable but the exact values depend on N.
func (s *Store) Append(v []float64) (gid uint32, lsn uint64, err error) {
	p := s.parts[s.NextAppendLane()]
	local, lsn, err := p.commit(wal.OpAppend, 0, v)
	if err != nil {
		return 0, 0, err
	}
	return p.gid(local), lsn, nil
}

// Update replaces a point's φ vector on its owning shard and returns
// the LSN of its record.
func (s *Store) Update(gid uint32, v []float64) (lsn uint64, err error) {
	p, _, local := s.shardOf(gid)
	_, lsn, err = p.commit(wal.OpUpdate, local, v)
	return lsn, p.pointErr(local, err)
}

// Remove deletes a point from its owning shard and returns the LSN of
// its record.
func (s *Store) Remove(gid uint32) (lsn uint64, err error) {
	p, _, local := s.shardOf(gid)
	_, lsn, err = p.commit(wal.OpRemove, local, nil)
	return lsn, p.pointErr(local, err)
}

// CommitBatch group-commits one ingest batch on shard lane, in global
// ids on both sides (see partition.commitBatch).
func (s *Store) CommitBatch(lane int, intents []ingest.Intent, results []ingest.Result) error {
	return s.parts[lane].commitBatch(intents, results)
}

// AddNormal installs a planar index on every shard (shards must share
// one index configuration for scatter-gather plans to be comparable).
// It holds every partition's write lock, taken in index order, so no
// cut sees the index on some partitions and not on others. It reports
// whether an index was added; a closed store refuses with ErrClosed.
func (s *Store) AddNormal(normal []float64, signs vecmath.SignPattern) (bool, error) {
	var closed bool
	for _, p := range s.parts {
		p.mu.Lock()
		closed = closed || p.closed
	}
	defer func() {
		for _, p := range s.parts {
			p.mu.Unlock()
		}
	}()
	if closed {
		return false, ErrClosed
	}
	added := false
	for i, p := range s.parts {
		ok, err := p.multi.AddNormal(normal, signs)
		if err != nil {
			return false, s.shardErr(i, err)
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
// the gather's sort alone costs several times the query.

// Query answers an inequality query into a fresh slice. A partitioned
// store returns the ids in ascending global id order, with the
// per-stage stats rolled up.
func (s *Store) Query(q core.Query) ([]uint32, core.Stats, error) {
	return s.AppendQuery(nil, q)
}

// AppendQuery is Query appending the answer to dst, which it returns
// extended as append does (and untouched on an error). One partition
// fills dst itself; several fill pooled buffers of their own, which
// are merged into dst.
func (s *Store) AppendQuery(dst []uint32, q core.Query) ([]uint32, core.Stats, error) {
	err := s.rlockAll()
	defer s.runlockAll()
	if err != nil {
		return dst, core.Stats{}, err
	}
	if len(s.parts) == 1 {
		return s.parts[0].multi.AppendInequalityIDs(dst, q)
	}
	g := getGather(len(s.parts))
	defer putGather(g)
	err = s.scatter(func(i int) error {
		lids, st, err := s.parts[i].multi.AppendInequalityIDs(g.ids[i], q)
		if err != nil {
			return err
		}
		g.ids[i], g.sts[i] = s.parts[i].globalize(lids), st
		return nil
	})
	if err != nil {
		return dst, core.Stats{}, err
	}
	return mergeIDs(dst, g.ids), MergeStats(g.sts), nil
}

// QueryBatch answers one inequality query per threshold, sharing a
// single plan per shard across the batch.
func (s *Store) QueryBatch(a []float64, op core.Op, bs []float64) ([][]uint32, []core.Stats, error) {
	err := s.rlockAll()
	defer s.runlockAll()
	if err != nil {
		return nil, nil, err
	}
	if len(s.parts) == 1 {
		return s.parts[0].multi.InequalityBatch(a, op, bs)
	}
	ids := make([][][]uint32, len(s.parts)) // [shard][threshold]
	sts := make([][]core.Stats, len(s.parts))
	err = s.scatter(func(i int) error {
		lids, lsts, err := s.parts[i].multi.InequalityBatch(a, op, bs)
		if err != nil {
			return err
		}
		for t := range lids {
			lids[t] = s.parts[i].globalize(lids[t])
		}
		ids[i], sts[i] = lids, lsts
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	outIDs := make([][]uint32, len(bs))
	outSts := make([]core.Stats, len(bs))
	perShard := make([][]uint32, len(s.parts))
	perStats := make([]core.Stats, len(s.parts))
	for t := range bs {
		for i := range s.parts {
			perShard[i] = ids[i][t]
			perStats[i] = sts[i][t]
		}
		outIDs[t] = mergeIDs(nil, perShard)
		outSts[t] = MergeStats(perStats)
	}
	return outIDs, outSts, nil
}

// TopK answers a top-k nearest-to-hyperplane query: each shard runs
// the pipeline's descending smaller-interval walk with the Claim-3
// cut-off locally, then the per-shard answers are k-way merged on
// (distance, id).
func (s *Store) TopK(q core.Query, k int) ([]core.Result, core.Stats, error) {
	err := s.rlockAll()
	defer s.runlockAll()
	if err != nil {
		return nil, core.Stats{}, err
	}
	if len(s.parts) == 1 {
		return s.parts[0].multi.TopK(q, k)
	}
	res := make([][]core.Result, len(s.parts))
	sts := make([]core.Stats, len(s.parts))
	err = s.scatter(func(i int) error {
		p := s.parts[i]
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
	return mergeTopK(res, k), MergeStats(sts), nil
}

// Count answers an exact COUNT(*) as the sum of per-shard counts.
func (s *Store) Count(q core.Query) (int, core.Stats, error) {
	err := s.rlockAll()
	defer s.runlockAll()
	if err != nil {
		return 0, core.Stats{}, err
	}
	if len(s.parts) == 1 {
		return s.parts[0].multi.Count(q)
	}
	g := getGather(len(s.parts))
	defer putGather(g)
	err = s.scatter(func(i int) (err error) {
		g.counts[i], g.sts[i], err = s.parts[i].multi.Count(q)
		return err
	})
	if err != nil {
		return 0, core.Stats{}, err
	}
	total := 0
	for _, n := range g.counts {
		total += n
	}
	return total, MergeStats(g.sts), nil
}

// SelectivityBounds sums per-shard guaranteed cardinality bounds —
// each shard's answer size is individually bracketed, so the sums
// bracket the global answer.
func (s *Store) SelectivityBounds(q core.Query) (lo, hi int, err error) {
	err = s.rlockAll()
	defer s.runlockAll()
	if err != nil {
		return 0, 0, err
	}
	for _, p := range s.parts {
		plo, phi, err := p.multi.SelectivityBounds(q)
		if err != nil {
			return 0, 0, err
		}
		lo += plo
		hi += phi
	}
	return lo, hi, nil
}

// Explain aggregates the per-shard execution plans: interval sizes,
// live counts and cardinality bounds sum across shards, while the
// selection diagnostics (index choice, stretch, |cos|) are shard 0's
// — every shard holds the same index configuration, so shard 0's
// choice is representative even though data-dependent interval sizes
// can occasionally tip another shard toward a different candidate.
func (s *Store) Explain(q core.Query) (core.Plan, error) {
	err := s.rlockAll()
	defer s.runlockAll()
	if err != nil {
		return core.Plan{}, err
	}
	out, err := s.parts[0].multi.Explain(q)
	if err != nil {
		return core.Plan{}, s.shardErr(0, err)
	}
	if len(s.parts) == 1 {
		return out, nil
	}
	out.Reason = fmt.Sprintf("scatter-gather over %d shards: %s", len(s.parts), out.Reason)
	for i, p := range s.parts[1:] {
		pl, err := p.multi.Explain(q)
		if err != nil {
			return core.Plan{}, s.shardErr(i+1, err)
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

// Apply replays one replication record streamed from a primary: the
// global id routes to the owning shard, and replay must reproduce the
// primary's id assignment exactly (any disagreement reports
// replog.ErrDiverged). Records must arrive in LSN order.
func (s *Store) Apply(rec wal.Record) error {
	p, si, local := s.shardOf(rec.ID)
	return s.shardErr(si, p.applyReplicated(rec, local))
}

// Capture snapshots every shard's in-memory state (store layout +
// index configuration, no disk touched) under the cut, and returns the
// LSN the snapshots are consistent at. Writers wait while it copies;
// readers do not.
func (s *Store) Capture() (lsn uint64, snaps []*codec.Snapshot) {
	_ = s.rlockAll()
	defer s.runlockAll()
	snaps = make([]*codec.Snapshot, len(s.parts))
	for i, p := range s.parts {
		snaps[i] = codec.Capture(p.multi)
	}
	return s.seq.Last(), snaps
}

// FeedFromDisk serves catch-up replication reads that have fallen off
// the in-memory ring: it flushes every shard's WAL buffer, scans the
// segments for records at or past from, rewrites local ids to global
// ids, and k-way merges by LSN. tooOld reports that the segments no
// longer cover from (a checkpoint truncated them) — the replica must
// re-bootstrap from a snapshot.
func (s *Store) FeedFromDisk(from uint64, max int) (recs []wal.Record, tooOld bool, err error) {
	if s.parts[0].dir == "" {
		return nil, true, nil // ephemeral: ring is the only history
	}
	for _, p := range s.parts {
		if err := p.flushLog(); err != nil {
			return nil, false, err
		}
	}
	var merged []wal.Record
	for i, p := range s.parts {
		part, err := replog.ReadSegmentFrom(filepath.Join(p.dir, walFile), from, max, p.gid)
		if err != nil {
			return nil, false, s.shardErr(i, err)
		}
		merged = append(merged, part...)
	}
	sort.Slice(merged, func(a, b int) bool { return merged[a].LSN < merged[b].LSN })
	if len(merged) == 0 || merged[0].LSN > from {
		// The requested position predates what the segments retain.
		return nil, true, nil
	}
	// Keep only the dense prefix: a gap means an interleaved
	// checkpoint truncated part of the range mid-scan.
	out := merged[:0]
	for i, rec := range merged {
		if rec.LSN != from+uint64(i) {
			break
		}
		out = append(out, rec)
		if max > 0 && len(out) >= max {
			break
		}
	}
	return out, false, nil
}

// Paged reports whether the shards run on the disk-paged storage
// tier (all shards share one layout).
func (s *Store) Paged() bool {
	p := s.parts[0]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pstore != nil
}

// PageStats sums every shard's page-tier counters. ok is false when
// the store runs on the flat-snapshot tier.
func (s *Store) PageStats() (st codec.PageTierStats, ok bool) {
	for _, p := range s.parts {
		p.mu.RLock()
		if p.pstore != nil {
			st = st.Add(p.pstore.Stats())
			ok = true
		}
		p.mu.RUnlock()
	}
	return st, ok
}

// ReplayedRecords sums the WAL records each shard applied at open
// after its checkpoint filter — the restart-cost observability hook
// (the paged tier replays only post-checkpoint entries).
func (s *Store) ReplayedRecords() int {
	total := 0
	for _, p := range s.parts {
		total += p.replayed
	}
	return total
}

// Checkpoint snapshots every shard in parallel.
func (s *Store) Checkpoint() error {
	return s.scatter(func(i int) error {
		return s.shardErr(i, s.parts[i].checkpoint())
	})
}

// Close flushes and releases every shard's log.
func (s *Store) Close() error {
	var first error
	for _, p := range s.parts {
		if p == nil {
			continue
		}
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
