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
	"time"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/replog"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

// metaFile records the shard count and dimensionality at the root of
// a sharded data directory, so reopening never needs them respecified
// and a mismatched -shards flag is caught instead of silently
// resharding.
const metaFile = "shards.meta"

// Options configures a Store.
type Options struct {
	// Shards is the number of hash partitions. Required (≥ 1) when
	// creating a fresh store; validated against the directory's meta
	// file otherwise (0 adopts the stored count).
	Shards int
	// Dim is the φ dimensionality; required when creating a fresh
	// store, validated against the meta file otherwise.
	Dim int
	// SyncEveryWrite fsyncs a shard's log after each mutation.
	SyncEveryWrite bool
	// CheckpointEvery triggers an automatic per-shard checkpoint after
	// this many mutations on that shard (0 disables).
	CheckpointEvery int
	// MultiOptions configure every shard's Multi (selection heuristic,
	// fallback, guard band, plan cache).
	MultiOptions []core.MultiOption
	// Fanout bounds how many shards one query executes on
	// concurrently. 0 means min(Shards, GOMAXPROCS).
	Fanout int
	// RingSize bounds the in-memory tail of committed records kept
	// for replication streaming (0 = replog.DefaultRingSize).
	RingSize int
	// Paged selects the disk-paged storage tier for every shard (see
	// service.Options.Paged). Shard directories holding page files
	// reopen paged regardless.
	Paged bool
	// PageCacheBytes is the store-wide page-cache budget, split evenly
	// across shards (each shard enforces a small floor).
	PageCacheBytes int
	// WritebackInterval is each shard's background page-writer cadence
	// (0 = a 25ms default; see service.Options.WritebackInterval).
	WritebackInterval time.Duration
	// WritebackBatchPages bounds pages flushed per writer round
	// (0 = 128).
	WritebackBatchPages int
	// DisableWriteback turns the per-shard background writers off.
	DisableWriteback bool
	// FullCheckpoints forces full store-page rewrites at every paged
	// checkpoint instead of the delta since the last one.
	FullCheckpoints bool
}

// Store is a hash-partitioned collection of planar index shards with
// scatter-gather query execution. Global point ids are dense across
// the store: global id g lives on shard g mod N as local id g div N.
// All methods are safe for concurrent use; mutations lock only the
// owning shard.
type Store struct {
	parts  []*partition
	fanout int
	dir    string // "" for an ephemeral store
	rr     atomic.Uint64
	seq    *replog.Sequencer
}

// IsSharded reports whether dir holds a sharded store (its meta file
// exists). It is how service.Open decides which mode to reopen in.
func IsSharded(dir string) bool {
	if dir == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(dir, metaFile))
	return err == nil
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// Dir returns the directory of shard i under a sharded store root —
// the layout contract replica bootstrap materialises into.
func Dir(root string, i int) string { return shardDir(root, i) }

// WriteLayout initialises an empty sharded directory (root dir,
// per-shard dirs, meta file) without opening a store. Replica
// bootstrap uses it to lay down a primary's topology before filling
// in the streamed snapshots.
func WriteLayout(dir string, shards, dim int) error {
	if shards <= 0 || dim <= 0 {
		return fmt.Errorf("shard: layout needs shards=%d dim=%d positive", shards, dim)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(shardDir(dir, i), 0o755); err != nil {
			return err
		}
	}
	return writeMeta(filepath.Join(dir, metaFile), shards, dim)
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

// Open restores (or initialises) a sharded store in dir. An empty dir
// creates an ephemeral store with no durability — the configuration
// used by benchmarks and tests. Crash recovery opens every shard in
// parallel: each shard independently loads its snapshot and replays
// its own WAL segment.
func Open(dir string, opts Options) (*Store, error) {
	n, dim := opts.Shards, opts.Dim
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		metaPath := filepath.Join(dir, metaFile)
		if stored, storedDim, err := readMeta(metaPath); err == nil {
			if n != 0 && n != stored {
				return nil, fmt.Errorf("shard: directory has %d shards, options say %d (resharding is not supported)", stored, n)
			}
			if dim != 0 && dim != storedDim {
				return nil, fmt.Errorf("shard: directory dimension %d, options say %d", storedDim, dim)
			}
			n, dim = stored, storedDim
		} else if errors.Is(err, os.ErrNotExist) {
			if n <= 0 {
				return nil, errors.New("shard: Shards required to create a fresh sharded store")
			}
			if dim <= 0 {
				return nil, errors.New("shard: Dim required to create a fresh sharded store")
			}
			if err := writeMeta(metaPath, n, dim); err != nil {
				return nil, err
			}
		} else {
			return nil, err
		}
	} else {
		if n <= 0 {
			n = 1
		}
		if dim <= 0 {
			return nil, errors.New("shard: Dim required for an ephemeral store")
		}
	}

	fanout := opts.Fanout
	if fanout <= 0 {
		fanout = runtime.GOMAXPROCS(0)
	}
	if fanout > n {
		fanout = n
	}
	s := &Store{parts: make([]*partition, n), fanout: fanout, dir: dir}

	// The page-cache budget is store-wide; each shard gets an equal
	// slice (the per-shard cache enforces its own floor).
	opts.PageCacheBytes /= n

	// Shards recover independently, so open them in parallel: each
	// goroutine loads one snapshot and replays one WAL segment.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pdir := ""
			if dir != "" {
				pdir = shardDir(dir, i)
			}
			s.parts[i], errs[i] = openPartition(pdir, dim, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			s.Close() // release shards that did open
			return nil, fmt.Errorf("shard %d: %w", i, err)
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
	s.seq = replog.NewSequencer(next, opts.RingSize, dim)
	for i, p := range s.parts {
		p.seq = s.seq
		idx := uint32(i)
		p.gid = func(local uint32) uint32 { return local*uint32(n) + idx }
	}
	return s, nil
}

// Seq exposes the store-wide commit sequencer — the LSN authority and
// in-memory replication tail shared by every partition.
func (s *Store) Seq() *replog.Sequencer { return s.seq }

// NumShards returns the number of partitions.
func (s *Store) NumShards() int { return len(s.parts) }

// Dim returns the φ dimensionality.
func (s *Store) Dim() int { return s.parts[0].multi.Store().Dim() }

// shardOf routes a global id to its owning shard and local id.
func (s *Store) shardOf(gid uint32) (shardIdx int, local uint32) {
	n := uint32(len(s.parts))
	return int(gid % n), gid / n
}

// globalID is the inverse mapping: the global id of a shard-local id.
func (s *Store) globalID(shardIdx int, local uint32) uint32 {
	return local*uint32(len(s.parts)) + uint32(shardIdx)
}

// globalize rewrites a shard's local ids to global ids in place.
func (s *Store) globalize(ids []uint32, shardIdx int) []uint32 {
	n, off := uint32(len(s.parts)), uint32(shardIdx)
	for i, id := range ids {
		ids[i] = id*n + off
	}
	return ids
}

// scatter runs fn once per shard on a worker pool bounded by the
// store's fanout, returning the first error. A single-shard store
// runs inline — no goroutine, no pool.
func (s *Store) scatter(fn func(shardIdx int) error) error {
	if len(s.parts) == 1 {
		return fn(0)
	}
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

// Len returns the number of live points across all shards.
func (s *Store) Len() int {
	total := 0
	for _, p := range s.parts {
		p.mu.RLock()
		total += p.multi.Store().Len()
		p.mu.RUnlock()
	}
	return total
}

// NumIndexes returns the number of planar indexes per shard (every
// shard holds the same index configuration).
func (s *Store) NumIndexes() int {
	p := s.parts[0]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.NumIndexes()
}

// MemoryBytes returns the approximate footprint of all shards.
func (s *Store) MemoryBytes() int {
	total := 0
	for _, p := range s.parts {
		p.mu.RLock()
		total += p.multi.MemoryBytes()
		p.mu.RUnlock()
	}
	return total
}

// PlanCacheCounters sums every shard's plan-cache hit and miss
// counts.
func (s *Store) PlanCacheCounters() (hits, misses uint64) {
	for _, p := range s.parts {
		h, m := p.multi.PlanCacheCounters()
		hits += h
		misses += m
	}
	return hits, misses
}

// Live reports whether a global id names a live point.
func (s *Store) Live(gid uint32) bool {
	si, local := s.shardOf(gid)
	p := s.parts[si]
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.Store().Live(local)
}

// Vector returns a copy of a live point's φ vector.
func (s *Store) Vector(gid uint32) ([]float64, error) {
	si, local := s.shardOf(gid)
	p := s.parts[si]
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.multi.Store().Live(local) {
		return nil, fmt.Errorf("shard: point %d is not live", gid)
	}
	return vecmath.Clone(p.multi.Store().Vector(local)), nil
}

// Append adds a point to the next shard in round-robin order and
// returns its global id. For an append-only stream the assigned ids
// are the dense sequence 0, 1, 2, … — identical to an unsharded
// store; after removals each shard recycles its own local ids, so
// ids stay unique and stable but the exact values may differ from an
// unsharded store's recycling order.
func (s *Store) Append(v []float64) (uint32, error) {
	si := int(s.rr.Add(1)-1) % len(s.parts)
	local, err := s.parts[si].append(v)
	if err != nil {
		return 0, err
	}
	return s.globalID(si, local), nil
}

// NextAppendLane returns the shard the next append routes to, drawing
// from the same round-robin counter as Append — the grouped and
// synchronous write paths assign points to shards in the same order,
// which is what makes them produce identical stores.
func (s *Store) NextAppendLane() int {
	return int(s.rr.Add(1)-1) % len(s.parts)
}

// LaneOf returns the shard owning a global id — the ingest lane its
// updates and removes must ride so same-key operations commit in
// submission order.
func (s *Store) LaneOf(gid uint32) int {
	si, _ := s.shardOf(gid)
	return si
}

// CommitBatch group-commits one ingest batch on shard lane: apply
// under one shard-lock acquisition, journal as one WAL frame with one
// fsync, allocate a contiguous LSN range. Intent and result ids are
// global; a mis-routed intent (wrong lane for its id) fails scoped to
// its own result.
func (s *Store) CommitBatch(lane int, intents []ingest.Intent, results []ingest.Result) error {
	local := make([]ingest.Intent, len(intents))
	for i, in := range intents {
		if wal.Op(in.Op) != wal.OpAppend {
			si, lid := s.shardOf(in.ID)
			if si != lane {
				results[i] = ingest.Result{Err: fmt.Errorf("shard: point %d belongs to shard %d, batch is on lane %d", in.ID, si, lane)}
			}
			in.ID = lid
		}
		local[i] = in
	}
	return s.parts[lane].commitBatch(local, results)
}

// Update replaces a point's φ vector on its owning shard.
func (s *Store) Update(gid uint32, v []float64) error {
	si, local := s.shardOf(gid)
	if err := s.parts[si].update(local, v); err != nil {
		return fmt.Errorf("shard %d: point %d: %w", si, gid, err)
	}
	return nil
}

// Remove deletes a point from its owning shard.
func (s *Store) Remove(gid uint32) error {
	si, local := s.shardOf(gid)
	if err := s.parts[si].remove(local); err != nil {
		return fmt.Errorf("shard %d: point %d: %w", si, gid, err)
	}
	return nil
}

// AddNormal installs a planar index on every shard (shards must share
// one index configuration for scatter-gather plans to be comparable).
// It reports whether an index was added.
func (s *Store) AddNormal(normal []float64, signs vecmath.SignPattern) (bool, error) {
	added := false
	for i, p := range s.parts {
		ok, err := p.addNormal(normal, signs)
		if err != nil {
			return false, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			added = ok
		}
	}
	return added, nil
}

// gatherBufs is the pooled per-query scratch of a scatter-gather:
// one id slot and one stats slot per shard. Pooling it keeps the
// scatter overhead of Query and Count off the allocator; the merged
// result is the only allocation that escapes to the caller.
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
		g.ids[i] = nil
		g.sts[i] = core.Stats{}
		g.counts[i] = 0
	}
	return g
}

func putGather(g *gatherBufs) { gatherPool.Put(g) }

// Query answers an inequality query scatter-gather: planned once per
// shard, executed concurrently, ids merged in ascending global id
// order with the per-stage stats rolled up.
func (s *Store) Query(q core.Query) ([]uint32, core.Stats, error) {
	g := getGather(len(s.parts))
	defer putGather(g)
	err := s.scatter(func(i int) error {
		p := s.parts[i]
		p.mu.RLock()
		defer p.mu.RUnlock()
		lids, st, err := p.multi.InequalityIDs(q)
		if err != nil {
			return err
		}
		g.ids[i] = s.globalize(lids, i)
		g.sts[i] = st
		return nil
	})
	if err != nil {
		return nil, core.Stats{}, err
	}
	return mergeIDs(g.ids), MergeStats(g.sts), nil
}

// QueryBatch answers one inequality query per threshold, sharing a
// single plan per shard across the batch.
func (s *Store) QueryBatch(a []float64, op core.Op, bs []float64) ([][]uint32, []core.Stats, error) {
	ids := make([][][]uint32, len(s.parts)) // [shard][threshold]
	sts := make([][]core.Stats, len(s.parts))
	err := s.scatter(func(i int) error {
		p := s.parts[i]
		p.mu.RLock()
		defer p.mu.RUnlock()
		lids, lsts, err := p.multi.InequalityBatch(a, op, bs)
		if err != nil {
			return err
		}
		for t := range lids {
			lids[t] = s.globalize(lids[t], i)
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
		outIDs[t] = mergeIDs(perShard)
		outSts[t] = MergeStats(perStats)
	}
	return outIDs, outSts, nil
}

// TopK answers a top-k nearest-to-hyperplane query scatter-gather:
// each shard runs the pipeline's descending smaller-interval walk
// with the Claim-3 cut-off locally, then the per-shard answers are
// k-way merged on (distance, id).
func (s *Store) TopK(q core.Query, k int) ([]core.Result, core.Stats, error) {
	res := make([][]core.Result, len(s.parts))
	sts := make([]core.Stats, len(s.parts))
	err := s.scatter(func(i int) error {
		p := s.parts[i]
		p.mu.RLock()
		defer p.mu.RUnlock()
		rs, st, err := p.multi.TopK(q, k)
		if err != nil {
			return err
		}
		for j := range rs {
			rs[j].ID = s.globalID(i, rs[j].ID)
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
	g := getGather(len(s.parts))
	defer putGather(g)
	err := s.scatter(func(i int) error {
		p := s.parts[i]
		p.mu.RLock()
		defer p.mu.RUnlock()
		n, st, err := p.multi.Count(q)
		if err != nil {
			return err
		}
		g.counts[i], g.sts[i] = n, st
		return nil
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
	los := make([]int, len(s.parts))
	his := make([]int, len(s.parts))
	err = s.scatter(func(i int) error {
		p := s.parts[i]
		p.mu.RLock()
		defer p.mu.RUnlock()
		plo, phi, err := p.multi.SelectivityBounds(q)
		if err != nil {
			return err
		}
		los[i], his[i] = plo, phi
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	for i := range los {
		lo += los[i]
		hi += his[i]
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
	var out core.Plan
	for i, p := range s.parts {
		p.mu.RLock()
		pl, err := p.multi.Explain(q)
		p.mu.RUnlock()
		if err != nil {
			return core.Plan{}, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			out = pl
			out.Reason = fmt.Sprintf("scatter-gather over %d shards: %s", len(s.parts), pl.Reason)
			continue
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
	si, local := s.shardOf(rec.ID)
	if err := s.parts[si].applyReplicated(rec, local); err != nil {
		return fmt.Errorf("shard %d: %w", si, err)
	}
	return nil
}

// CaptureAll snapshots every shard's in-memory state. The caller must
// have drained writers (service holds its commit barrier), so the
// per-shard snapshots are mutually consistent at the current LSN.
func (s *Store) CaptureAll() []*codec.Snapshot {
	snaps := make([]*codec.Snapshot, len(s.parts))
	for i, p := range s.parts {
		snaps[i] = p.capture()
	}
	return snaps
}

// FeedFromDisk serves catch-up replication reads that have fallen off
// the in-memory ring: it flushes every shard's WAL buffer, scans the
// segments for records at or past from, rewrites local ids to global
// ids, and k-way merges by LSN. tooOld reports that the segments no
// longer cover from (a checkpoint truncated them) — the replica must
// re-bootstrap from a snapshot.
func (s *Store) FeedFromDisk(from uint64, max int) (recs []wal.Record, tooOld bool, err error) {
	if s.dir == "" {
		return nil, true, nil // ephemeral: ring is the only history
	}
	for _, p := range s.parts {
		if err := p.flushLog(); err != nil {
			return nil, false, err
		}
	}
	var merged []wal.Record
	for i := range s.parts {
		n, idx := uint32(len(s.parts)), uint32(i)
		part, err := replog.ReadSegmentFrom(
			filepath.Join(shardDir(s.dir, i), walFile), from, max,
			func(local uint32) uint32 { return local*n + idx },
		)
		if err != nil {
			return nil, false, fmt.Errorf("shard %d: %w", i, err)
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
	return s.parts[0].pstore != nil
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
// after its checkpoint filter.
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
		if err := s.parts[i].checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
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
