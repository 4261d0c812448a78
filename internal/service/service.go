// Package service is the durable scalar-product store a downstream
// application embeds or exposes over HTTP (cmd/planarserve). The
// engine underneath is always an internal/shard Store — N hash
// partitions, each with its own index collection, checkpoint file
// (a CRC-checked snapshot or a page file, package codec) and
// write-ahead log (package wal); opening a directory restores each
// partition's checkpoint and replays its log. The default, unsharded
// store is the N = 1 case: one partition rooted at the directory
// itself, its answers handed back untouched. Options.Shards > 1 lays
// a fresh directory out partitioned; an existing directory reopens
// with the layout it was created with, and the two are not
// convertible in place.
//
// What this package adds to the engine is the service's own job: the
// public mutation surface with its read-only guard, the group-commit
// ingest pipeline, pacing, and the query metrics rollup. It adds no
// lock: a consistent replication snapshot is the store's own cut
// (shard.Store.Capture).
package service

import (
	"errors"
	"sync/atomic"
	"time"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/replog"
	"planar/internal/shard"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

// ErrReadOnly reports a mutation attempted on a read-only store — a
// replica applying a primary's log accepts writes only through the
// replication stream (httpapi rejects or proxies them upstream).
var ErrReadOnly = errors.New("service: store is read-only (replica)")

// ErrClosed reports a write, checkpoint or query against a closed
// store, whichever route the write took (the HTTP layer answers 503).
var ErrClosed = shard.ErrClosed

const (
	// minMutation and minPagedMutation are the pacing floors: the
	// least time a synchronous Append, Update or Remove takes on the
	// RAM and on the paged tier (see DB.pace).
	minMutation      = 10 * time.Microsecond
	minPagedMutation = 28 * time.Microsecond
)

// Options configures a DB.
type Options struct {
	// Dim is the φ dimensionality; required when creating a fresh
	// directory, validated against the snapshot otherwise.
	Dim int
	// Shards hash-partitions a fresh store's points across this many
	// shards, each with its own indexes, checkpoint file and WAL
	// segment in a sub-directory (see internal/shard). 0 or 1 keeps
	// one partition, whose files sit in the directory itself. A
	// directory created sharded reopens sharded regardless; the stored
	// count is validated against a non-zero Shards.
	Shards int
	// SyncEveryWrite fsyncs the log after each mutation (durable but
	// slower). Off by default: the log is synced on Checkpoint and
	// Close.
	SyncEveryWrite bool
	// CheckpointEvery triggers an automatic checkpoint after this
	// many logged mutations (0 disables automatic checkpoints). The
	// counter is per shard.
	CheckpointEvery int
	// Paged selects the disk-paged storage tier: state lives in a
	// copy-on-write page file ("pages.plnr") instead of a flat
	// snapshot, and after a restart index trees run in paged-arena
	// mode, faulting node pages through a cache on demand rather than
	// being rebuilt with an O(n log n) bulk load. A directory that
	// already holds a page file reopens paged regardless; the two
	// layouts are not convertible in place.
	Paged bool
	// PageCacheBytes sizes the paged tier's page cache (0 = a 64 MiB
	// default; a small floor is always enforced). The budget is split
	// evenly across shards.
	PageCacheBytes int
	// IngestBatch enables the asynchronous group-commit write pipeline
	// (internal/ingest): up to this many mutations apply under one
	// lock acquisition and journal as one WAL frame with one fsync.
	// 0 (the default) keeps the synchronous per-mutation write path.
	// Grouped commits always fsync before acking, superseding
	// SyncEveryWrite on the grouped path.
	IngestBatch int
	// IngestBlock selects backpressure mode for a full queue (one per
	// shard, holding 4×IngestBatch mutations): block the submitter
	// (true) or shed with ErrBackpressure (false, the default — the
	// HTTP layer answers 429).
	IngestBlock bool
}

// DB is a durable planar index store: a shard.Store plus the
// service's own concerns. The store's locks are the only ones (one
// RWMutex per partition and the sequencer's, in that order): a
// mutation or checkpoint holds its partition's exclusively, and a
// query, a count or a replication capture holds every partition's
// read lock, so it sees the store at one LSN. DB adds none above
// them.
type DB struct {
	store *shard.Store // never nil

	// seq is the store's commit sequencer: it assigns LSNs, orders
	// journal appends, and retains the in-memory replication tail.
	// readOnly guards the public mutation surface on replicas; the
	// replication apply path bypasses it.
	seq      *replog.Sequencer
	readOnly atomic.Bool

	// pipe is the group-commit ingest pipeline (nil when
	// Options.IngestBatch is 0 — the synchronous write path).
	pipe *ingest.Pipeline

	// floor is the pacing floor of this store's tier, fixed at Open.
	floor time.Duration

	met metricsBlock
}

// Metrics aggregates execution-pipeline stats across every query
// answered through the DB's query methods — the per-process rollup of
// the per-query core.Stats. A scatter-gather query counts once, with
// its per-shard stats already merged.
type Metrics struct {
	// Queries is the number of pipeline runs recorded.
	Queries uint64
	// PlanNanos and ExecNanos are cumulative stage times.
	PlanNanos int64
	ExecNanos int64
	// FellBack counts queries answered by a sequential scan.
	FellBack uint64
	// PointsPruned and PointsVerified are cumulative interval sizes:
	// pruned points never had their scalar product computed.
	PointsPruned   uint64
	PointsVerified uint64
}

// metricsBlock is the rollup's storage: per-counter atomics instead
// of one mutex, so every query on every core can record its stats
// without serializing on a shared lock (the rollup was a measurable
// contention point at high read concurrency). A snapshot may tear
// across counters by a query or two, which a monitoring rollup
// tolerates.
type metricsBlock struct {
	queries   atomic.Uint64
	planNanos atomic.Int64
	execNanos atomic.Int64
	fellBack  atomic.Uint64
	pruned    atomic.Uint64
	verified  atomic.Uint64
}

// record folds one query's stats into the rollup.
func (db *DB) record(st core.Stats) {
	db.met.queries.Add(1)
	db.met.planNanos.Add(st.PlanNanos)
	db.met.execNanos.Add(st.ExecNanos)
	if st.FellBack {
		db.met.fellBack.Add(1)
	}
	db.met.pruned.Add(uint64(st.Accepted + st.Rejected))
	db.met.verified.Add(uint64(st.Verified))
}

// Metrics returns a snapshot of the cumulative query metrics.
func (db *DB) Metrics() Metrics {
	return Metrics{
		Queries:        db.met.queries.Load(),
		PlanNanos:      db.met.planNanos.Load(),
		ExecNanos:      db.met.execNanos.Load(),
		FellBack:       db.met.fellBack.Load(),
		PointsPruned:   db.met.pruned.Load(),
		PointsVerified: db.met.verified.Load(),
	}
}

// Query answers an inequality query into a fresh slice, recording
// pipeline metrics. A sharded store returns the ids in ascending
// global id order, an unsharded one in its index's own order.
func (db *DB) Query(q core.Query) ([]uint32, core.Stats, error) {
	return db.AppendQuery(nil, q)
}

// AppendQuery is Query appending the answer to dst, which it returns
// extended as append does: a caller that hands the returned slice
// back, cut to [:0], reuses one buffer across queries.
func (db *DB) AppendQuery(dst []uint32, q core.Query) ([]uint32, core.Stats, error) {
	ids, st, err := db.store.AppendQuery(dst, q)
	if err == nil {
		db.record(st)
	}
	return ids, st, err
}

// QueryBatch answers one inequality query per threshold, sharing a
// single plan across the batch (see core.Multi.InequalityBatch).
func (db *DB) QueryBatch(a []float64, op core.Op, bs []float64) ([][]uint32, []core.Stats, error) {
	ids, sts, err := db.store.QueryBatch(a, op, bs)
	if err == nil {
		for _, st := range sts {
			db.record(st)
		}
	}
	return ids, sts, err
}

// TopK answers a top-k nearest-to-hyperplane query, recording
// pipeline metrics.
func (db *DB) TopK(q core.Query, k int) ([]core.Result, core.Stats, error) {
	res, st, err := db.store.TopK(q, k)
	if err == nil {
		db.record(st)
	}
	return res, st, err
}

// Count answers an exact COUNT(*), recording pipeline metrics.
func (db *DB) Count(q core.Query) (int, core.Stats, error) {
	n, st, err := db.store.Count(q)
	if err == nil {
		db.record(st)
	}
	return n, st, err
}

// SelectivityBounds returns guaranteed cardinality bounds
// lo ≤ |answer| ≤ hi without computing a scalar product: the sum of
// the per-shard bounds (each shard's answer is individually
// bracketed).
func (db *DB) SelectivityBounds(q core.Query) (lo, hi int, err error) {
	return db.store.SelectivityBounds(q)
}

// Explain returns the execution plan for q without touching data;
// interval sizes and bounds aggregate across shards.
func (db *DB) Explain(q core.Query) (core.Plan, error) { return db.store.Explain(q) }

// Open restores (or initialises) a DB in dir. Layout, recovery and
// the option defaults are shard.Open's.
func Open(dir string, opts Options) (*DB, error) {
	if dir == "" {
		return nil, errors.New("service: empty directory")
	}
	st, err := shard.Open(dir, shard.Options{
		Shards:          opts.Shards,
		Dim:             opts.Dim,
		SyncEveryWrite:  opts.SyncEveryWrite,
		CheckpointEvery: opts.CheckpointEvery,
		Paged:           opts.Paged,
		PageCacheBytes:  opts.PageCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{store: st, seq: st.Seq(), floor: minMutation}
	if st.Paged() {
		db.floor = minPagedMutation
	}
	if err := db.startIngest(opts); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

// Multi exposes the underlying index collection of an unsharded
// store. It returns nil on a sharded one — use the DB-level accessors
// (Len, Dim, NumIndexes, MemoryBytes, SelectivityBounds, …), which
// work for any shard count.
func (db *DB) Multi() *core.Multi { return db.store.Multi() }

// Shards returns the number of hash partitions (1 when unsharded).
func (db *DB) Shards() int { return db.store.NumShards() }

// Dim returns the φ dimensionality.
func (db *DB) Dim() int { return db.store.Dim() }

// Len returns the number of live points.
func (db *DB) Len() int { return db.store.Len() }

// NumIndexes returns the number of planar indexes (per shard — every
// shard holds the same configuration).
func (db *DB) NumIndexes() int { return db.store.NumIndexes() }

// MemoryBytes returns the approximate footprint of the store and
// indexes, summed across shards.
func (db *DB) MemoryBytes() int { return db.store.MemoryBytes() }

// AddNormal installs a planar index (on every shard); the
// configuration is persisted at the next checkpoint. Index changes
// are not journaled, so they reach replicas only through a snapshot
// bootstrap — query answers do not depend on indexes, only query
// speed, so replicated results stay identical either way.
func (db *DB) AddNormal(normal []float64, signs vecmath.SignPattern) (bool, error) {
	if db.readOnly.Load() {
		return false, ErrReadOnly
	}
	return db.store.AddNormal(normal, signs)
}

// pace holds a directly committed mutation that began at start until
// the tier's floor has passed, spinning (the wait is shorter than any
// sleep) after every lock has been released — write defers it first.
// What a mutation costs on its own depends on where the tree leaves it
// touches sit between the core's cache and DRAM (about 2 µs hot, 4 µs
// and more cold on the RAM tier; 10 to 60 µs with page faults on the
// paged tier), and on a shared host that moves by a third from one
// minute to the next. Under the floor the acknowledged duration is
// the same whichever it was. The floor is a throughput cost taken on
// purpose, per writer, not a lock: concurrent writers wait side by
// side, and the group-commit path is not paced. It is temporary:
// DESIGN.md §13 says what it is there for and what removing it takes.
func (db *DB) pace(start time.Time) {
	for time.Since(start) < db.floor {
	}
}

// write is the one route a public mutation takes: refused on a
// read-only store; handed to the ingest pipeline when there is one,
// which resolves the returned future after the batch's fsync; otherwise
// committed here and paced, the future nil and the result — which
// carries any error — final on return. A closed store refuses on
// either route with ErrClosed.
func (db *DB) write(op wal.Op, id uint32, v []float64) (*ingest.Future, ingest.Result) {
	if db.readOnly.Load() {
		return nil, ingest.Result{Err: ErrReadOnly}
	}
	if db.pipe != nil {
		lane := db.store.LaneOf(id)
		if op == wal.OpAppend {
			lane = db.store.NextAppendLane()
		}
		f, err := db.pipe.Submit(lane, ingest.Intent{Op: uint8(op), ID: id, Vec: v})
		if errors.Is(err, ingest.ErrClosed) {
			err = ErrClosed
		}
		return f, ingest.Result{Err: err}
	}
	defer db.pace(time.Now())
	res := ingest.Result{ID: id}
	switch op {
	case wal.OpAppend:
		res.ID, res.LSN, res.Err = db.store.Append(v)
	case wal.OpUpdate:
		res.LSN, res.Err = db.store.Update(id, v)
	case wal.OpRemove:
		res.LSN, res.Err = db.store.Remove(id)
	}
	return nil, res
}

// settled waits out a pipelined write; a direct one is already final.
func settled(f *ingest.Future, res ingest.Result) ingest.Result {
	if f != nil {
		return f.Wait()
	}
	return res
}

// Append durably adds a point and returns its id. With the ingest
// pipeline enabled the write group-commits: it is acked after the
// fsync of the batch frame holding it.
func (db *DB) Append(v []float64) (uint32, error) {
	res := settled(db.write(wal.OpAppend, 0, v))
	return res.ID, res.Err
}

// Update durably replaces a point's φ vector.
func (db *DB) Update(id uint32, v []float64) error {
	return settled(db.write(wal.OpUpdate, id, v)).Err
}

// Remove durably deletes a point.
func (db *DB) Remove(id uint32) error {
	return settled(db.write(wal.OpRemove, id, nil)).Err
}

// Checkpoint makes every shard's state durable in its checkpoint file
// (a fresh snapshot written atomically, or an incremental page-file
// commit on the paged tier) and truncates its log; shards checkpoint
// in parallel.
func (db *DB) Checkpoint() error { return db.store.Checkpoint() }

// Close flushes the logs and releases the DB. It does not checkpoint;
// the logs are replayed on the next Open. An active ingest pipeline
// is drained first — every queued intent commits and resolves its
// future before the logs close, so an acked write is never dropped.
// Every write, checkpoint and query after Close fails with ErrClosed.
func (db *DB) Close() error {
	if db.pipe != nil {
		db.pipe.Close()
	}
	return db.store.Close()
}

// Paged reports whether the DB runs on the disk-paged storage tier.
func (db *DB) Paged() bool { return db.store.Paged() }

// PageStats returns the paged tier's cache and file counters, summed
// across shards. ok is false when the DB runs on the flat-snapshot
// tier.
func (db *DB) PageStats() (st codec.PageTierStats, ok bool) { return db.store.PageStats() }

// ReplayedRecords returns how many WAL records Open applied after the
// checkpoint filter — the restart-cost observability hook (paged mode
// replays only post-checkpoint entries), summed across shards.
func (db *DB) ReplayedRecords() int { return db.store.ReplayedRecords() }
