// Package service combines the planar index collection with
// durability: a directory holds a CRC-checked snapshot (package
// codec) plus a write-ahead log of point mutations (package wal).
// Opening the directory restores the snapshot, replays the log, and
// rebuilds the indexes, giving a crash-safe dynamic scalar-product
// store a downstream application can embed or expose over HTTP
// (cmd/planarserve).
//
// A DB runs in one of two modes. Single mode (the default) keeps one
// Multi, one snapshot and one log in the directory root. Sharded mode
// (Options.Shards > 1, or a directory that was created sharded)
// delegates to internal/shard: points are hash-partitioned across N
// shards, each with its own Multi, snapshot and WAL segment, queries
// run scatter-gather, and mutations lock only the owning shard. A
// sharded directory reopens sharded automatically; the two layouts
// are not convertible in place.
package service

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/pager"
	"planar/internal/replog"
	"planar/internal/shard"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

// ErrReadOnly reports a mutation attempted on a read-only store — a
// replica applying a primary's log accepts writes only through the
// replication stream (httpapi rejects or proxies them upstream).
var ErrReadOnly = errors.New("service: store is read-only (replica)")

const (
	snapshotFile = "snapshot.plnr"
	walFile      = "wal.log"
	pagesFile    = "pages.plnr"

	// defaultPageCacheBytes sizes the paged tier's cache when the
	// options leave it unset (64 MiB).
	defaultPageCacheBytes = 64 << 20

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
	// Shards enables sharded mode: points are hash-partitioned across
	// this many shards, each with its own indexes, snapshot and WAL
	// segment (see internal/shard). 0 or 1 keeps the single-store
	// layout. A directory created sharded reopens sharded regardless;
	// the stored count is validated against a non-zero Shards.
	Shards int
	// SyncEveryWrite fsyncs the log after each mutation (durable but
	// slower). Off by default: the log is synced on Checkpoint and
	// Close.
	SyncEveryWrite bool
	// CheckpointEvery triggers an automatic checkpoint after this
	// many logged mutations (0 disables automatic checkpoints). In
	// sharded mode the counter is per shard.
	CheckpointEvery int
	// RingSize bounds the in-memory tail of committed records kept
	// for replication streaming (0 = replog.DefaultRingSize).
	RingSize int
	// Paged selects the disk-paged storage tier: state lives in a
	// copy-on-write page file ("pages.plnr") instead of a flat
	// snapshot, and after a restart index trees run in paged-arena
	// mode, faulting node pages through a cache on demand rather than
	// being rebuilt with an O(n log n) bulk load. A directory that
	// already holds a page file reopens paged regardless; the two
	// layouts are not convertible in place.
	Paged bool
	// PageCacheBytes sizes the paged tier's page cache (0 = a 64 MiB
	// default; a small floor is always enforced). In sharded mode the
	// budget is split evenly across shards.
	PageCacheBytes int
	// WritebackInterval is the paged tier's background writer cadence
	// (0 = a 25ms default). The writer shadow-flushes dirty tree
	// pages between checkpoints so they become clean and evictable,
	// keeping the cache's resident set bounded under write pressure.
	WritebackInterval time.Duration
	// WritebackBatchPages bounds pages flushed per writer round
	// (0 = 128).
	WritebackBatchPages int
	// DisableWriteback turns the background writer off: dirty frames
	// then stay resident until the next checkpoint flushes them (the
	// pre-writeback behaviour; checkpoints also lose their
	// drain-ahead and flush the whole delta under the write lock).
	DisableWriteback bool
	// FullCheckpoints forces every paged checkpoint to rewrite the
	// complete store page set instead of just the delta since the
	// last one — the measurement baseline and an escape hatch.
	FullCheckpoints bool
	// IngestBatch enables the asynchronous group-commit write pipeline
	// (internal/ingest): up to this many mutations apply under one
	// lock acquisition and journal as one WAL frame with one fsync.
	// 0 (the default) keeps the synchronous per-mutation write path.
	// Grouped commits always fsync before acking, superseding
	// SyncEveryWrite on the grouped path.
	IngestBatch int
	// IngestFlushInterval bounds how long the first mutation of a
	// batch waits for the batch to fill (0 = a 2ms default). It is the
	// ack-latency ceiling under light load.
	IngestFlushInterval time.Duration
	// IngestQueueDepth is the per-lane submission ring capacity
	// (0 = 4×IngestBatch).
	IngestQueueDepth int
	// IngestBlock selects backpressure mode for a full ring: block the
	// submitter (true) or shed with ErrBackpressure (false, the
	// default — the HTTP layer answers 429).
	IngestBlock bool
	// Multi options (selection heuristic, fallback, guard band).
	MultiOptions []core.MultiOption
}

// DB is a durable planar index store.
//
// The mode determines which fields are set: single mode uses multi
// and log; sharded mode uses shards. mu is the single-mode lock:
// query paths hold it for reading, so concurrent readers proceed in
// parallel, while mutations, checkpoints and Close hold it
// exclusively (the WAL append and the in-memory apply must be atomic
// with respect to each other). Sharded mode has a finer-grained lock
// per shard inside the shard.Store and does not take mu at all.
type DB struct {
	mu      sync.RWMutex
	dir     string
	opts    Options
	multi   *core.Multi
	log     *wal.Writer // guarded by mu
	pending int         // guarded by mu; mutations since the last checkpoint

	// pstore is the paged tier's checkpoint file (nil in snapshot
	// mode); replayed counts WAL records applied at Open after the
	// checkpoint-LSN filter.
	pstore   *codec.PagedStore // guarded by mu
	replayed int

	shards *shard.Store // non-nil in sharded mode

	// seq is the commit sequencer: it assigns LSNs, orders journal
	// appends, and retains the in-memory replication tail. In sharded
	// mode it is the shard.Store's sequencer; commitMu lets
	// CaptureState drain every in-flight commit (writers hold the
	// read side for the whole apply+journal) so a replication
	// snapshot is consistent at one LSN. readOnly guards the public
	// mutation surface on replicas; the replication apply path
	// bypasses it.
	seq      *replog.Sequencer
	commitMu sync.RWMutex
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
// the per-query core.Stats. In sharded mode each scatter-gather query
// counts once, with its per-shard stats already merged.
type Metrics struct {
	// Queries is the number of pipeline runs recorded.
	Queries uint64
	// PlanNanos and ExecNanos are cumulative stage times.
	PlanNanos int64
	ExecNanos int64
	// CacheHits counts queries whose index selection came from the
	// plan cache.
	CacheHits uint64
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
	cacheHits atomic.Uint64
	fellBack  atomic.Uint64
	pruned    atomic.Uint64
	verified  atomic.Uint64
}

// record folds one query's stats into the rollup.
func (db *DB) record(st core.Stats) {
	db.met.queries.Add(1)
	db.met.planNanos.Add(st.PlanNanos)
	db.met.execNanos.Add(st.ExecNanos)
	if st.CacheHit {
		db.met.cacheHits.Add(1)
	}
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
		CacheHits:      db.met.cacheHits.Load(),
		FellBack:       db.met.fellBack.Load(),
		PointsPruned:   db.met.pruned.Load(),
		PointsVerified: db.met.verified.Load(),
	}
}

// Query answers an inequality query, recording pipeline metrics. In
// sharded mode the ids come back in ascending global id order.
func (db *DB) Query(q core.Query) ([]uint32, core.Stats, error) {
	var (
		ids []uint32
		st  core.Stats
		err error
	)
	if db.shards != nil {
		ids, st, err = db.shards.Query(q)
	} else {
		db.mu.RLock()
		ids, st, err = db.multi.InequalityIDs(q)
		db.mu.RUnlock()
	}
	if err == nil {
		db.record(st)
	}
	return ids, st, err
}

// QueryBatch answers one inequality query per threshold, sharing a
// single plan across the batch (see core.Multi.InequalityBatch).
func (db *DB) QueryBatch(a []float64, op core.Op, bs []float64) ([][]uint32, []core.Stats, error) {
	var (
		ids [][]uint32
		sts []core.Stats
		err error
	)
	if db.shards != nil {
		ids, sts, err = db.shards.QueryBatch(a, op, bs)
	} else {
		db.mu.RLock()
		ids, sts, err = db.multi.InequalityBatch(a, op, bs)
		db.mu.RUnlock()
	}
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
	var (
		res []core.Result
		st  core.Stats
		err error
	)
	if db.shards != nil {
		res, st, err = db.shards.TopK(q, k)
	} else {
		db.mu.RLock()
		res, st, err = db.multi.TopK(q, k)
		db.mu.RUnlock()
	}
	if err == nil {
		db.record(st)
	}
	return res, st, err
}

// Count answers an exact COUNT(*), recording pipeline metrics.
func (db *DB) Count(q core.Query) (int, core.Stats, error) {
	var (
		n   int
		st  core.Stats
		err error
	)
	if db.shards != nil {
		n, st, err = db.shards.Count(q)
	} else {
		db.mu.RLock()
		n, st, err = db.multi.Count(q)
		db.mu.RUnlock()
	}
	if err == nil {
		db.record(st)
	}
	return n, st, err
}

// SelectivityBounds returns guaranteed cardinality bounds
// lo ≤ |answer| ≤ hi without computing a scalar product. In sharded
// mode the per-shard bounds are summed (each shard's answer is
// individually bracketed).
func (db *DB) SelectivityBounds(q core.Query) (lo, hi int, err error) {
	if db.shards != nil {
		return db.shards.SelectivityBounds(q)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.multi.SelectivityBounds(q)
}

// Explain returns the execution plan for q without touching data. In
// sharded mode interval sizes and bounds aggregate across shards.
func (db *DB) Explain(q core.Query) (core.Plan, error) {
	if db.shards != nil {
		return db.shards.Explain(q)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.multi.Explain(q)
}

// Open restores (or initialises) a DB in dir.
func Open(dir string, opts Options) (*DB, error) {
	if dir == "" {
		return nil, errors.New("service: empty directory")
	}
	if opts.Shards > 1 || shard.IsSharded(dir) {
		return openSharded(dir, opts)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, snapshotFile)
	walPath := filepath.Join(dir, walFile)
	pagePath := filepath.Join(dir, pagesFile)

	// A directory holding a page file reopens paged regardless of the
	// option, mirroring the sharded-layout auto-detection.
	_, pageStatErr := os.Stat(pagePath)
	paged := opts.Paged || pageStatErr == nil

	var (
		m      *core.Multi
		pstore *codec.PagedStore
		cpLSN  uint64 // WAL records at or below this are in the checkpoint
	)
	if paged {
		if _, err := os.Stat(snapPath); err == nil {
			return nil, errors.New("service: directory holds a flat snapshot; converting to the paged layout in place is not supported")
		}
		opts.Paged = true
		cacheBytes := opts.PageCacheBytes
		if cacheBytes <= 0 {
			cacheBytes = defaultPageCacheBytes
		}
		var err error
		if pageStatErr == nil {
			pstore, m, err = codec.OpenPaged(pagePath, cacheBytes, opts.MultiOptions...)
			if err != nil {
				return nil, err
			}
			if opts.Dim != 0 && opts.Dim != pstore.Dim() {
				pstore.Close()
				return nil, fmt.Errorf("service: page file dimension %d, options say %d", pstore.Dim(), opts.Dim)
			}
			opts.Dim = pstore.Dim()
			cpLSN = pstore.CheckpointLSN()
		} else {
			if opts.Dim <= 0 {
				return nil, errors.New("service: Dim required to create a fresh store")
			}
			if pstore, err = codec.CreatePaged(pagePath, opts.Dim, cacheBytes); err != nil {
				return nil, err
			}
			store, serr := core.NewPointStore(opts.Dim)
			if serr == nil {
				m, serr = core.NewMulti(store, opts.MultiOptions...)
			}
			if serr != nil {
				pstore.Close()
				return nil, serr
			}
		}
		if !opts.DisableWriteback {
			pstore.StartWriter(pager.WriterOptions{
				Interval:   opts.WritebackInterval,
				BatchPages: opts.WritebackBatchPages,
			}, m.WritebackIndexes)
		}
	} else if snap, err := codec.Load(snapPath); err == nil {
		if opts.Dim != 0 && opts.Dim != snap.Dim {
			return nil, fmt.Errorf("service: snapshot dimension %d, options say %d", snap.Dim, opts.Dim)
		}
		opts.Dim = snap.Dim
		m, err = snap.Restore(opts.MultiOptions...)
		if err != nil {
			return nil, err
		}
	} else if errors.Is(err, os.ErrNotExist) {
		if opts.Dim <= 0 {
			return nil, errors.New("service: Dim required to create a fresh store")
		}
		store, err := core.NewPointStore(opts.Dim)
		if err != nil {
			return nil, err
		}
		m, err = core.NewMulti(store, opts.MultiOptions...)
		if err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	// Replay mutations logged after the checkpoint. In snapshot mode
	// the checkpoint truncated the log, so everything in it applies; in
	// paged mode records at or below the checkpoint LSN are filtered
	// out (a crash between pager commit and log truncation leaves
	// them behind, already durable in the page file).
	applied := 0
	_, err := wal.Replay(walPath, func(r wal.Record) error {
		if paged && r.LSN != 0 && r.LSN <= cpLSN {
			return nil
		}
		applied++
		switch r.Op {
		case wal.OpAppend:
			id, err := m.Append(r.Vec)
			if err != nil {
				return err
			}
			if id != r.ID {
				return fmt.Errorf("service: replay assigned id %d, log says %d", id, r.ID)
			}
			return nil
		case wal.OpUpdate:
			return m.Update(r.ID, r.Vec)
		case wal.OpRemove:
			return m.Remove(r.ID)
		default:
			return fmt.Errorf("service: unknown op %d in log", r.Op)
		}
	})
	if err != nil {
		if pstore != nil {
			pstore.Close()
		}
		return nil, fmt.Errorf("service: replaying log: %w", err)
	}

	w, err := wal.Open(walPath, opts.Dim)
	if err != nil {
		if pstore != nil {
			pstore.Close()
		}
		return nil, err
	}
	if n := w.Recovered(); n > 0 {
		log.Printf("service: %s: recovered torn tail, truncated %d bytes", walPath, n)
	}
	db := &DB{
		dir: dir, opts: opts, multi: m, log: w, pending: applied,
		pstore: pstore, replayed: applied,
		seq:   replog.NewSequencer(w.NextLSN(), opts.RingSize, m.Store().Dim()),
		floor: minMutation,
	}
	if pstore != nil {
		db.floor = minPagedMutation
	}
	if err := db.startIngest(); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

// openSharded opens (or creates) the sharded layout. A directory
// holding a single-store snapshot cannot be resharded in place — the
// shard layout would silently shadow the existing data.
func openSharded(dir string, opts Options) (*DB, error) {
	if !shard.IsSharded(dir) {
		if _, err := os.Stat(filepath.Join(dir, snapshotFile)); err == nil {
			return nil, errors.New("service: directory holds a single-store snapshot; resharding in place is not supported")
		}
		if _, err := os.Stat(filepath.Join(dir, walFile)); err == nil {
			return nil, errors.New("service: directory holds a single-store log; resharding in place is not supported")
		}
		if _, err := os.Stat(filepath.Join(dir, pagesFile)); err == nil {
			return nil, errors.New("service: directory holds a single-store page file; resharding in place is not supported")
		}
	}
	st, err := shard.Open(dir, shard.Options{
		Shards:          opts.Shards,
		Dim:             opts.Dim,
		SyncEveryWrite:  opts.SyncEveryWrite,
		CheckpointEvery: opts.CheckpointEvery,
		RingSize:        opts.RingSize,
		Paged:           opts.Paged,
		PageCacheBytes:  opts.PageCacheBytes,
		MultiOptions:    opts.MultiOptions,

		WritebackInterval:   opts.WritebackInterval,
		WritebackBatchPages: opts.WritebackBatchPages,
		DisableWriteback:    opts.DisableWriteback,
		FullCheckpoints:     opts.FullCheckpoints,
	})
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, opts: opts, shards: st, seq: st.Seq(), floor: minMutation}
	if st.Paged() {
		db.floor = minPagedMutation
	}
	if err := db.startIngest(); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

// Multi exposes the underlying index collection in single mode. It
// returns nil in sharded mode — use the DB-level accessors (Len, Dim,
// NumIndexes, MemoryBytes, SelectivityBounds, …), which work in both
// modes.
func (db *DB) Multi() *core.Multi { return db.multi }

// Sharded reports whether the DB runs in sharded mode.
func (db *DB) Sharded() bool { return db.shards != nil }

// Shards returns the number of hash partitions (1 in single mode).
func (db *DB) Shards() int {
	if db.shards != nil {
		return db.shards.NumShards()
	}
	return 1
}

// Dim returns the φ dimensionality.
func (db *DB) Dim() int {
	if db.shards != nil {
		return db.shards.Dim()
	}
	return db.multi.Store().Dim()
}

// Len returns the number of live points.
func (db *DB) Len() int {
	if db.shards != nil {
		return db.shards.Len()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.multi.Store().Len()
}

// NumIndexes returns the number of planar indexes (per shard in
// sharded mode — every shard holds the same configuration).
func (db *DB) NumIndexes() int {
	if db.shards != nil {
		return db.shards.NumIndexes()
	}
	return db.multi.NumIndexes()
}

// MemoryBytes returns the approximate footprint of the store and
// indexes, summed across shards in sharded mode.
func (db *DB) MemoryBytes() int {
	if db.shards != nil {
		return db.shards.MemoryBytes()
	}
	return db.multi.MemoryBytes()
}

// PlanCacheCounters returns cumulative plan-cache hits and misses,
// summed across shards in sharded mode.
func (db *DB) PlanCacheCounters() (hits, misses uint64) {
	if db.shards != nil {
		return db.shards.PlanCacheCounters()
	}
	return db.multi.PlanCacheCounters()
}

// AddNormal installs a planar index (on every shard in sharded mode);
// the configuration is persisted at the next checkpoint. Index
// changes are not journaled, so they reach replicas only through a
// snapshot bootstrap — query answers do not depend on indexes, only
// query speed, so replicated results stay identical either way.
func (db *DB) AddNormal(normal []float64, signs vecmath.SignPattern) (bool, error) {
	if db.readOnly.Load() {
		return false, ErrReadOnly
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.shards != nil {
		return db.shards.AddNormal(normal, signs)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.multi.AddNormal(normal, signs)
}

// journal returns the commit callback appending the record to the
// single-mode log; it runs under the sequencer lock so log order
// matches LSN order. The callback touches db.log without taking db.mu
// because every caller invokes it from a mutation path that already
// holds mu exclusively (the apply and the append must be atomic).
//
//planar:locked
func (db *DB) journal(op wal.Op, id uint32, vec []float64) func(uint64) error {
	return func(lsn uint64) error {
		if err := db.log.Append(wal.Record{Op: op, LSN: lsn, ID: id, Vec: vec}); err != nil {
			return err
		}
		if db.opts.SyncEveryWrite {
			return db.log.Sync()
		}
		return nil
	}
}

// bumpLocked advances the pending-mutation counter and triggers the
// automatic checkpoint. Callers hold db.mu exclusively.
func (db *DB) bumpLocked() error {
	db.pending++
	if db.opts.CheckpointEvery > 0 && db.pending >= db.opts.CheckpointEvery {
		return db.checkpointLocked()
	}
	return nil
}

// pace holds a synchronous mutation that began at start until the
// tier's floor has passed, spinning (the wait is shorter than any
// sleep) after every lock has been released — callers defer it first.
// What a mutation costs on its own depends on where the tree leaves it
// touches sit between the core's cache and DRAM (about 2 µs hot, 4 µs
// and more cold on the RAM tier; 10 to 60 µs with page faults on the
// paged tier), and on a shared host that moves by a third from one
// minute to the next. Under the floor the acknowledged duration is
// the same whichever it was. The floor is a throughput cost taken on
// purpose, per writer, not a lock: concurrent writers wait side by
// side, and the group-commit path is not paced. It is temporary:
// DESIGN.md §13 says what it is there for and when it goes.
func (db *DB) pace(start time.Time) {
	for time.Since(start) < db.floor {
	}
}

// Append durably adds a point and returns its id. With the ingest
// pipeline enabled the write group-commits: it is acked after the
// fsync of the batch frame holding it.
func (db *DB) Append(v []float64) (uint32, error) {
	if db.readOnly.Load() {
		return 0, ErrReadOnly
	}
	if db.pipe != nil {
		f, err := db.AppendAsync(v)
		if err != nil {
			return 0, err
		}
		res := f.Wait()
		return res.ID, res.Err
	}
	defer db.pace(time.Now())
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.shards != nil {
		return db.shards.Append(v)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Apply first: the record carries the id the store assigned, and a
	// rejected vector never reaches the log.
	id, err := db.multi.Append(v)
	if err != nil {
		return 0, err
	}
	if _, err := db.seq.Commit(wal.OpAppend, id, v, db.journal(wal.OpAppend, id, v)); err != nil {
		return 0, err
	}
	return id, db.bumpLocked()
}

// Update durably replaces a point's φ vector.
func (db *DB) Update(id uint32, v []float64) error {
	if db.readOnly.Load() {
		return ErrReadOnly
	}
	if db.pipe != nil {
		f, err := db.UpdateAsync(id, v)
		if err != nil {
			return err
		}
		return f.Wait().Err
	}
	defer db.pace(time.Now())
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.shards != nil {
		return db.shards.Update(id, v)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.multi.Update(id, v); err != nil {
		return err
	}
	if _, err := db.seq.Commit(wal.OpUpdate, id, v, db.journal(wal.OpUpdate, id, v)); err != nil {
		return err
	}
	return db.bumpLocked()
}

// Remove durably deletes a point.
func (db *DB) Remove(id uint32) error {
	if db.readOnly.Load() {
		return ErrReadOnly
	}
	if db.pipe != nil {
		f, err := db.RemoveAsync(id)
		if err != nil {
			return err
		}
		return f.Wait().Err
	}
	defer db.pace(time.Now())
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	if db.shards != nil {
		return db.shards.Remove(id)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.multi.Remove(id); err != nil {
		return err
	}
	if _, err := db.seq.Commit(wal.OpRemove, id, nil, db.journal(wal.OpRemove, id, nil)); err != nil {
		return err
	}
	return db.bumpLocked()
}

// Checkpoint writes a fresh snapshot atomically (write-temp, sync,
// rename) and truncates the log. In sharded mode every shard
// checkpoints in parallel. On the paged tier the background writer is
// drained *before* the write lock is taken, so the locked section
// only flushes the pages dirtied in between — the stop-the-world
// window shrinks to the residual delta plus the fsync+superblock
// flip.
func (db *DB) Checkpoint() error {
	if db.shards != nil {
		return db.shards.Checkpoint()
	}
	db.mu.RLock()
	ps := db.pstore
	db.mu.RUnlock()
	if ps != nil {
		if err := ps.DrainWriteback(); err != nil {
			return err
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	if err := db.log.Sync(); err != nil {
		return err
	}
	if db.pstore != nil {
		// Paged tier: COW the data pages dirty rows touch, delta-flush
		// or dump every index tree, then one atomic pager commit
		// carrying the last assigned LSN — replay after a crash skips
		// records the checkpoint covers.
		cp := db.pstore.Checkpoint
		if db.opts.FullCheckpoints {
			cp = db.pstore.CheckpointFull
		}
		if err := cp(db.multi, db.seq.Next()-1); err != nil {
			return err
		}
	} else {
		if err := codec.Capture(db.multi).Save(filepath.Join(db.dir, snapshotFile)); err != nil {
			return err
		}
	}
	// The checkpoint covers everything: start a fresh log whose header
	// pins the LSN position across restarts.
	if err := db.log.Close(); err != nil {
		return err
	}
	w, err := wal.Create(filepath.Join(db.dir, walFile), db.multi.Store().Dim(), db.seq.Next())
	if err != nil {
		return err
	}
	db.log = w
	db.pending = 0
	return nil
}

// Close flushes the log and releases the DB. It does not checkpoint;
// the log is replayed on the next Open. An active ingest pipeline is
// drained first — every queued intent commits and resolves its future
// before the logs close, so an acked write is never dropped.
func (db *DB) Close() error {
	if db.pipe != nil {
		db.pipe.Close()
	}
	if db.shards != nil {
		return db.shards.Close()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.log == nil {
		return nil
	}
	err := db.log.Sync()
	if cerr := db.log.Close(); err == nil {
		err = cerr
	}
	db.log = nil
	if db.pstore != nil {
		// Dirty pages in the cache are deliberately dropped: they are
		// re-derived from the WAL on the next Open, and the page file's
		// durable state stays the last committed checkpoint.
		if cerr := db.pstore.Close(); err == nil {
			err = cerr
		}
		db.pstore = nil
	}
	return err
}

// Paged reports whether the DB runs on the disk-paged storage tier.
func (db *DB) Paged() bool {
	if db.shards != nil {
		return db.shards.Paged()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.pstore != nil
}

// PageStats returns the paged tier's cache and file counters, summed
// across shards in sharded mode. ok is false when the DB runs on the
// flat-snapshot tier.
func (db *DB) PageStats() (st codec.PageTierStats, ok bool) {
	if db.shards != nil {
		return db.shards.PageStats()
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.pstore == nil {
		return codec.PageTierStats{}, false
	}
	return db.pstore.Stats(), true
}

// ReplayedRecords returns how many WAL records Open applied after the
// checkpoint filter — the restart-cost observability hook (paged mode
// replays only post-checkpoint entries), summed across shards.
func (db *DB) ReplayedRecords() int {
	if db.shards != nil {
		return db.shards.ReplayedRecords()
	}
	return db.replayed
}
