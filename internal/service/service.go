package service

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/replog"
	"planar/internal/wal"
)

// ErrReadOnly reports a mutation attempted on a read-only store — a
// replica applying a primary's log accepts writes only through the
// replication stream (httpapi rejects or proxies them upstream).
var ErrReadOnly = errors.New("service: store is read-only (replica)")

// ErrClosed reports a write, checkpoint or query against a closed
// store, whichever route the write took (the HTTP layer answers 503).
var ErrClosed = errors.New("service: store is closed")

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
	// segment in a sub-directory (see layout). 0 or 1 keeps
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

// DB is a durable planar index store: a hash-partitioned collection
// of planar index shards with scatter-gather query execution. Global
// point ids are dense across the store: global id g lives on shard
// g mod N as local id g div N. An unsharded store is the N = 1 case,
// not a different thing: ids are the partition's own and every answer
// is the partition's own, returned untouched. Its locks are one
// RWMutex per partition and the sequencer's, in that order: a
// mutation or checkpoint holds its partition's exclusively, and a
// query, a count or a replication capture holds every partition's
// read lock (rlockAll), so it sees the store at one LSN. All methods
// are safe for concurrent use.
type DB struct {
	parts  []*partition
	fanout int           // scatter worker bound: min(N, GOMAXPROCS)
	rr     atomic.Uint64 // round-robin append cursor (nextAppendLane)

	// seq is the store-wide commit sequencer shared by every
	// partition: it assigns LSNs, orders journal appends, and retains
	// the in-memory replication tail. readOnly guards the public
	// mutation surface on replicas; the replication apply path
	// bypasses it.
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

// record folds one succeeded query's stats into the rollup.
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

// Open restores (or initialises) the store in dir; see layout for
// where its partitions live. Crash recovery opens every shard in
// parallel: each shard independently loads its checkpoint and replays
// its own WAL segment.
func Open(dir string, opts Options) (*DB, error) {
	if dir == "" {
		return nil, errors.New("service: empty directory")
	}
	dirs, dim, err := layout(dir, opts.Shards, opts.Dim)
	if err != nil {
		return nil, err
	}
	n := len(dirs)
	db := &DB{parts: make([]*partition, n), fanout: min(n, runtime.GOMAXPROCS(0)), floor: minMutation}

	// The page-cache budget is store-wide; each shard gets an equal
	// slice (the per-shard cache enforces its own floor).
	if opts.PageCacheBytes <= 0 {
		opts.PageCacheBytes = defaultPageCacheBytes
	}
	opts.PageCacheBytes /= n

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range dirs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			db.parts[i], errs[i] = openPartition(dirs[i], dim, opts)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			db.Close() // release shards that did open
			return nil, db.shardErr(i, err)
		}
	}

	// The commit sequence resumes one past the highest LSN any shard
	// has journaled (each segment's header pins the position even
	// when the segment is empty).
	next := uint64(1)
	for _, p := range db.parts {
		next = max(next, p.nextLSN())
	}
	db.seq = replog.NewSequencer(next, 0, db.Dim())
	for i, p := range db.parts {
		p.seq, p.stride, p.index = db.seq, uint32(n), uint32(i)
	}
	if db.Paged() {
		db.floor = minPagedMutation
	}
	if err := db.startIngest(opts); err != nil {
		return nil, errors.Join(err, db.Close())
	}
	return db, nil
}

// Multi exposes the index collection of an unsharded store, whose
// local ids are the global ids. It returns nil on a sharded one — use
// the DB-level accessors (Len, Dim, NumIndexes, MemoryBytes,
// SelectivityBounds, …), which work for any shard count.
func (db *DB) Multi() *core.Multi {
	if len(db.parts) != 1 {
		return nil
	}
	return db.parts[0].multi
}

// Shards returns the number of hash partitions (1 when unsharded).
func (db *DB) Shards() int { return len(db.parts) }

// Dim returns the φ dimensionality.
func (db *DB) Dim() int { return db.parts[0].multi.Store().Dim() }

// nextAppendLane returns the shard the next append routes to, in
// round-robin order. Both write routes draw from this one counter, so
// they assign points to shards in the same order, which is what makes
// them produce identical stores. For an append-only stream the
// assigned ids are the dense sequence 0, 1, 2, … whatever N is; after
// removals each shard recycles its own local ids, so ids stay unique
// and stable but the exact values depend on N.
//
// The counter is not persisted: it restarts at lane 0 at every Open,
// wherever the previous process left off. Ids stay unique (each shard
// hands out its own next local id), but the dense 0, 1, 2, … sequence
// breaks at a restart that did not fall on a multiple of N, so a twin
// store fed the same appends without the restart assigns different
// ids from there on.
func (db *DB) nextAppendLane() int {
	return int(db.rr.Add(1)-1) % len(db.parts)
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
// read-only store; routed to its shard — the next in round-robin
// order for an append, the owning one otherwise, so same-key
// operations ride one ingest lane and commit in submission order;
// handed to the ingest pipeline when there is one, which resolves the
// returned future after the batch's fsync; otherwise committed here
// and paced, the future nil and the result — which carries any error
// — final on return. A closed store refuses on either route with
// ErrClosed.
func (db *DB) write(op wal.Op, id uint32, v []float64) (*ingest.Future, ingest.Result) {
	if db.readOnly.Load() {
		return nil, ingest.Result{Err: ErrReadOnly}
	}
	p, lane, local := db.shardOf(id)
	if op == wal.OpAppend {
		lane = db.nextAppendLane()
		p = db.parts[lane]
	}
	if db.pipe != nil {
		f, err := db.pipe.Submit(lane, ingest.Intent{Op: uint8(op), ID: id, Vec: v})
		if errors.Is(err, ingest.ErrClosed) {
			err = ErrClosed
		}
		return f, ingest.Result{Err: err}
	}
	defer db.pace(time.Now())
	got, lsn, err := p.commit(op, local, v)
	if err == nil {
		return nil, ingest.Result{ID: p.gid(got), LSN: lsn}
	}
	if op != wal.OpAppend {
		err = p.pointErr(local, err)
	}
	return nil, ingest.Result{ID: id, Err: err}
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

// Close flushes the logs and releases the DB. It does not checkpoint;
// the logs are replayed on the next Open. An active ingest pipeline
// is drained first — every queued intent commits and resolves its
// future before the logs close, so an acked write is never dropped.
// Every write, checkpoint and query after Close fails with ErrClosed.
func (db *DB) Close() error {
	if db.pipe != nil {
		db.pipe.Close()
	}
	var first error
	for _, p := range db.parts {
		if p == nil {
			continue // never opened (a failed Open)
		}
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
