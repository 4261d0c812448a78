package service

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/pager"
	"planar/internal/replog"
	"planar/internal/wal"
)

// The durability files inside a partition directory: a flat snapshot
// or a page file (never both), plus the WAL segment.
const (
	snapshotFile = "snapshot.plnr"
	walFile      = "wal.log"
	pagesFile    = "pages.plnr"
)

// partition is one shard: a full vertical slice of the engine
// (point store, indexes, WAL segment) behind its own
// RWMutex. All point ids at this level are shard-local; the DB
// translates global ids at the boundary.
//
// Mutations and checkpoints hold the write lock so the WAL append and
// the in-memory apply are atomic with respect to each other. Commits
// additionally pass through the store-wide sequencer (under p.mu, so
// the lock order is always p.mu → seq.mu), which assigns the LSN,
// journals the record and publishes it to the replication ring in one
// critical section. A mutation therefore applies and takes its LSN
// under one hold of its partition's write lock, which is what lets a
// read that holds every partition's read lock (DB.rlockAll) see
// the store exactly as it stands at the last LSN.
type partition struct {
	mu      sync.RWMutex
	dir     string
	multi   *core.Multi
	log     *wal.Writer // guarded by mu; nil once closed
	pending int         // guarded by mu; mutations since the last checkpoint
	closed  bool        // guarded by mu; set by close, refuses all work after

	// pstore is this shard's paged checkpoint file (nil in snapshot
	// mode); replayed counts WAL records applied at open after the
	// checkpoint-LSN filter.
	pstore   *codec.PagedStore // guarded by mu
	replayed int

	// seq is the store-wide sequencer; global id = local*stride + index
	// (stride is the partition count). All three are fixed by Open.
	seq           *replog.Sequencer
	stride, index uint32

	syncEveryWrite  bool
	checkpointEvery int
}

// gid maps a shard-local id to its global id.
func (p *partition) gid(local uint32) uint32 { return local*p.stride + p.index }

// globalize rewrites a query answer's local ids to global ids in
// place.
func (p *partition) globalize(ids []uint32) []uint32 {
	for i, id := range ids {
		ids[i] = p.gid(id)
	}
	return ids
}

// freshMulti builds an empty index collection of dimension dim.
func freshMulti(dim int) (*core.Multi, error) {
	if dim <= 0 {
		return nil, errors.New("service: Dim required to create a fresh store")
	}
	store, err := core.NewPointStore(dim)
	if err != nil {
		return nil, err
	}
	return core.NewMulti(store)
}

// openPartition restores (or initialises) one shard in dir — the only
// open-and-recover path there is. dim 0 adopts the stored
// dimensionality; a directory holding a page file reopens paged
// whatever opts.Paged says. opts.PageCacheBytes is this partition's
// share, already resolved by Open.
func openPartition(dir string, dim int, opts Options) (*partition, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, snapshotFile)
	walPath := filepath.Join(dir, walFile)
	pagePath := filepath.Join(dir, pagesFile)

	_, pageStatErr := os.Stat(pagePath)
	paged := opts.Paged || pageStatErr == nil

	var (
		m      *core.Multi
		pstore *codec.PagedStore
		cpLSN  uint64 // WAL records at or below this are in the checkpoint
	)
	// Past this point a failed open must release the page file.
	fail := func(err error) (*partition, error) {
		if pstore != nil {
			pstore.Close()
		}
		return nil, err
	}
	if paged {
		if _, err := os.Stat(snapPath); err == nil {
			return nil, errors.New("service: directory holds a flat snapshot; converting to the paged layout in place is not supported")
		}
		var err error
		if pageStatErr == nil {
			pstore, m, err = codec.OpenPaged(pagePath, opts.PageCacheBytes)
			if err != nil {
				return nil, err
			}
			if dim != 0 && dim != pstore.Dim() {
				return fail(fmt.Errorf("service: page file dimension %d, options say %d", pstore.Dim(), dim))
			}
			dim = pstore.Dim()
			cpLSN = pstore.CheckpointLSN()
		} else {
			if m, err = freshMulti(dim); err != nil {
				return nil, err
			}
			if pstore, err = codec.CreatePaged(pagePath, dim, opts.PageCacheBytes); err != nil {
				return nil, err
			}
		}
		pstore.StartWriter(pager.WriterOptions{}, m.WritebackIndexes)
	} else if snap, err := codec.Load(snapPath); err == nil {
		if dim != 0 && dim != snap.Dim {
			return nil, fmt.Errorf("service: snapshot dimension %d, options say %d", snap.Dim, dim)
		}
		dim = snap.Dim
		if m, err = snap.Restore(); err != nil {
			return nil, err
		}
	} else if errors.Is(err, os.ErrNotExist) {
		if m, err = freshMulti(dim); err != nil {
			return nil, err
		}
	} else {
		return nil, err
	}

	// Replay mutations logged after the checkpoint. Records carry
	// shard-local ids, so each shard's log is self-contained. In
	// snapshot mode the checkpoint truncated the log, so everything in
	// it applies; in paged mode records at or below the checkpoint LSN
	// are filtered out (a crash between pager commit and log truncation
	// leaves them behind, already durable in the page file).
	applied := 0
	_, err := wal.Replay(walPath, func(r wal.Record) error {
		if paged && r.LSN != 0 && r.LSN <= cpLSN {
			return nil
		}
		applied++
		id, err := apply(m, r.Op, r.ID, r.Vec)
		if err == nil && id != r.ID {
			err = fmt.Errorf("service: replay assigned local id %d, log says %d", id, r.ID)
		}
		return err
	})
	if err != nil {
		return fail(fmt.Errorf("service: replaying %s: %w", walPath, err))
	}

	w, err := wal.Open(walPath, dim)
	if err != nil {
		return fail(err)
	}
	if n := w.Recovered(); n > 0 {
		log.Printf("service: %s: recovered torn tail, truncated %d bytes", walPath, n)
	}
	return &partition{
		dir:             dir,
		multi:           m,
		log:             w,
		pending:         applied,
		pstore:          pstore,
		replayed:        applied,
		syncEveryWrite:  opts.SyncEveryWrite,
		checkpointEvery: opts.CheckpointEvery,
	}, nil
}

// nextLSN reports the LSN position this partition's durable state
// implies: one past the last journaled record, or the segment base.
func (p *partition) nextLSN() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.log.NextLSN()
}

// journal returns the commit callback that appends the shard-local
// record to this partition's WAL segment. It runs under the sequencer lock, so segment order matches LSN order.
// Every caller is a mutation path holding p.mu exclusively (the apply
// and the append must be atomic), which is what lets the callback
// touch p.log.
//
//planar:locked
func (p *partition) journal(op wal.Op, local uint32, vec []float64) func(uint64) error {
	return func(lsn uint64) error {
		if err := p.log.Append(wal.Record{Op: op, LSN: lsn, ID: local, Vec: vec}); err != nil {
			return err
		}
		if p.syncEveryWrite {
			return p.log.Sync()
		}
		return nil
	}
}

// apply performs one mutation on an index collection and returns the
// local id it landed on (an append ignores the one given). Every write
// route ends here: log replay at open, the synchronous commit, the
// group commit and the replication stream. A mutation that fails has
// changed nothing. Journaling is the caller's job, and walordering
// holds each caller to it.
//
//planar:journaled
func apply(m *core.Multi, op wal.Op, id uint32, vec []float64) (uint32, error) {
	switch op {
	case wal.OpAppend:
		return m.Append(vec)
	case wal.OpUpdate:
		return id, m.Update(id, vec)
	case wal.OpRemove:
		return id, m.Remove(id)
	default:
		return id, fmt.Errorf("service: unknown op %d", op)
	}
}

// pointErr names the point and this shard in the error of an update or
// a remove (nothing to add on an unpartitioned store).
func (p *partition) pointErr(local uint32, err error) error {
	if err == nil || p.stride == 1 {
		return err
	}
	return fmt.Errorf("shard %d: point %d: %w", p.index, p.gid(local), err)
}

// commit is the synchronous write: under the shard lock, apply one
// mutation, let the sequencer assign its LSN and journal it as one
// plain record frame (fsynced when syncEveryWrite), and count it
// toward the automatic checkpoint. It returns the local id the
// mutation landed on and its LSN. vec is nil for a remove.
func (p *partition) commit(op wal.Op, local uint32, vec []float64) (uint32, uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, 0, ErrClosed
	}
	local, err := apply(p.multi, op, local, vec)
	if err != nil {
		return 0, 0, err
	}
	lsn, err := p.seq.Commit(op, p.gid(local), vec, p.journal(op, local, vec))
	if err != nil {
		return 0, 0, err
	}
	return local, lsn, p.bumpLocked(1)
}

// commitBatch group-commits one ingest batch: every intent applies
// under a single acquisition of the shard lock, the survivors journal
// as one multi-record WAL frame with one fsync, and the sequencer
// hands the batch a contiguous LSN range. The batch arrives and leaves
// in the pipeline's terms, so intent and result ids are global. What
// fails one intent (a point of another shard, a bad dimension, a dead
// point) stays scoped to its result, worded as the synchronous route
// words it, and never reaches the journal; a journal error fails the
// whole batch.
func (p *partition) commitBatch(intents []ingest.Intent, results []ingest.Result) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	walRecs := make([]wal.Record, 0, len(intents))
	ringRecs := make([]wal.Record, 0, len(intents))
	okIdx := make([]int, 0, len(intents))
	for i, in := range intents {
		op, local := wal.Op(in.Op), in.ID/p.stride
		var err error
		if op != wal.OpAppend && in.ID%p.stride != p.index {
			err = fmt.Errorf("service: point %d belongs to shard %d, batch is on lane %d", in.ID, in.ID%p.stride, p.index)
		} else if local, err = apply(p.multi, op, local, in.Vec); err != nil && op != wal.OpAppend {
			err = p.pointErr(local, err)
		}
		if err != nil {
			results[i] = ingest.Result{Err: err}
			continue
		}
		results[i] = ingest.Result{ID: p.gid(local)}
		walRecs = append(walRecs, wal.Record{Op: op, ID: local, Vec: in.Vec})
		ringRecs = append(ringRecs, wal.Record{Op: op, ID: p.gid(local), Vec: in.Vec})
		okIdx = append(okIdx, i)
	}
	if len(ringRecs) == 0 {
		return nil
	}
	base, err := p.seq.CommitBatch(ringRecs, p.journalBatch(walRecs))
	if err != nil {
		return err
	}
	for j, i := range okIdx {
		results[i].LSN = base + uint64(j)
	}
	return p.bumpLocked(len(okIdx))
}

// journalBatch returns the batch commit callback: one frame, one
// fsync. Acks resolve only after this fsync — group commit always
// syncs regardless of syncEveryWrite, that is its durability
// contract. Called, like journal, with p.mu held.
//
//planar:locked
func (p *partition) journalBatch(recs []wal.Record) func(uint64) error {
	return func(base uint64) error {
		for j := range recs {
			recs[j].LSN = base + uint64(j)
		}
		if err := p.log.AppendBatch(recs); err != nil {
			return err
		}
		return p.log.Sync()
	}
}

// applyReplicated applies one record streamed from a primary. The
// record carries a global id (already routed to this partition) and
// the primary's LSN; replay must reproduce the primary's id
// assignment exactly, and any disagreement is divergence — the
// replica's state no longer matches the stream and must be rebuilt
// from a snapshot.
func (p *partition) applyReplicated(rec wal.Record, local uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	id, err := apply(p.multi, rec.Op, local, rec.Vec)
	if err != nil {
		return fmt.Errorf("apply op %d: %v: %w", rec.Op, err, replog.ErrDiverged)
	}
	if id != local {
		return fmt.Errorf("apply assigned local id %d, stream says %d: %w", id, local, replog.ErrDiverged)
	}
	if err := p.seq.CommitAt(rec.LSN, rec.Op, rec.ID, rec.Vec, p.journal(rec.Op, local, rec.Vec)); err != nil {
		return err
	}
	return p.bumpLocked(1)
}

// bumpLocked counts n journaled mutations toward the automatic
// per-shard checkpoint; a group commit counts whole, so it takes at
// most one. Callers hold the write lock.
func (p *partition) bumpLocked(n int) error {
	p.pending += n
	if p.checkpointEvery > 0 && p.pending >= p.checkpointEvery {
		return p.checkpointLocked()
	}
	return nil
}

// flushLog pushes buffered WAL records to the OS so a concurrent
// segment reader (catch-up feed) sees everything journaled so far.
func (p *partition) flushLog() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.log.Flush()
}

// checkpoint snapshots the shard and truncates its log. The paged
// tier's background writer is drained before the write lock so the
// locked section only covers the residual delta.
func (p *partition) checkpoint() error {
	p.mu.RLock()
	ps := p.pstore
	p.mu.RUnlock()
	if ps != nil {
		if err := ps.DrainWriteback(); err != nil {
			return err
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.checkpointLocked()
}

func (p *partition) checkpointLocked() error {
	if err := p.log.Sync(); err != nil {
		return err
	}
	if p.pstore != nil {
		if err := p.pstore.Checkpoint(p.multi, p.seq.Next()-1); err != nil {
			return err
		}
	} else {
		if err := codec.Capture(p.multi).Save(filepath.Join(p.dir, snapshotFile)); err != nil {
			return err
		}
	}
	if err := p.log.Close(); err != nil {
		return err
	}
	// The fresh segment starts at the store-wide sequence position so
	// an empty log still pins the LSN cursor across restarts.
	w, err := wal.Create(filepath.Join(p.dir, walFile), p.multi.Store().Dim(), p.seq.Next())
	if err != nil {
		return err
	}
	p.log = w
	p.pending = 0
	return nil
}

// close flushes and releases the shard's log and page file. The
// partition refuses every write, checkpoint and query after it.
func (p *partition) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	err := p.log.Sync()
	if cerr := p.log.Close(); err == nil {
		err = cerr
	}
	p.log = nil
	if p.pstore != nil {
		if cerr := p.pstore.Close(); err == nil {
			err = cerr
		}
		p.pstore = nil
	}
	return err
}
