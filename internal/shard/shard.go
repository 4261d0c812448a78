package shard

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
	"planar/internal/vecmath"
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
// (point store, indexes, plan cache, WAL segment) behind its own
// RWMutex. All point ids at this level are shard-local; the Store
// translates global ids at the boundary.
//
// Mutations and checkpoints hold the write lock so the WAL append and
// the in-memory apply are atomic with respect to each other; queries
// hold the read lock, so readers of the same shard proceed
// concurrently and writers on *other* shards are never even
// consulted. Commits additionally pass through the store-wide
// sequencer (under p.mu, so the lock order is always p.mu → seq.mu),
// which assigns the LSN, journals the record and publishes it to the
// replication ring in one critical section.
type partition struct {
	mu      sync.RWMutex
	dir     string // "" for an ephemeral partition
	multi   *core.Multi
	log     *wal.Writer // guarded by mu; nil when ephemeral
	pending int         // guarded by mu; mutations since the last checkpoint

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
func freshMulti(dim int, opts Options) (*core.Multi, error) {
	if dim <= 0 {
		return nil, errors.New("shard: Dim required to create a fresh store")
	}
	store, err := core.NewPointStore(dim)
	if err != nil {
		return nil, err
	}
	return core.NewMulti(store, opts.MultiOptions...)
}

// openPartition restores (or initialises) one shard in dir — the only
// open-and-recover path there is. An empty dir creates an ephemeral
// in-memory partition. dim 0 adopts the stored dimensionality; a
// directory holding a page file reopens paged whatever opts.Paged
// says. opts.PageCacheBytes is this partition's share, already
// resolved by Open.
func openPartition(dir string, dim int, opts Options) (*partition, error) {
	p := &partition{
		dir:             dir,
		syncEveryWrite:  opts.SyncEveryWrite,
		checkpointEvery: opts.CheckpointEvery,
	}
	if dir == "" {
		m, err := freshMulti(dim, opts)
		if err != nil {
			return nil, err
		}
		p.multi = m
		return p, nil
	}

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
			return nil, errors.New("shard: directory holds a flat snapshot; converting to the paged layout in place is not supported")
		}
		var err error
		if pageStatErr == nil {
			pstore, m, err = codec.OpenPaged(pagePath, opts.PageCacheBytes, opts.MultiOptions...)
			if err != nil {
				return nil, err
			}
			if dim != 0 && dim != pstore.Dim() {
				return fail(fmt.Errorf("shard: page file dimension %d, options say %d", pstore.Dim(), dim))
			}
			dim = pstore.Dim()
			cpLSN = pstore.CheckpointLSN()
		} else {
			if m, err = freshMulti(dim, opts); err != nil {
				return nil, err
			}
			if pstore, err = codec.CreatePaged(pagePath, dim, opts.PageCacheBytes); err != nil {
				return nil, err
			}
		}
		pstore.StartWriter(pager.WriterOptions{Interval: opts.WritebackInterval}, m.WritebackIndexes)
	} else if snap, err := codec.Load(snapPath); err == nil {
		if dim != 0 && dim != snap.Dim {
			return nil, fmt.Errorf("shard: snapshot dimension %d, options say %d", snap.Dim, dim)
		}
		dim = snap.Dim
		if m, err = snap.Restore(opts.MultiOptions...); err != nil {
			return nil, err
		}
	} else if errors.Is(err, os.ErrNotExist) {
		if m, err = freshMulti(dim, opts); err != nil {
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
		switch r.Op {
		case wal.OpAppend:
			id, err := m.Append(r.Vec)
			if err != nil {
				return err
			}
			if id != r.ID {
				return fmt.Errorf("shard: replay assigned local id %d, log says %d", id, r.ID)
			}
			return nil
		case wal.OpUpdate:
			return m.Update(r.ID, r.Vec)
		case wal.OpRemove:
			return m.Remove(r.ID)
		default:
			return fmt.Errorf("shard: unknown op %d in log", r.Op)
		}
	})
	if err != nil {
		return fail(fmt.Errorf("shard: replaying %s: %w", walPath, err))
	}

	w, err := wal.Open(walPath, dim)
	if err != nil {
		return fail(err)
	}
	if n := w.Recovered(); n > 0 {
		log.Printf("shard: %s: recovered torn tail, truncated %d bytes", walPath, n)
	}
	p.multi = m
	p.log = w
	p.pending = applied
	p.pstore = pstore
	p.replayed = applied
	return p, nil
}

// nextLSN reports the LSN position this partition's durable state
// implies: one past the last journaled record, or the segment base.
func (p *partition) nextLSN() uint64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.log == nil {
		return 1
	}
	return p.log.NextLSN()
}

// journal returns the commit callback that appends the shard-local
// record to this partition's WAL segment, or nil when ephemeral. It
// runs under the sequencer lock, so segment order matches LSN order.
// Every caller is a mutation path holding p.mu exclusively (the apply
// and the append must be atomic), which is what lets the callback
// touch p.log.
//
//planar:locked
func (p *partition) journal(op wal.Op, local uint32, vec []float64) func(uint64) error {
	if p.log == nil {
		return nil
	}
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

// append durably adds a point and returns its shard-local id.
func (p *partition) append(v []float64) (uint32, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id, err := p.multi.Append(v)
	if err != nil {
		return 0, err
	}
	if _, err := p.seq.Commit(wal.OpAppend, p.gid(id), v, p.journal(wal.OpAppend, id, v)); err != nil {
		return 0, err
	}
	return id, p.bumpLocked()
}

// update durably replaces a local point's φ vector.
func (p *partition) update(id uint32, v []float64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.multi.Update(id, v); err != nil {
		return err
	}
	if _, err := p.seq.Commit(wal.OpUpdate, p.gid(id), v, p.journal(wal.OpUpdate, id, v)); err != nil {
		return err
	}
	return p.bumpLocked()
}

// remove durably deletes a local point.
func (p *partition) remove(id uint32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.multi.Remove(id); err != nil {
		return err
	}
	if _, err := p.seq.Commit(wal.OpRemove, p.gid(id), nil, p.journal(wal.OpRemove, id, nil)); err != nil {
		return err
	}
	return p.bumpLocked()
}

// commitBatch group-commits one ingest batch: every intent applies
// under a single acquisition of the shard lock, the survivors journal
// as one multi-record WAL frame with one fsync, and the sequencer
// hands the batch a contiguous LSN range. Intent ids are shard-local
// (the Store translates at the boundary); results carry global ids.
// Entries whose result already holds an error are skipped — the Store
// pre-fails mis-routed intents. Apply errors (bad dimension, dead
// point) stay scoped to their intent and never reach the journal; a
// journal error fails the whole batch.
func (p *partition) commitBatch(intents []ingest.Intent, results []ingest.Result) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	walRecs := make([]wal.Record, 0, len(intents))
	ringRecs := make([]wal.Record, 0, len(intents))
	okIdx := make([]int, 0, len(intents))
	for i, in := range intents {
		if results[i].Err != nil {
			continue
		}
		op := wal.Op(in.Op)
		local := in.ID
		var err error
		switch op {
		case wal.OpAppend:
			local, err = p.multi.Append(in.Vec)
		case wal.OpUpdate:
			err = p.multi.Update(local, in.Vec)
		case wal.OpRemove:
			err = p.multi.Remove(local)
		default:
			err = fmt.Errorf("shard: unknown op %d", in.Op)
		}
		if err != nil {
			results[i] = ingest.Result{Err: err}
			continue
		}
		vec := in.Vec
		if op == wal.OpRemove {
			vec = nil
		}
		results[i] = ingest.Result{ID: p.gid(local)}
		walRecs = append(walRecs, wal.Record{Op: op, ID: local, Vec: vec})
		ringRecs = append(ringRecs, wal.Record{Op: op, ID: p.gid(local), Vec: vec})
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
	for range okIdx {
		if err := p.bumpLocked(); err != nil {
			return err
		}
	}
	return nil
}

// journalBatch returns the batch commit callback: one frame, one
// fsync. Acks resolve only after this fsync — group commit always
// syncs regardless of syncEveryWrite, that is its durability
// contract. Nil when ephemeral. Called, like journal, with p.mu held.
//
//planar:locked
func (p *partition) journalBatch(recs []wal.Record) func(uint64) error {
	if p.log == nil {
		return nil
	}
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
	switch rec.Op {
	case wal.OpAppend:
		id, err := p.multi.Append(rec.Vec)
		if err != nil {
			return fmt.Errorf("apply append: %v: %w", err, replog.ErrDiverged)
		}
		if id != local {
			return fmt.Errorf("apply assigned local id %d, stream says %d: %w", id, local, replog.ErrDiverged)
		}
	case wal.OpUpdate:
		if err := p.multi.Update(local, rec.Vec); err != nil {
			return fmt.Errorf("apply update: %v: %w", err, replog.ErrDiverged)
		}
	case wal.OpRemove:
		if err := p.multi.Remove(local); err != nil {
			return fmt.Errorf("apply remove: %v: %w", err, replog.ErrDiverged)
		}
	default:
		return fmt.Errorf("apply op %d: %w", rec.Op, replog.ErrDiverged)
	}
	if err := p.seq.CommitAt(rec.LSN, rec.Op, rec.ID, rec.Vec, p.journal(rec.Op, local, rec.Vec)); err != nil {
		return err
	}
	return p.bumpLocked()
}

// bumpLocked advances the pending-mutation counter and triggers the
// automatic per-shard checkpoint. Callers hold the write lock.
func (p *partition) bumpLocked() error {
	p.pending++
	if p.log != nil && p.checkpointEvery > 0 && p.pending >= p.checkpointEvery {
		return p.checkpointLocked()
	}
	return nil
}

// addNormal installs an index on this shard's Multi.
func (p *partition) addNormal(normal []float64, signs vecmath.SignPattern) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.multi.AddNormal(normal, signs)
}

// The read methods answer one query against this partition under its
// read lock, in shard-local ids. They are all a one-partition Store
// returns, and what a scatter runs on every shard.

func (p *partition) query(dst []uint32, q core.Query) ([]uint32, core.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.AppendInequalityIDs(dst, q)
}

func (p *partition) queryBatch(a []float64, op core.Op, bs []float64) ([][]uint32, []core.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.InequalityBatch(a, op, bs)
}

func (p *partition) topK(q core.Query, k int) ([]core.Result, core.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.TopK(q, k)
}

func (p *partition) count(q core.Query) (int, core.Stats, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.Count(q)
}

func (p *partition) bounds(q core.Query) (lo, hi int, err error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.SelectivityBounds(q)
}

func (p *partition) explain(q core.Query) (core.Plan, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.Explain(q)
}

// capture snapshots the partition's in-memory state (store layout +
// index configuration) without touching disk.
func (p *partition) capture() *codec.Snapshot {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return codec.Capture(p.multi)
}

// flushLog pushes buffered WAL records to the OS so a concurrent
// segment reader (catch-up feed) sees everything journaled so far.
func (p *partition) flushLog() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.log == nil {
		return nil
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
	return p.checkpointLocked()
}

func (p *partition) checkpointLocked() error {
	if p.log == nil {
		return nil // ephemeral: nothing to persist
	}
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

// close flushes and releases the shard's log and page file.
func (p *partition) close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var err error
	if p.log != nil {
		err = p.log.Sync()
		if cerr := p.log.Close(); err == nil {
			err = cerr
		}
		p.log = nil
	}
	if p.pstore != nil {
		if cerr := p.pstore.Close(); err == nil {
			err = cerr
		}
		p.pstore = nil
	}
	return err
}
