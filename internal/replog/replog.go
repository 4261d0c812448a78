// Package replog owns the commit sequence of a planar store: a
// Sequencer assigns log sequence numbers (LSNs) to mutations at
// commit time, keeps a fixed-size circular buffer of recently committed
// records in the global id space, and lets readers wait for an LSN to
// commit. It is the meeting point of the durability layer (per-shard
// WAL segments journal records under the sequencer's lock, so segment
// order always matches LSN order) and the replication subsystem
// (package replica), which streams the ring to read replicas and uses
// LSN waits to honor monotonic read barriers.
//
// The ring is deliberately lossy: when a replica falls further behind
// than the ring capacity, the primary serves the gap from its on-disk
// WAL segments if they still cover it, and otherwise tells the
// replica to re-bootstrap from a snapshot. A slow replica therefore
// never applies backpressure to the primary's write path.
package replog

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"planar/internal/wal"
)

// ErrDiverged reports that an applied replication record contradicts
// local state — an id the primary assigned is not the id replay
// produced, an LSN arrived out of order, or an op targeted a dead
// point. The only safe recovery is a fresh snapshot bootstrap.
var ErrDiverged = errors.New("replog: replica diverged from primary")

// DefaultRingSize is the number of recently committed records kept in
// memory for tail-following replicas.
const DefaultRingSize = 1 << 14

// Sequencer assigns LSNs at commit and retains the recent commit
// tail. All methods are safe for concurrent use.
//
// The tail is a fixed-capacity circular buffer, allocated once by the
// first commit (a store that is only read, or only recovered and
// closed, never pays for it): the record with LSN l lives in
// ring[l % size] and its vector in the matching dim-wide stripe of one
// float64 slab, so a commit publishes by copying into place — constant
// cost and no allocation however full the ring is.
type Sequencer struct {
	mu       sync.Mutex
	next     uint64    // guarded by mu; next LSN to assign (≥ 1)
	ring     []entry   // guarded by mu; LSN l is at ring[l % size]; nil before the first commit
	slab     []float64 // guarded by mu; size stripes of dim floats, entry i's vector leads stripe i
	size     int
	dim      int
	ringBase uint64        // guarded by mu; the ring holds [ringBase, next)
	notify   chan struct{} // guarded by mu
	waiting  bool          // guarded by mu; a Wait has taken notify since it was made

	// last mirrors next-1 so Last — called on every read to stamp the
	// X-Planar-LSN header — never contends with commits holding mu
	// across a journal fsync.
	last atomic.Uint64
}

// entry is one ring slot: a committed record less its vector, whose
// first n components lead the slot's stripe of the slab.
type entry struct {
	lsn uint64
	id  uint32
	n   uint32
	op  wal.Op
}

// NewSequencer starts the sequence at next (the first LSN it will
// assign; 0 is treated as 1 — LSN 0 means "nothing"). ringSize ≤ 0
// selects DefaultRingSize. dim is the store's vector dimension: every
// committed vector must be empty (a remove) or at most dim long.
func NewSequencer(next uint64, ringSize, dim int) *Sequencer {
	if next == 0 {
		next = 1
	}
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	s := &Sequencer{
		next:     next,
		size:     ringSize,
		dim:      dim,
		ringBase: next,
		notify:   make(chan struct{}),
	}
	s.last.Store(next - 1)
	return s
}

// Next returns the LSN the next commit will receive.
func (s *Sequencer) Next() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// Last returns the most recently committed LSN (0 if none). It is
// lock-free: reads stamping LSN headers never wait behind a commit's
// journal fsync.
func (s *Sequencer) Last() uint64 { return s.last.Load() }

// Commit assigns the next LSN to a mutation in the global id space,
// runs the journal callback (the per-shard WAL append) under the
// sequence lock so on-disk order matches LSN order, and publishes the
// record to the ring. The caller must already have applied the
// mutation to the in-memory store, holding its shard lock across this
// call so same-key operations sequence correctly.
func (s *Sequencer) Commit(op wal.Op, gid uint32, vec []float64, journal func(lsn uint64) error) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lsn := s.next
	if err := s.commitLocked(lsn, op, gid, vec, journal); err != nil {
		return 0, err
	}
	return lsn, nil
}

// CommitAt is the replica-side commit: the LSN comes from the primary
// and must be exactly the next in sequence, keeping the replica's own
// WAL segments aligned with the primary's LSN space. Out-of-order
// LSNs report ErrDiverged.
func (s *Sequencer) CommitAt(lsn uint64, op wal.Op, gid uint32, vec []float64, journal func(lsn uint64) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if lsn != s.next {
		return fmt.Errorf("commit at LSN %d, sequence expects %d: %w", lsn, s.next, ErrDiverged)
	}
	return s.commitLocked(lsn, op, gid, vec, journal)
}

// commitLocked journals and publishes one record at lsn == s.next.
func (s *Sequencer) commitLocked(lsn uint64, op wal.Op, gid uint32, vec []float64, journal func(lsn uint64) error) error {
	if len(vec) > s.dim {
		return s.errVecTooLong(len(vec))
	}
	if journal != nil {
		if err := journal(lsn); err != nil {
			return err
		}
	}
	s.storeLocked(wal.Record{Op: op, LSN: lsn, ID: gid, Vec: vec})
	s.advanceLocked(lsn + 1)
	return nil
}

func (s *Sequencer) errVecTooLong(n int) error {
	return fmt.Errorf("replog: vector has dimension %d, sequencer was sized for %d", n, s.dim)
}

// CommitBatch assigns a contiguous LSN range to a group-committed
// batch: recs[j] receives base+j in place, the journal callback (one
// multi-record WAL append plus one fsync) runs under the sequence
// lock so on-disk order matches LSN order, and all records publish to
// the ring with a single waiter wakeup. The record ids must already
// be global; vectors are copied into the ring. A batch larger than
// the ring leaves its last ring-capacity records there. The caller
// holds its shard lock across this call, exactly as for Commit.
func (s *Sequencer) CommitBatch(recs []wal.Record, journal func(base uint64) error) (uint64, error) {
	if len(recs) == 0 {
		return 0, errors.New("replog: empty batch")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if len(r.Vec) > s.dim {
			return 0, s.errVecTooLong(len(r.Vec))
		}
	}
	base := s.next
	for j := range recs {
		recs[j].LSN = base + uint64(j)
	}
	if journal != nil {
		if err := journal(base); err != nil {
			return 0, err
		}
	}
	tail := recs
	if over := len(recs) - s.size; over > 0 {
		tail = recs[over:] // the head would be overwritten by the tail anyway
	}
	for _, r := range tail {
		s.storeLocked(r)
	}
	s.advanceLocked(base + uint64(len(recs)))
	return base, nil
}

// storeLocked copies one record and its vector into the slot its LSN
// maps to, overwriting whatever older record lived there.
func (s *Sequencer) storeLocked(rec wal.Record) {
	if s.ring == nil {
		s.ring = make([]entry, s.size)
		s.slab = make([]float64, s.size*s.dim)
	}
	slot := int(rec.LSN % uint64(s.size))
	n := copy(s.slab[slot*s.dim:(slot+1)*s.dim], rec.Vec)
	s.ring[slot] = entry{lsn: rec.LSN, id: rec.ID, n: uint32(n), op: rec.Op}
}

// advanceLocked moves the sequence to next, drops the records the
// ring no longer has room for, mirrors the position for lock-free
// Last readers, and wakes waiters. The notify channel is only
// replaced when a waiter took it: commits with nobody waiting — the
// common case — allocate nothing.
func (s *Sequencer) advanceLocked(next uint64) {
	s.next = next
	if size := uint64(s.size); next-s.ringBase > size {
		s.ringBase = next - size
	}
	s.last.Store(next - 1)
	if s.waiting {
		close(s.notify)
		s.notify = make(chan struct{})
		s.waiting = false
	}
}

// ReadFrom returns up to max committed records starting at LSN from,
// in LSN order. tooOld reports that the ring no longer covers from —
// the caller must fall back to on-disk segments or a snapshot. An
// empty, non-tooOld result means from has not been committed yet.
// Ring slots are overwritten as the sequence advances, so the records
// and their vectors are copied out under the lock (the vectors into
// one flat allocation): the result is the caller's own and stays
// valid however many commits follow.
func (s *Sequencer) ReadFrom(from uint64, max int) (recs []wal.Record, tooOld bool) {
	if from == 0 {
		from = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if from >= s.next {
		return nil, false
	}
	if from < s.ringBase {
		return nil, true
	}
	n := int(s.next - from)
	if max > 0 && n > max {
		n = max
	}
	out := make([]wal.Record, n)
	vecs := make([]float64, 0, n*s.dim)
	for i := range out {
		slot := int((from + uint64(i)) % uint64(s.size))
		e := s.ring[slot]
		out[i] = wal.Record{Op: e.op, LSN: e.lsn, ID: e.id}
		if e.n > 0 {
			off := len(vecs)
			vecs = append(vecs, s.slab[slot*s.dim:slot*s.dim+int(e.n)]...)
			out[i].Vec = vecs[off:len(vecs):len(vecs)]
		}
	}
	return out, false
}

// RingBase returns the oldest LSN the ring still covers (== Next when
// the ring is empty).
func (s *Sequencer) RingBase() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ringBase
}

// Wait blocks until LSN lsn has committed (Last() ≥ lsn) or the
// context is done. It is the primitive behind monotonic read
// barriers: on a primary it waits for a commit, on a replica —
// whose sequencer advances in CommitAt as records apply — it waits
// for the apply to catch up.
func (s *Sequencer) Wait(ctx context.Context, lsn uint64) error {
	for {
		s.mu.Lock()
		if s.next > lsn {
			s.mu.Unlock()
			return nil
		}
		ch := s.notify
		s.waiting = true
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// ReadSegmentFrom scans one on-disk WAL segment and returns up to max
// records with LSN ≥ from, translating shard-local ids to global ids
// through globalize (pass nil for an unsharded store). A torn tail
// ends the scan cleanly. It underpins catch-up streaming when a
// replica's cursor has fallen off the in-memory ring but the segment
// files still cover it.
func ReadSegmentFrom(path string, from uint64, max int, globalize func(uint32) uint32) ([]wal.Record, error) {
	seg, err := wal.OpenSegment(path)
	if err != nil {
		// A missing or headerless file holds no committed records.
		if errors.Is(err, os.ErrNotExist) || wal.IsTail(err) {
			return nil, nil
		}
		return nil, err
	}
	// Read-only iteration: a close failure here cannot lose data.
	defer func() { _ = seg.Close() }()
	var out []wal.Record
	for max <= 0 || len(out) < max {
		rec, err := seg.Next()
		if err != nil {
			if wal.IsTail(err) {
				break
			}
			return out, err
		}
		if rec.LSN < from {
			continue
		}
		if globalize != nil {
			rec.ID = globalize(rec.ID)
		}
		out = append(out, rec)
	}
	return out, nil
}
