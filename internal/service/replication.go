package service

// Replication surface of a DB: a primary captures consistent
// snapshots and serves committed records by LSN; a replica applies
// the streamed records through the same shard-routing and journaling
// machinery its own durability uses, so a replica restart recovers
// its replication cursor from its ordinary snapshot + WAL state. The
// wire protocol and the applier loop live in package replica; the
// HTTP endpoints in package httpapi.

import (
	"context"
	"fmt"

	"planar/internal/codec"
	"planar/internal/replog"
	"planar/internal/shard"
	"planar/internal/wal"
)

// ErrDiverged re-exports replog.ErrDiverged: a replicated record
// contradicts local state and the replica must re-bootstrap.
var ErrDiverged = replog.ErrDiverged

// ReplState is a consistent cut of a store for replica bootstrap:
// every shard's snapshot plus the LSN the cut is valid at. Shards is
// 1 for an unsharded store.
type ReplState struct {
	Shards int
	Dim    int
	LSN    uint64
	Snaps  []*codec.Snapshot
}

// CaptureState snapshots the whole store in memory at one LSN. It
// holds every partition's read lock while it copies (shard.Store.
// Capture), so writers wait and queries keep running — the price of a
// consistent cut without touching disk. Replication bootstrap is the
// intended caller; it does not checkpoint, so tailing replicas'
// cursors stay valid.
func (db *DB) CaptureState() *ReplState {
	lsn, snaps := db.store.Capture()
	return &ReplState{Shards: len(snaps), Dim: db.Dim(), LSN: lsn, Snaps: snaps}
}

// MaterializeReplState writes a captured state into dir as a fresh
// data directory in the layout its shard count implies (see
// shard.WriteLayout), so opening the directory resumes the
// replication cursor exactly where the snapshot left off.
func MaterializeReplState(dir string, st *ReplState) error {
	if len(st.Snaps) != st.Shards || st.Shards < 1 {
		return fmt.Errorf("service: state has %d snapshots for %d shards", len(st.Snaps), st.Shards)
	}
	return shard.WriteLayout(dir, st.Dim, st.LSN, st.Snaps)
}

// ApplyReplicated applies one record streamed from a primary,
// journaling it locally under the primary's LSN so the replica's own
// crash recovery restores both the data and the replication cursor.
// Records must arrive in exact LSN order; any disagreement with local
// state (an id replay would not have assigned, an op on a dead point,
// an LSN gap) reports ErrDiverged. The read-only guard does not
// apply: this is the one write path a replica keeps open.
func (db *DB) ApplyReplicated(rec wal.Record) error {
	return db.store.Apply(rec)
}

// FeedRead returns up to max committed records starting at LSN from,
// serving from the in-memory ring when it still covers the cursor and
// falling back to the on-disk WAL segments for older positions.
// tooOld reports that neither does — a checkpoint has truncated past
// the cursor and the replica must re-bootstrap from a snapshot.
func (db *DB) FeedRead(from uint64, max int) (recs []wal.Record, tooOld bool, err error) {
	recs, tooOld = db.seq.ReadFrom(from, max)
	if !tooOld {
		return recs, false, nil
	}
	return db.store.FeedFromDisk(from, max)
}

// LastLSN returns the most recently committed (primary) or applied
// (replica) LSN — the value served in X-Planar-LSN response headers.
func (db *DB) LastLSN() uint64 { return db.seq.Last() }

// WaitLSN blocks until LastLSN() ≥ lsn or the context is done: the
// monotonic read barrier behind the X-Planar-Min-LSN request header.
func (db *DB) WaitLSN(ctx context.Context, lsn uint64) error {
	return db.seq.Wait(ctx, lsn)
}

// SetReadOnly toggles the public mutation surface. Replicas run
// read-only until promoted; the replication apply path is unaffected.
func (db *DB) SetReadOnly(ro bool) { db.readOnly.Store(ro) }

// ReadOnly reports whether public mutations are rejected.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }
