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
	"os"
	"path/filepath"
	"sort"

	"planar/internal/codec"
	"planar/internal/replog"
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

// CaptureState snapshots every shard's in-memory state (store layout
// + index configuration, no disk touched) at one LSN. It holds every
// partition's read lock while it copies (rlockAll), so writers wait
// and queries keep running — the price of a consistent cut without
// touching disk. Replication bootstrap is the intended caller; it
// does not checkpoint, so tailing replicas' cursors stay valid.
func (db *DB) CaptureState() *ReplState {
	_ = db.rlockAll()
	defer db.runlockAll()
	snaps := make([]*codec.Snapshot, len(db.parts))
	for i, p := range db.parts {
		snaps[i] = codec.Capture(p.multi)
	}
	return &ReplState{Shards: len(snaps), Dim: db.Dim(), LSN: db.seq.Last(), Snaps: snaps}
}

// MaterializeReplState lays a captured state down in dir as a fresh
// data directory — replica bootstrap's way of adopting a primary's
// topology: one snapshot per partition where partDir puts it (and the
// meta file when there are several), each beside an empty WAL segment
// whose base is pinned at LSN+1, so opening the directory resumes the
// replication cursor exactly where the cut was taken.
func MaterializeReplState(dir string, st *ReplState) error {
	n := len(st.Snaps)
	if n != st.Shards || n < 1 || st.Dim <= 0 {
		return fmt.Errorf("service: state has %d snapshots for %d shards, dim %d", n, st.Shards, st.Dim)
	}
	write := func(pd string, snap *codec.Snapshot) error {
		if err := os.MkdirAll(pd, 0o755); err != nil {
			return err
		}
		if err := snap.Save(filepath.Join(pd, snapshotFile)); err != nil {
			return err
		}
		w, err := wal.Create(filepath.Join(pd, walFile), st.Dim, st.LSN+1)
		if err != nil {
			return err
		}
		return w.Close()
	}
	for i, snap := range st.Snaps {
		if err := write(partDir(dir, i, n), snap); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	if n == 1 {
		return nil
	}
	return writeMeta(filepath.Join(dir, metaFile), n, st.Dim)
}

// ApplyReplicated applies one record streamed from a primary,
// journaling it locally under the primary's LSN so the replica's own
// crash recovery restores both the data and the replication cursor.
// Records must arrive in exact LSN order; any disagreement with local
// state (an id replay would not have assigned, an op on a dead point,
// an LSN gap) reports ErrDiverged. The read-only guard does not
// apply: this is the one write path a replica keeps open.
func (db *DB) ApplyReplicated(rec wal.Record) error {
	p, si, local := db.shardOf(rec.ID)
	return db.shardErr(si, p.applyReplicated(rec, local))
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
	return db.feedFromDisk(from, max)
}

// feedFromDisk serves catch-up reads that have fallen off the
// in-memory ring: it flushes every shard's WAL buffer, scans the
// segments for records at or past from, rewrites local ids to global
// ids, and merges them by LSN. tooOld reports that the segments no
// longer cover from (a checkpoint truncated them).
func (db *DB) feedFromDisk(from uint64, max int) (recs []wal.Record, tooOld bool, err error) {
	for _, p := range db.parts {
		if err := p.flushLog(); err != nil {
			return nil, false, err
		}
	}
	var merged []wal.Record
	for i, p := range db.parts {
		part, err := replog.ReadSegmentFrom(filepath.Join(p.dir, walFile), from, max, p.gid)
		if err != nil {
			return nil, false, db.shardErr(i, err)
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
