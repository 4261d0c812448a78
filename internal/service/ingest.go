package service

import (
	"planar/internal/ingest"
	"planar/internal/wal"
)

// ErrBackpressure reports a write shed by a full ingest ring; the
// caller should retry later (the HTTP layer answers 429).
var ErrBackpressure = ingest.ErrBacklog

// startIngest wires the group-commit pipeline when opts.IngestBatch
// asks for one: a lane per shard, committed through the store's
// batch-commit path. Replicas never configure a pipeline — their
// writes arrive pre-sequenced on the replication stream.
func (db *DB) startIngest(opts Options) error {
	if opts.IngestBatch <= 0 {
		return nil
	}
	p, err := ingest.New(ingest.Config{
		Lanes:         db.store.NumShards(),
		BatchSize:     min(opts.IngestBatch, wal.MaxBatchRecords),
		FlushInterval: opts.IngestFlushInterval,
		QueueDepth:    opts.IngestQueueDepth,
		Block:         opts.IngestBlock,
		Commit: func(lane int, intents []ingest.Intent, results []ingest.Result) error {
			// commitMu read-held across apply+journal, exactly like a
			// synchronous write, so CaptureState can drain in-flight
			// batches to a consistent cut.
			db.commitMu.RLock()
			defer db.commitMu.RUnlock()
			return db.store.CommitBatch(lane, intents, results)
		},
	})
	if err != nil {
		return err
	}
	db.pipe = p
	return nil
}

// AppendAsync submits an append to the ingest pipeline and returns an
// awaitable future; the write is durable (batch frame fsynced) when
// the future resolves. Without a pipeline it degrades to the
// synchronous path and returns an already-resolved future.
func (db *DB) AppendAsync(v []float64) (*ingest.Future, error) {
	if db.readOnly.Load() {
		return nil, ErrReadOnly
	}
	if db.pipe == nil {
		id, err := db.Append(v)
		if err != nil {
			return nil, err
		}
		return ingest.Resolved(ingest.Result{ID: id, LSN: db.seq.Last()}), nil
	}
	return db.pipe.Submit(db.store.NextAppendLane(), ingest.Intent{Op: uint8(wal.OpAppend), Vec: v})
}

// UpdateAsync submits an update to the ingest pipeline. Same-key
// operations ride the same lane, so they commit in submission order.
func (db *DB) UpdateAsync(id uint32, v []float64) (*ingest.Future, error) {
	if db.readOnly.Load() {
		return nil, ErrReadOnly
	}
	if db.pipe == nil {
		if err := db.Update(id, v); err != nil {
			return nil, err
		}
		return ingest.Resolved(ingest.Result{ID: id, LSN: db.seq.Last()}), nil
	}
	return db.pipe.Submit(db.store.LaneOf(id), ingest.Intent{Op: uint8(wal.OpUpdate), ID: id, Vec: v})
}

// RemoveAsync submits a remove to the ingest pipeline.
func (db *DB) RemoveAsync(id uint32) (*ingest.Future, error) {
	if db.readOnly.Load() {
		return nil, ErrReadOnly
	}
	if db.pipe == nil {
		if err := db.Remove(id); err != nil {
			return nil, err
		}
		return ingest.Resolved(ingest.Result{ID: id, LSN: db.seq.Last()}), nil
	}
	return db.pipe.Submit(db.store.LaneOf(id), ingest.Intent{Op: uint8(wal.OpRemove), ID: id})
}

// IngestStats snapshots the pipeline counters; ok is false when the
// DB runs the synchronous write path.
func (db *DB) IngestStats() (ingest.Stats, bool) {
	if db.pipe == nil {
		return ingest.Stats{}, false
	}
	return db.pipe.Stats(), true
}
