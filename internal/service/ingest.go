package service

import (
	"planar/internal/ingest"
	"planar/internal/wal"
)

// ErrBackpressure reports a write shed by a full ingest queue; the
// caller should retry later (the HTTP layer answers 429).
var ErrBackpressure = ingest.ErrBacklog

// startIngest wires the group-commit pipeline when opts.IngestBatch
// asks for one: a lane per shard, committed through the store's
// batch-commit path (partition.commitBatch). Replicas never configure
// a pipeline — their writes arrive pre-sequenced on the replication
// stream.
func (db *DB) startIngest(opts Options) error {
	if opts.IngestBatch <= 0 {
		return nil
	}
	p, err := ingest.New(ingest.Config{
		Lanes:     len(db.parts),
		BatchSize: min(opts.IngestBatch, wal.MaxBatchRecords),
		Block:     opts.IngestBlock,
		Commit: func(lane int, intents []ingest.Intent, results []ingest.Result) error {
			return db.parts[lane].commitBatch(intents, results)
		},
	})
	if err != nil {
		return err
	}
	db.pipe = p
	return nil
}

// future hands a write's outcome back as a future: the pipeline's own,
// or, for a direct write, one resolved with its result. A write that
// was not accepted or failed directly reports its error instead.
func future(f *ingest.Future, res ingest.Result) (*ingest.Future, error) {
	if f != nil || res.Err != nil {
		return f, res.Err
	}
	return ingest.Resolved(res), nil
}

// AppendAsync submits an append and returns an awaitable future; the
// write is durable (batch frame fsynced) when the future resolves.
// Without a pipeline the write has committed synchronously and the
// future is already resolved.
func (db *DB) AppendAsync(v []float64) (*ingest.Future, error) {
	return future(db.write(wal.OpAppend, 0, v))
}

// UpdateAsync submits an update. Same-key operations ride the same
// ingest lane, so they commit in submission order.
func (db *DB) UpdateAsync(id uint32, v []float64) (*ingest.Future, error) {
	return future(db.write(wal.OpUpdate, id, v))
}

// RemoveAsync submits a remove.
func (db *DB) RemoveAsync(id uint32) (*ingest.Future, error) {
	return future(db.write(wal.OpRemove, id, nil))
}

// IngestStats snapshots the pipeline counters; ok is false when the
// DB runs the synchronous write path.
func (db *DB) IngestStats() (ingest.Stats, bool) {
	if db.pipe == nil {
		return ingest.Stats{}, false
	}
	return db.pipe.Stats(), true
}
