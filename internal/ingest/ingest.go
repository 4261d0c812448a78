// Package ingest is the asynchronous write front-end of a planar
// store: one bounded queue per commit lane — a buffered channel of
// futures — accepts write intents (append/update/remove) from any
// number of producers, while per-lane committer goroutines take
// whatever is queued, up to a size bound, and hand it to the store as
// one group commit — one lock acquisition, one multi-record WAL frame,
// one fsync, one contiguous LSN range from the sequencer (see
// DESIGN.md §13). Nothing waits for a batch to fill: a lone writer
// commits alone, and under load a batch is what queued during the
// previous commit's fsync.
//
// The write QPS of the synchronous path is capped by per-record fsync
// latency; grouping amortizes that latency over the whole batch, so
// sustained throughput scales with batch size while each writer still
// gets a durable ack — a future resolves only after the frame holding
// its record has been fsynced.
//
// Backpressure is explicit: a full queue either parks the producer
// (Config.Block) or sheds the intent with ErrBacklog, which the HTTP
// layer maps to 429. Close drains — committers commit every queued
// intent, resolve its future, and exit; a submission that begins after
// Close gets ErrClosed rather than a silently dropped write.
package ingest

import (
	"errors"
	"sync"
	"time"
)

// ErrBacklog reports a full submission queue in shedding mode; the
// caller should retry later (HTTP 429).
var ErrBacklog = errors.New("ingest: submission queue full")

// ErrClosed reports a submission against a pipeline that is draining
// or closed.
var ErrClosed = errors.New("ingest: pipeline closed")

// Intent is one write the pipeline will group-commit. Op uses the WAL
// op space (wal.OpAppend/OpUpdate/OpRemove); ID is the target point id
// for updates and removes and ignored for appends (the store assigns
// one at apply time).
type Intent struct {
	Op  uint8
	ID  uint32
	Vec []float64
}

// Result is the outcome of one committed intent. For a successful
// intent, ID is the (global) point id and LSN the commit sequence
// number its record received; Err carries a per-intent apply error
// (bad dimension, dead point) or a whole-batch journal failure.
type Result struct {
	ID  uint32
	LSN uint64
	Err error
}

// Future is the awaitable handle a submission returns, and the unit a
// lane's queue carries: the intent, its enqueue time (for ack-latency
// accounting), and the result the committer fills in before it marks
// the future done.
type Future struct {
	intent Intent
	enq    time.Time
	res    Result
	done   sync.WaitGroup
}

// Wait blocks until the committer resolves the intent — after the
// batch holding it has been applied and fsynced — and returns the
// outcome.
func (f *Future) Wait() Result {
	f.done.Wait()
	return f.res
}

// Resolved returns an already-resolved future, letting synchronous
// fallback paths satisfy the async API without a pipeline.
func Resolved(res Result) *Future { return &Future{res: res} }
