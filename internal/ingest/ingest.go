// Package ingest is the asynchronous write front-end of a planar
// store: a bounded multi-producer submission ring per commit lane
// accepts write intents (append/update/remove) and returns awaitable
// futures, while per-lane committer goroutines take whatever is
// queued, up to a size bound, and hand it to the store as one group
// commit — one lock acquisition, one multi-record WAL frame, one
// fsync, one contiguous LSN range from the sequencer (see DESIGN.md
// §13). Nothing waits for a batch to fill: a lone writer commits
// alone, and under load a batch is what queued during the previous
// commit's fsync.
//
// The write QPS of the synchronous path is capped by per-record fsync
// latency; grouping amortizes that latency over the whole batch, so
// sustained throughput scales with batch size while each writer still
// gets a durable ack — a future resolves only after the frame holding
// its record has been fsynced.
//
// Backpressure is explicit: a full ring either blocks the producer
// (Config.Block) or sheds the intent with ErrBacklog, which the HTTP
// layer maps to 429. Close drains — committers flush every queued
// intent, resolve its future, and exit; a submission racing with
// Close gets ErrClosed rather than a silently dropped write.
package ingest

import (
	"errors"
	"sync"
	"time"
)

// ErrBacklog reports a full submission ring in shedding mode; the
// caller should retry later (HTTP 429).
var ErrBacklog = errors.New("ingest: submission ring full")

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

// Future is the awaitable handle a submission returns. Exactly one
// goroutine may Wait on it, exactly once.
type Future struct {
	it *item
}

// Wait blocks until the committer resolves the intent — after the
// batch holding it has been applied and fsynced — and returns the
// outcome. The future is consumed: a second Wait would observe a
// recycled item.
func (f *Future) Wait() Result {
	res := <-f.it.done
	putItem(f.it)
	f.it = nil
	return res
}

// Resolved returns an already-resolved future, letting synchronous
// fallback paths satisfy the async API without a pipeline.
func Resolved(res Result) *Future {
	it := getItem()
	it.done <- res
	return &Future{it: it}
}

// item is the pooled unit flowing through the ring: the intent, its
// enqueue time (for ack-latency accounting), and the resolution
// channel the future waits on.
type item struct {
	intent Intent
	enq    time.Time
	done   chan Result
}

var itemPool = sync.Pool{
	New: func() any { return &item{done: make(chan Result, 1)} },
}

func getItem() *item { return itemPool.Get().(*item) }

func putItem(it *item) {
	it.intent = Intent{}
	it.enq = time.Time{}
	itemPool.Put(it)
}
