package pager

import (
	"sync"
	"sync/atomic"
	"time"
)

// Writer is the background page writer: a single goroutine that
// periodically (and on cache-pressure kicks) invokes a flush callback
// to write dirty frames to their shadow pages ahead of the next
// checkpoint. The callback is supplied by the tier that owns the
// pages (codec.PagedStore routes it to the paged B+ tree arenas); it
// flushes at most maxPages frames and returns how many it wrote.
//
// Safety: under the COW-per-epoch discipline every dirty frame maps
// to a page that the durable superblock does not reference (it was
// freshly allocated or recycled from the committed free list this
// epoch), so writing it early is invisible to crash recovery — the
// superblock flip at Commit is what publishes the epoch, and a torn
// shadow write before that flip is simply dead bytes.
type Writer struct {
	flush    func(maxPages int) (int, error)
	interval time.Duration
	batch    int

	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup // the writer goroutine and every Drain in progress

	// mu orders a Drain's wg.Add before Close's wg.Wait: no Drain
	// starts once closed is set.
	mu     sync.Mutex
	closed bool // guarded by mu

	pages  atomic.Uint64
	bytes  atomic.Uint64
	rounds atomic.Uint64
	errs   atomic.Uint64
}

// WriterOptions configures a background Writer.
type WriterOptions struct {
	// Interval between unprompted writeback rounds. Zero means
	// DefaultWriterInterval.
	Interval time.Duration
	// BatchPages is the flush granularity per callback invocation.
	// Zero means DefaultWriterBatchPages.
	BatchPages int
	// HighWater is the dirty-frame count at which the cache pressure
	// hook kicks the writer immediately rather than waiting for the
	// interval. Zero means 2×BatchPages. The caller wires this to
	// Cache.SetPressure.
	HighWater int
}

// Defaults for WriterOptions zero values.
const (
	DefaultWriterInterval   = 25 * time.Millisecond
	DefaultWriterBatchPages = 128
)

// Resolved returns a copy with zero fields replaced by defaults.
func (o WriterOptions) Resolved() WriterOptions {
	w := o
	if w.Interval <= 0 {
		w.Interval = DefaultWriterInterval
	}
	if w.BatchPages <= 0 {
		w.BatchPages = DefaultWriterBatchPages
	}
	if w.HighWater <= 0 {
		w.HighWater = 2 * w.BatchPages
	}
	return w
}

// NewWriter starts the background writer goroutine. flush must be
// safe to call from the writer goroutine concurrently with foreground
// mutations (the paged arenas serialize internally) and must return
// the number of pages it wrote. Close joins the goroutine.
func NewWriter(opts WriterOptions, flush func(maxPages int) (int, error)) *Writer {
	o := opts.Resolved()
	w := &Writer{
		flush:    flush,
		interval: o.Interval,
		batch:    o.BatchPages,
		kick:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.run()
	}()
	return w
}

// Kick nudges the writer to run a round now. Non-blocking; used as
// the cache-pressure hook.
func (w *Writer) Kick() {
	select {
	case w.kick <- struct{}{}:
	default:
	}
}

func (w *Writer) run() {
	t := time.NewTimer(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-w.kick:
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
		case <-t.C:
		}
		w.round()
		t.Reset(w.interval)
	}
}

// round flushes until the tier reports a partial batch (no more dirty
// pages than one callback could take) or stop is signalled.
func (w *Writer) round() {
	w.rounds.Add(1)
	for {
		select {
		case <-w.stop:
			return
		default:
		}
		n, err := w.flush(w.batch)
		if err != nil {
			// Writeback is advisory: the checkpoint path will retry
			// the same pages under the store lock and surface the
			// error there. Count it and back off to the next tick.
			w.errs.Add(1)
			return
		}
		w.pages.Add(uint64(n))
		w.bytes.Add(uint64(n) * PageSize)
		if n < w.batch {
			return
		}
	}
}

// Drain synchronously flushes until the tier reports nothing left.
// Callers run it before taking a checkpoint's write lock so the
// locked section only handles the residual dirtied since. After Close
// it writes nothing: the file under the tier may be closing.
func (w *Writer) Drain() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.wg.Add(1)
	w.mu.Unlock()
	defer w.wg.Done()
	for {
		n, err := w.flush(w.batch)
		if err != nil {
			w.errs.Add(1)
			return err
		}
		w.pages.Add(uint64(n))
		w.bytes.Add(uint64(n) * PageSize)
		if n == 0 {
			return nil
		}
	}
}

// Close stops the writer, waits for a Drain in progress, and joins
// its goroutine. Idempotent.
func (w *Writer) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.wg.Wait()
}

// WriterStats is a point-in-time snapshot of writer counters.
type WriterStats struct {
	Pages  uint64 // frames flushed to shadow pages
	Bytes  uint64 // bytes written (Pages × PageSize)
	Rounds uint64 // writeback rounds started
	Errors uint64 // flush callbacks that returned an error
}

// Stats returns current counters.
func (w *Writer) Stats() WriterStats {
	return WriterStats{
		Pages:  w.pages.Load(),
		Bytes:  w.bytes.Load(),
		Rounds: w.rounds.Load(),
		Errors: w.errs.Load(),
	}
}
