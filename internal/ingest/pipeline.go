package ingest

import (
	"errors"
	"sync"
	"time"
)

// CommitFunc applies one drained batch to the store: apply every
// intent under one lock acquisition, journal the survivors as one WAL
// frame with one fsync, and fill results[i] for each intent (id, LSN,
// or per-intent apply error). A returned error is a whole-batch
// failure — typically the journal append — and fails every future in
// the batch.
type CommitFunc func(lane int, intents []Intent, results []Result) error

// Config sizes a pipeline.
type Config struct {
	// Lanes is the number of independent commit lanes — 1 for a
	// single store, the shard fan-out for a sharded one (0 means 1).
	// Intents in one lane commit in submission order.
	Lanes int
	// BatchSize caps records per group commit and must be positive
	// (the caller bounds it by wal.MaxBatchRecords). Each lane's queue
	// holds 4×BatchSize intents.
	BatchSize int
	// Block selects backpressure mode: park producers on a full queue
	// (true) or shed with ErrBacklog (false, the default — the HTTP
	// layer answers 429).
	Block bool
	// Commit applies drained batches.
	Commit CommitFunc
}

// Pipeline is the running subsystem: one queue and one committer
// goroutine per lane, plus shared stats.
type Pipeline struct {
	cfg       Config
	lanes     []*lane
	stats     stats
	committer sync.WaitGroup

	// closing orders sends against Close: Submit holds it shared while
	// it enqueues, Close holds it exclusively while it closes the
	// queues, so no send races the closing of its queue. A send that
	// parks on a full queue keeps holding it; that cannot deadlock,
	// because the committers that free space never take it.
	closing sync.RWMutex
	closed  bool // guarded by closing
}

type lane struct {
	idx   int
	queue chan *Future
	// committer-private scratch, reused across batches.
	batch   []*Future
	intents []Intent
	results []Result
}

// New starts a pipeline. Commit and a positive BatchSize are required.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Commit == nil || cfg.BatchSize <= 0 {
		return nil, errors.New("ingest: Config needs a Commit func and a positive BatchSize")
	}
	p := &Pipeline{cfg: cfg}
	for i := 0; i < max(cfg.Lanes, 1); i++ {
		p.lanes = append(p.lanes, &lane{
			idx: i,
			// Four batches: while one commits, the next ones queue
			// behind it and producers keep going; past that, queueing
			// only adds ack latency, so the queue blocks or sheds.
			queue:   make(chan *Future, 4*cfg.BatchSize),
			batch:   make([]*Future, 0, cfg.BatchSize),
			intents: make([]Intent, 0, cfg.BatchSize),
			results: make([]Result, cfg.BatchSize),
		})
	}
	p.committer.Add(len(p.lanes))
	for _, l := range p.lanes {
		go func(l *lane) {
			defer p.committer.Done()
			p.run(l)
		}(l)
	}
	return p, nil
}

// Submit enqueues one intent on a lane and returns its future. The
// caller picks the lane (the store routes same-key intents to a fixed
// lane so per-key order is preserved). A full queue parks or sheds
// per Config.Block; a closed pipeline reports ErrClosed. A producer
// parked when Close begins finishes its enqueue, and the drain commits
// its intent.
func (p *Pipeline) Submit(laneIdx int, in Intent) (*Future, error) {
	f := &Future{intent: in, enq: time.Now()}
	f.done.Add(1)
	p.closing.RLock()
	defer p.closing.RUnlock()
	if p.closed {
		return nil, ErrClosed
	}
	q := p.lanes[laneIdx].queue
	if p.cfg.Block {
		q <- f
	} else {
		select {
		case q <- f:
		default:
			p.stats.shed.Add(1)
			return nil, ErrBacklog
		}
	}
	p.stats.submitted.Add(1)
	return f, nil
}

// Close drains the pipeline: the queues stop accepting work,
// committers commit and resolve everything still queued, and Close
// returns once the last committer has exited. Safe to call more than
// once.
func (p *Pipeline) Close() {
	p.closing.Lock()
	if !p.closed {
		p.closed = true
		for _, l := range p.lanes {
			close(l.queue)
		}
	}
	p.closing.Unlock()
	p.committer.Wait()
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats {
	depth := 0
	for _, l := range p.lanes {
		depth += len(l.queue)
	}
	return p.stats.snapshot(depth)
}

// run is the committer loop for one lane: block for the first queued
// future, take whatever else is queued, up to BatchSize, without
// waiting for more — the batch is what arrived while the previous one
// committed — and commit it; exit once the queue is closed and empty.
func (p *Pipeline) run(l *lane) {
	for f := range l.queue {
		batch := append(l.batch[:0], f)
	fill:
		for len(batch) < p.cfg.BatchSize {
			select {
			case next, ok := <-l.queue:
				if !ok {
					break fill
				}
				batch = append(batch, next)
			default:
				break fill
			}
		}
		p.commit(l, batch)
	}
}

// commit hands one batch to the store and resolves every future; a
// whole-batch error fans out to each of them.
func (p *Pipeline) commit(l *lane, batch []*Future) {
	intents := l.intents[:0]
	for _, f := range batch {
		intents = append(intents, f.intent)
	}
	results := l.results[:len(batch)]
	clear(results)
	err := p.cfg.Commit(l.idx, intents, results)
	now := time.Now()
	for i, f := range batch {
		f.res = results[i]
		if err != nil {
			f.res = Result{Err: err}
		}
		p.stats.observeAck(now.Sub(f.enq))
		f.done.Done()
		batch[i] = nil
	}
	p.stats.observeBatch(len(batch))
}
