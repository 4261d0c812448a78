package ingest

import (
	"fmt"
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
	// single store, the shard fan-out for a sharded one. Intents in
	// one lane commit in submission order.
	Lanes int
	// BatchSize caps records per group commit (default 256, hard
	// ceiling wal.MaxBatchRecords via the committer's WAL). Each lane's
	// ring holds 4×BatchSize intents.
	BatchSize int
	// Block selects backpressure mode: block producers on a full ring
	// (true) or shed with ErrBacklog (false, the default — the HTTP
	// layer answers 429).
	Block bool
	// Commit applies drained batches.
	Commit CommitFunc
}

// DefaultBatchSize is the records-per-group-commit cap when Config
// leaves BatchSize zero.
const DefaultBatchSize = 256

// Pipeline is the running subsystem: one ring and one committer
// goroutine per lane, plus shared stats.
type Pipeline struct {
	cfg       Config
	lanes     []*lane
	stats     stats
	done      chan struct{} // closed by Close; committers drain and exit
	committer sync.WaitGroup
	closeOnce sync.Once
}

type lane struct {
	idx  int
	ring *ring
	// committer-private scratch, reused across batches.
	items   []*item
	intents []Intent
	results []Result
}

// New starts a pipeline. Commit must be set; zero sizing fields take
// defaults.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Commit == nil {
		return nil, fmt.Errorf("ingest: Config.Commit is required")
	}
	if cfg.Lanes <= 0 {
		cfg.Lanes = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = DefaultBatchSize
	}
	p := &Pipeline{cfg: cfg, done: make(chan struct{})}
	for i := 0; i < cfg.Lanes; i++ {
		p.lanes = append(p.lanes, &lane{
			idx:     i,
			ring:    newRing(4 * cfg.BatchSize),
			items:   make([]*item, 0, cfg.BatchSize),
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

// Lanes returns the pipeline's lane count (the store's routing
// modulus).
func (p *Pipeline) Lanes() int { return len(p.lanes) }

// Submit enqueues one intent on a lane and returns its future. The
// caller picks the lane (the store routes same-key intents to a fixed
// lane so per-key order is preserved). A full ring blocks or sheds
// per Config.Block; a closed pipeline reports ErrClosed.
func (p *Pipeline) Submit(laneIdx int, in Intent) (*Future, error) {
	l := p.lanes[laneIdx]
	it := getItem()
	it.intent = in
	it.enq = time.Now()
	if err := l.ring.push(it, p.cfg.Block); err != nil {
		putItem(it)
		if err == ErrBacklog {
			p.stats.shed.Add(1)
		}
		return nil, err
	}
	p.stats.submitted.Add(1)
	return &Future{it: it}, nil
}

// Close drains the pipeline: rings stop accepting work, committers
// flush and resolve everything still queued, and Close returns once
// the last committer has exited. Safe to call more than once.
func (p *Pipeline) Close() {
	p.closeOnce.Do(func() {
		for _, l := range p.lanes {
			l.ring.close()
		}
		close(p.done)
	})
	p.committer.Wait()
}

// Stats snapshots the pipeline counters.
func (p *Pipeline) Stats() Stats {
	depth := 0
	for _, l := range p.lanes {
		depth += l.ring.depth()
	}
	return p.stats.snapshot(depth)
}

// run is the committer loop for one lane: collect a batch, commit it,
// resolve its futures; repeat until the ring is closed and drained.
func (p *Pipeline) run(l *lane) {
	for {
		batch := p.collect(l)
		if len(batch) == 0 {
			return
		}
		p.commit(l, batch)
	}
}

// collect blocks for the first queued item, then takes whatever else
// is queued, up to BatchSize, without waiting for more: the batch is
// what arrived while the previous one committed. After Close it
// returns whatever remains, then an empty batch.
func (p *Pipeline) collect(l *lane) []*item {
	batch := l.items[:0]
	for {
		if batch = l.ring.tryPop(batch, p.cfg.BatchSize); len(batch) > 0 {
			return batch
		}
		select {
		case <-l.ring.notify:
		case <-p.done:
			// Final drain: pick up anything pushed before close won
			// the race; an empty result ends the committer.
			return l.ring.tryPop(batch, p.cfg.BatchSize)
		}
	}
}

// commit hands one batch to the store and resolves every future; a
// whole-batch error fans out to each of them.
func (p *Pipeline) commit(l *lane, batch []*item) {
	intents := l.intents[:0]
	for _, it := range batch {
		intents = append(intents, it.intent)
	}
	results := l.results[:len(batch)]
	for i := range results {
		results[i] = Result{}
	}
	err := p.cfg.Commit(l.idx, intents, results)
	now := time.Now()
	for i, it := range batch {
		res := results[i]
		if err != nil {
			res = Result{Err: err}
		}
		p.stats.observeAck(now.Sub(it.enq))
		it.done <- res
		batch[i] = nil
	}
	p.stats.observeBatch(len(batch))
}
