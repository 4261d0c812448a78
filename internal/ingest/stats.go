package ingest

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// ackBuckets is the ack-latency histogram width: bucket i counts acks
// with latency in [2^(i-1), 2^i) microseconds (bucket 0 is <1µs), so
// the top bucket covers ~34s — far beyond any fsync.
const ackBuckets = 26

// sizeBuckets is the batch-size histogram width: bucket i counts
// batches of size in [2^i, 2^(i+1)), so the top bucket holds
// wal.MaxBatchRecords-sized batches (4096 = 2^12).
const sizeBuckets = 13

// stats is the pipeline's shared counter block. Everything is atomic:
// committers and producers bump counters without a lock, and snapshot
// readers tolerate being a tick behind.
type stats struct {
	submitted atomic.Uint64
	shed      atomic.Uint64
	batches   atomic.Uint64
	records   atomic.Uint64
	acks      [ackBuckets]atomic.Uint64
	sizes     [sizeBuckets]atomic.Uint64
}

func (s *stats) observeBatch(n int) {
	s.batches.Add(1)
	s.records.Add(uint64(n))
	i := bits.Len64(uint64(n)) - 1 // floor(log2 n); n ≥ 1
	if i >= sizeBuckets {
		i = sizeBuckets - 1
	}
	s.sizes[i].Add(1)
}

func (s *stats) observeAck(d time.Duration) {
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us)
	if i >= ackBuckets {
		i = ackBuckets - 1
	}
	s.acks[i].Add(1)
}

// Stats is a point-in-time snapshot of pipeline behavior, shaped for
// the /v1/stats ingest block.
type Stats struct {
	// Submitted counts intents accepted into a queue; Shed counts
	// intents refused with ErrBacklog.
	Submitted uint64
	Shed      uint64
	// Batches and Records count group commits and the records they
	// carried; FsyncsSaved is Records-Batches — the fsyncs the
	// synchronous path would have issued but grouping did not.
	Batches     uint64
	Records     uint64
	FsyncsSaved uint64
	// QueueDepth is the current total of queued intents across lanes.
	QueueDepth int
	// BatchSizes[i] counts batches of size in [2^i, 2^(i+1)).
	BatchSizes [sizeBuckets]uint64
	// AckP50 and AckP99 are ack-latency percentiles (submit to
	// resolve, which is after fsync) estimated from a power-of-two
	// microsecond histogram — each reported as its bucket's upper
	// bound.
	AckP50 time.Duration
	AckP99 time.Duration
}

func (s *stats) snapshot(depth int) Stats {
	out := Stats{
		Submitted:  s.submitted.Load(),
		Shed:       s.shed.Load(),
		Batches:    s.batches.Load(),
		Records:    s.records.Load(),
		QueueDepth: depth,
	}
	if out.Records > out.Batches {
		out.FsyncsSaved = out.Records - out.Batches
	}
	for i := range out.BatchSizes {
		out.BatchSizes[i] = s.sizes[i].Load()
	}
	var acks [ackBuckets]uint64
	var total uint64
	for i := range acks {
		acks[i] = s.acks[i].Load()
		total += acks[i]
	}
	out.AckP50 = percentile(acks, total, 50)
	out.AckP99 = percentile(acks, total, 99)
	return out
}

// percentile returns the upper bound of the histogram bucket holding
// the p-th percentile observation (0 when nothing was observed).
// Bucket i's upper bound is 2^i microseconds.
func percentile(h [ackBuckets]uint64, total uint64, p int) time.Duration {
	if total == 0 {
		return 0
	}
	rank := (total*uint64(p) + 99) / 100
	var cum uint64
	for i, c := range h {
		cum += c
		if cum >= rank {
			return time.Duration(uint64(1)<<i) * time.Microsecond
		}
	}
	return time.Duration(uint64(1)<<(ackBuckets-1)) * time.Microsecond
}
