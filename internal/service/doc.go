// Package service is the durable scalar-product store a downstream
// application embeds or exposes over HTTP (cmd/planarserve): a point
// store partitioned across N independent shards, of which the
// ordinary unsharded store is the N = 1 case. A DB always lives in a
// directory; opening it restores each partition's checkpoint (a
// CRC-checked snapshot or a page file, package codec) and replays its
// write-ahead log (package wal).
//
// Points are hash-partitioned by id: global id g lives on shard
// g mod N as local id g div N, a bijection that keeps every shard's
// local id space dense (exactly what core.PointStore assigns) and
// makes routing a single modulo. Each shard owns a full vertical
// slice of the engine — its own core.Multi (point store, planar
// indexes), its own write-ahead-log segment and checkpoint file,
// guarded by a per-shard sync.RWMutex — so writers on different
// shards never contend and crash recovery replays all shards in
// parallel. Opening and recovering a partition, checkpointing it and
// journaling its commits happen in partition.go and nowhere else.
//
// On disk a partitioned store keeps shards.meta and one shard-NNN/
// directory per partition; a one-partition store keeps its files in
// the directory itself, with no meta file (see layout). A directory
// reopens in the layout it was created with, and the two are not
// convertible in place.
//
// The paper's accept / verify / reject decision is made per point
// from that point's own key, so the answer over a partitioned point
// set is the union of the partitions' answers, provided every
// partition is read in the same state. A read that spans the
// partitions (every query, Len, the replication CaptureState)
// therefore holds all of their read locks, taken in index order, for
// its whole run; a commit applies and takes its LSN under its own
// partition's write lock, so that cut is the store at one LSN. These
// locks and the sequencer's are the only ones the store takes.
// Queries run scatter-gather through the internal/exec pipeline: the
// query is planned once per shard (interval sizes are data-dependent,
// so shards choose independently), executed concurrently on a bounded
// worker pool, and the per-shard answers are merged — id sets in
// ascending global id order, counts by summation, top-k by a k-way
// merge on (distance, id) that preserves the per-shard Claim-3
// cut-off. Per-stage execution Stats are rolled up across shards so
// the HTTP layer keeps one observability vocabulary. With one
// partition there is nothing to gather: its answer is returned as it
// is, ids in index order, with no rewrite, copy or sort.
//
// Around that engine sit the service's own concerns: the public
// mutation surface with its read-only guard (replicas), the
// group-commit ingest pipeline, pacing, and the query metrics rollup.
package service
