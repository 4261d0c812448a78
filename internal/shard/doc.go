// Package shard is the storage engine under package service: a point
// store partitioned across N independent shards, of which the
// ordinary unsharded store is the N = 1 case.
//
// Points are hash-partitioned by id: global id g lives on shard
// g mod N as local id g div N, a bijection that keeps every shard's
// local id space dense (exactly what core.PointStore assigns) and
// makes routing a single modulo. Each shard owns a full vertical
// slice of the engine — its own core.Multi (point store, planar
// indexes), its own write-ahead-log segment and checkpoint file (a
// flat snapshot or a page file), guarded by a per-shard sync.RWMutex
// — so writers on different shards never contend and crash recovery
// replays all shards in parallel. Opening and recovering a partition,
// checkpointing it and journaling its commits happen here and nowhere
// else.
//
// On disk a partitioned store keeps shards.meta and one shard-NNN/
// directory per partition; a one-partition store keeps its files in
// the directory itself, with no meta file (see layout). A directory
// reopens in the layout it was created with.
//
// The paper's accept / verify / reject decision is made per point
// from that point's own key, so the answer over a partitioned point
// set is the union of the partitions' answers, provided every
// partition is read in the same state. A read that spans the
// partitions (every query, Len, the replication Capture) therefore
// holds all of their read locks, taken in index order, for its whole
// run; a commit applies and takes its LSN under its own partition's
// write lock, so that cut is the store at one LSN. Queries run
// scatter-gather through the internal/exec pipeline: the query is
// planned once per shard (interval sizes are data-dependent, so
// shards choose independently), executed concurrently on a bounded
// worker pool, and
// the per-shard answers are merged — id sets in ascending global id
// order, counts by summation, top-k by a k-way merge on (distance, id)
// that preserves the per-shard Claim-3 cut-off. Per-stage execution
// Stats are rolled up across shards so the service and HTTP layers
// keep one observability vocabulary. With one partition there is
// nothing to gather: its answer is returned as it is, ids in index
// order, with no rewrite, copy or sort.
//
// A Store opened with an empty directory is ephemeral (no WAL, no
// snapshots) — the configuration used by benchmarks and tests.
package shard
