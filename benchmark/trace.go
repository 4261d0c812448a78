package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"planar/internal/btree"
	"planar/internal/core"
	"planar/internal/kernel"
	"planar/internal/service"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

// The traced run yields the per-layer metrics. Nothing inside the
// program is instrumented: every layer is timed from the harness,
// through the layer's public functions.
//
// A read is first issued as in the untraced run; its response carries
// the plan and execute times of that very request. It is then replayed
// one layer down at a time, each replay warm: through the handler,
// through service.DB.Query, through core.Multi.InequalityIDs, and last
// as the primitives execute is made of (rank descents, the accepted
// walk, the chunked range scan, gather, filter) on a tree and a row
// block of the harness's own, sized by the intervals the request
// reported. A layer's self time is its replay minus the replay one
// layer down.
//
// A write cannot be replayed on the store that took it, so the same
// sequence of writes is fed to twins: the handler on the measured
// store, service.DB on a second store, core.Multi in memory,
// wal.Writer on a log of its own and btree.Tree on one tree.

// Span names, one per boundary the harness times.
const (
	spServe = iota
	spServeWarm
	spServiceQuery
	spCoreQuery
	spPlan
	spExecute
	spRank
	spAscend
	spRange
	spGather
	spFilter
	spWriteServe
	spWriteService
	spWriteCore
	spWriteWAL
	spWriteTree
	spCheckpointServe
	spCheckpointService
)

var spanNames = []string{
	"httpapi.ServeHTTP", "httpapi.ServeHTTP(warm)", "service.DB.Query", "core.Multi.InequalityIDs",
	"exec.plan", "exec.execute",
	"btree.RankLE", "btree.AscendLE", "btree.RangeChunks", "kernel.Gather", "kernel.FilterLE",
	"httpapi.ServeHTTP(write)", "service.DB.write", "core.Multi.write", "wal.Writer.Append", "btree.Insert/Delete",
	"httpapi.ServeHTTP(checkpoint)", "service.DB.Checkpoint",
}

// span is one timed interval: what ran, for which operation, caused by
// which other span (-1 for a request's root), from when to when in
// nanoseconds since the trace began.
type span struct {
	name, op, parent int32
	start, end       int64
}

type tracer struct {
	t0    time.Time
	spans []span
	op    int32
}

// next starts the spans of another operation.
func (t *tracer) next() {
	if t != nil {
		t.op++
	}
}

// add records a span and returns its index. A nil tracer records
// nothing.
func (t *tracer) add(name int, parent int32, start time.Time, d time.Duration) int32 {
	if t == nil {
		return -1
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{int32(name), t.op, parent, s, s + d.Nanoseconds()})
	return int32(len(t.spans) - 1)
}

// dumpLimit spans go to the trace file, the run's first: a twelve-second
// select run records 1.7 million.
const dumpLimit = 200_000

// dump writes the spans as {"fields":[...],"names":[...],"spans":[[...],...]}.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	names, _ := json.Marshal(spanNames)
	fmt.Fprintf(f, `{"fields":["name","op","parent","start_ns","end_ns"],"names":%s,"spans":[`, names)
	for i, s := range t.spans[:min(len(t.spans), dumpLimit)] {
		sep := ","
		if i == 0 {
			sep = ""
		}
		fmt.Fprintf(f, "%s\n[%d,%d,%d,%d,%d]", sep, s.name, s.op, s.parent, s.start, s.end)
	}
	if _, err := fmt.Fprintln(f, "\n]}"); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// twins are the stores the ladders descend into.
type twins struct {
	svc     *service.DB // same layout as the measured store
	multi   *core.Multi // in memory
	log     *wal.Writer
	logPath string
	lsn     uint64      // next LSN of the log twin
	tree    *btree.Tree // index 0, mutated by the write ladder
	probe   *btree.Tree // index 0 over the initial points, never mutated: the read primitives' tree
	keys    []float64   // probe's keys, ascending
	bulkMS  float64     // what btree.BulkLoad of the N entries took

	// scratch of the read primitives
	gather  []float64
	matches []uint32
	ids     []uint32
	mids    []uint32
	sink    int
}

func (b *bench) buildTwins(runDir string) (*twins, error) {
	tw := &twins{logPath: filepath.Join(runDir, "twin.log")}
	svcDir := filepath.Join(runDir, "twin")
	if _, err := buildStore(svcDir, b.ds, b.spec.paged, 1); err != nil {
		return nil, fmt.Errorf("building the service twin: %w", err)
	}
	var err error
	if tw.svc, err = service.Open(svcDir, servingOptions(b.spec.paged, false)); err != nil {
		return nil, err
	}
	store, err := core.NewPointStore(b.ds.dim)
	if err != nil {
		return nil, err
	}
	if tw.multi, err = core.NewMulti(store); err != nil {
		return nil, err
	}
	for i := 0; i < b.ds.n; i++ {
		if _, err := tw.multi.Append(b.ds.row(i)); err != nil {
			return nil, err
		}
	}
	specs := make([]core.NormalSpec, len(b.ds.normals))
	for i, c := range b.ds.normals {
		specs[i] = core.NormalSpec{Normal: c, Signs: vecmath.FirstOctant(b.ds.dim)}
	}
	if _, err := tw.multi.AddNormals(specs); err != nil {
		return nil, err
	}
	if tw.log, err = wal.Create(tw.logPath, b.ds.dim, 1); err != nil {
		return nil, err
	}
	tw.lsn = 1

	entries := make([]btree.Entry, b.ds.n)
	for i := range entries {
		entries[i] = btree.Entry{Key: dot(b.ds.normals[0], b.ds.row(i)), ID: uint32(i)}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	start := time.Now()
	tw.tree = btree.BulkLoad(entries)
	tw.bulkMS = ms(time.Since(start))
	tw.probe = btree.BulkLoad(entries)
	tw.keys = make([]float64, len(entries))
	for i, e := range entries {
		tw.keys[i] = e.Key
	}
	tw.gather = make([]float64, kernel.BlockRows*b.ds.dim)
	tw.matches = make([]uint32, kernel.BlockRows)
	return tw, nil
}

func (tw *twins) close() {
	_ = tw.svc.Close()
	_ = tw.log.Close()
}

// readTrace is what one laddered read measured. Times are in
// nanoseconds.
type readTrace struct {
	d0, d0w, d1w, d2w  float64
	planW, execW       float64 // reported by the core replay
	plan, exec         float64 // reported by the request itself
	hit, fellBack      bool
	n, accepted        int
	verified, matched  int
	respBytes          int
	rank, ascend       float64
	collect, rangeScan float64
	gather, filter     float64
}

// ladderRead issues the next read and descends the ladder under it.
func (b *bench) ladderRead(tr *tracer, tw *twins) (readTrace, bool) {
	q := b.nextQuery()
	cq := core.Query{A: q.a, B: q.b, Op: core.LE}
	b.attempted++
	tr.next()
	var rt readTrace

	start := time.Now()
	status, resp, d := b.api.call(http.MethodPost, urlQuery, q.body)
	if status != http.StatusOK {
		b.fail("query: status %d: %s", status, resp)
		return rt, false
	}
	root := tr.add(spServe, -1, start, d)
	rt.d0, rt.respBytes = float64(d.Nanoseconds()), len(resp)
	if b.nextRead%checkEvery == 0 && !b.checkAnswer(q, resp) {
		return rt, false
	}
	var reply struct {
		Stats replyStats `json:"stats"`
	}
	if err := json.Unmarshal(resp, &reply); err != nil {
		b.fail("query: undecodable response: %v", err)
		return rt, false
	}
	st := reply.Stats
	rt.plan, rt.exec = float64(st.PlanNanos), float64(st.ExecNanos)
	rt.hit, rt.fellBack = st.CacheHit, st.FellBack
	rt.accepted, rt.verified, rt.matched = st.Accepted, st.Verified, st.Matched
	rt.n = b.sh.len()
	tr.add(spPlan, root, start, time.Duration(st.PlanNanos))
	execSpan := tr.add(spExecute, root, start.Add(time.Duration(st.PlanNanos)), time.Duration(st.ExecNanos))

	start = time.Now()
	_, _, d = b.api.call(http.MethodPost, urlQuery, q.body)
	warm := tr.add(spServeWarm, root, start, d)
	rt.d0w = float64(d.Nanoseconds())

	start = time.Now()
	_, _, err := b.db.Query(cq)
	d = time.Since(start)
	if err != nil {
		b.fail("service replay: %v", err)
		return rt, false
	}
	svc := tr.add(spServiceQuery, warm, start, d)
	rt.d1w = float64(d.Nanoseconds())

	start = time.Now()
	_, cst, err := b.db.Multi().InequalityIDs(cq)
	d = time.Since(start)
	if err != nil {
		b.fail("core replay: %v", err)
		return rt, false
	}
	tr.add(spCoreQuery, svc, start, d)
	rt.d2w = float64(d.Nanoseconds())
	rt.planW, rt.execW = float64(cst.PlanNanos), float64(cst.ExecNanos)

	tw.primitives(tr, execSpan, &rt, q, b.ds)
	return rt, true
}

// primitives times what execute is made of, on the probe tree and the
// initial rows, over intervals as large as the request reported.
func (tw *twins) primitives(tr *tracer, parent int32, rt *readTrace, q *query, ds *dataset) {
	n := len(tw.keys)
	acc := min(rt.accepted, n)
	end := min(acc+rt.verified, n)
	lo, hi := math.Inf(-1), math.Inf(-1)
	if acc > 0 {
		lo = tw.keys[acc-1]
	}
	if end > 0 {
		hi = tw.keys[end-1]
	}
	t := tw.probe

	start := time.Now()
	tw.sink += t.RankLE(lo) + t.RankLE(hi)
	d := time.Since(start)
	tr.add(spRank, parent, start, d)
	rt.rank = float64(d.Nanoseconds())

	tw.ids = tw.ids[:0]
	start = time.Now()
	t.AscendLE(lo, func(e btree.Entry) bool { tw.ids = append(tw.ids, e.ID); return true })
	d = time.Since(start)
	tr.add(spAscend, parent, start, d)
	rt.ascend = float64(d.Nanoseconds())

	start = time.Now()
	tw.ids = t.CollectRange(math.Inf(-1), lo, tw.ids[:0])
	rt.collect = float64(time.Since(start).Nanoseconds())

	start = time.Now()
	t.RangeChunks(lo, hi, func(_ []float64, ids []uint32) bool { tw.sink += len(ids); return true })
	d = time.Since(start)
	tr.add(spRange, parent, start, d)
	rt.rangeScan = float64(d.Nanoseconds())

	// Gather alone, then gather and filter: the difference is the filter.
	tw.mids = t.CollectRange(lo, hi, tw.mids[:0])
	dd := ds.dim
	start = time.Now()
	for off := 0; off < len(tw.mids); off += kernel.BlockRows {
		blk := tw.mids[off:min(off+kernel.BlockRows, len(tw.mids))]
		kernel.Gather(ds.points, dd, blk, tw.gather)
	}
	d = time.Since(start)
	tr.add(spGather, parent, start, d)
	rt.gather = float64(d.Nanoseconds())
	start = time.Now()
	for off := 0; off < len(tw.mids); off += kernel.BlockRows {
		blk := tw.mids[off:min(off+kernel.BlockRows, len(tw.mids))]
		kernel.Gather(ds.points, dd, blk, tw.gather)
		tw.sink += kernel.FilterLE(q.a, q.b, tw.gather[:len(blk)*dd], tw.matches)
	}
	d = time.Since(start)
	rt.filter = max(0, float64(d.Nanoseconds())-rt.gather)
	tr.add(spFilter, parent, start.Add(time.Duration(rt.gather)), time.Duration(rt.filter))
}

// writeTrace is what one laddered write measured, in nanoseconds.
type writeTrace struct {
	kind                     wal.Op
	serve, svc, core, logApp float64
	insert, remove           float64 // tree twin; 0 when the op has no such half
}

// ladderWrite issues the next write on the measured store and feeds it
// to every twin.
func (b *bench) ladderWrite(tr *tracer, tw *twins) (writeTrace, bool) {
	op := b.nextWrite()
	tr.next()
	var old []float64
	if op.kind != wal.OpAppend {
		old = append(old, b.sh.vec(op.id)...)
	}
	failed := b.failed
	start := time.Now()
	serve := b.send(op) * 1e3
	if b.failed != failed {
		return writeTrace{}, false
	}
	root := tr.add(spWriteServe, -1, start, time.Duration(serve))
	wt, err := tw.feed(tr, root, op, old, b.ds.normals[0])
	if err != nil {
		b.fail("%v", err)
		return wt, false
	}
	wt.serve = serve
	return wt, true
}

// feed applies op to every twin, timing each. old is the vector the
// point had before, c the normal of the tree twin's index.
func (tw *twins) feed(tr *tracer, root int32, op writeOp, old, c []float64) (writeTrace, error) {
	wt := writeTrace{kind: op.kind}
	var err error
	start := time.Now()
	switch op.kind {
	case wal.OpAppend:
		var id uint32
		if id, err = tw.svc.Append(op.vec); err == nil && id != op.id {
			err = fmt.Errorf("assigned id %d, expected %d", id, op.id)
		}
	case wal.OpUpdate:
		err = tw.svc.Update(op.id, op.vec)
	default:
		err = tw.svc.Remove(op.id)
	}
	d := time.Since(start)
	if err != nil {
		return wt, fmt.Errorf("service twin: %w", err)
	}
	svc := tr.add(spWriteService, root, start, d)
	wt.svc = float64(d.Nanoseconds())

	start = time.Now()
	switch op.kind {
	case wal.OpAppend:
		_, err = tw.multi.Append(op.vec)
	case wal.OpUpdate:
		err = tw.multi.Update(op.id, op.vec)
	default:
		err = tw.multi.Remove(op.id)
	}
	d = time.Since(start)
	if err != nil {
		return wt, fmt.Errorf("core twin: %w", err)
	}
	tr.add(spWriteCore, svc, start, d)
	wt.core = float64(d.Nanoseconds())

	start = time.Now()
	err = tw.log.Append(wal.Record{Op: op.kind, LSN: tw.lsn, ID: op.id, Vec: op.vec})
	d = time.Since(start)
	if err != nil {
		return wt, fmt.Errorf("log twin: %w", err)
	}
	tw.lsn++
	tr.add(spWriteWAL, svc, start, d)
	wt.logApp = float64(d.Nanoseconds())

	start = time.Now()
	if op.kind != wal.OpAppend {
		tw.tree.Delete(dot(c, old), op.id)
		wt.remove = float64(time.Since(start).Nanoseconds())
	}
	mid := time.Now()
	if op.kind != wal.OpRemove {
		tw.tree.Insert(dot(c, op.vec), op.id)
		wt.insert = float64(time.Since(mid).Nanoseconds())
	}
	tr.add(spWriteTree, svc, start, time.Since(start))
	return wt, nil
}

// tracedRound is the results of one round of the traced phase.
type tracedRound struct {
	plain      []float64 // untraced reads of the round's first half, ns
	reads      []readTrace
	writes     []writeTrace
	checkpoint float64 // through the handler, ms
	svcCheck   float64 // service twin's Checkpoint, ms
	pages      float64 // pages the measured store's checkpoint wrote (paged layout)
}

// tracedRound runs one round of the workload's shape twice over: first
// plainly, as the untraced run would, then laddered. The plain half is
// what the tracing overhead is measured against.
func (b *bench) tracedRound(tr *tracer, tw *twins, reads, writes int, checkpoint bool) tracedRound {
	var r tracedRound
	total := reads + writes
	for i := 0; i < total; i++ {
		if isWrite(i, reads, writes) {
			// keep the twins in step: every write is laddered
			if wt, ok := b.ladderWrite(tr, tw); ok {
				r.writes = append(r.writes, wt)
			}
		} else {
			r.plain = append(r.plain, b.read()*1e3)
		}
	}
	for i := 0; i < total; i++ {
		if isWrite(i, reads, writes) {
			if wt, ok := b.ladderWrite(tr, tw); ok {
				r.writes = append(r.writes, wt)
			}
		} else if rt, ok := b.ladderRead(tr, tw); ok {
			r.reads = append(r.reads, rt)
		}
	}
	if checkpoint && writes > 0 {
		b.attempted++
		tr.next()
		start := time.Now()
		status, _, d := b.api.call(http.MethodPost, urlCheckpoint, nil)
		if status != http.StatusOK {
			b.fail("checkpoint: status %d", status)
		}
		root := tr.add(spCheckpointServe, -1, start, d)
		r.checkpoint = ms(d)
		if st, ok := b.db.PageStats(); ok {
			r.pages = float64(st.IncrementalPages)
		}
		start = time.Now()
		if err := tw.svc.Checkpoint(); err != nil {
			b.fail("service twin checkpoint: %v", err)
		}
		d = time.Since(start)
		tr.add(spCheckpointService, root, start, d)
		r.svcCheck = ms(d)
	}
	return r
}

// runTraced is one traced run: the per-layer metrics of one workload.
func runTraced(cfg config, w io.Writer) (result, error) {
	b, runDir, err := newBench(cfg, w)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)
	spec, ds := b.spec, b.ds
	loaded, err := b.openFresh(filepath.Join(runDir, "data"))
	if err != nil {
		return result{}, err
	}
	defer func() { _ = b.db.Close() }()
	if err := b.calibrate(); err != nil {
		return result{}, err
	}
	b.checkAllQueries()
	m := map[string]metric{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}

	// The cost model is fitted before any write: it needs all three read
	// classes on the one store.
	if err := b.fitModel(set); err != nil {
		return result{}, err
	}

	tw, err := b.buildTwins(runDir)
	if err != nil {
		return result{}, err
	}
	defer tw.close()
	tr := &tracer{t0: time.Now()}
	if spec.writes > 0 {
		if err := b.steady(cfg.steadyWrites, tw); err != nil {
			return result{}, err
		}
	}
	b.tracedRound(nil, tw, spec.reads, spec.writes, true) // warm-up
	debug.FreeOSMemory()

	logFrom, err := tw.logSize()
	if err != nil {
		return result{}, err
	}
	recordsFrom := tw.lsn
	pageBefore, _ := b.db.PageStats()
	budget, tailBudget := budgets(cfg, spec)
	calUS := calibrate()
	var rounds []tracedRound
	for start := time.Now(); len(rounds) < cfg.minRounds || time.Since(start) < budget; {
		checkpoint := spec.writes > 0 && (len(rounds)+1)%spec.checkpointEvery == 0
		rounds = append(rounds, b.tracedRound(tr, tw, spec.reads, spec.writes, checkpoint))
	}
	writeRounds := rounds
	if spec.writes == 0 {
		// the read-only workloads ladder the write path on a tail of
		// write rounds, as the untraced run measures it
		if err := b.steady(cfg.steadyWrites, tw); err != nil {
			return result{}, err
		}
		if logFrom, err = tw.logSize(); err != nil {
			return result{}, err
		}
		recordsFrom = tw.lsn
		writeRounds = nil
		for start := time.Now(); len(writeRounds) < cfg.minRounds || time.Since(start) < tailBudget; {
			checkpoint := (len(writeRounds)+1)%tailCheckpointEvery == 0
			writeRounds = append(writeRounds, b.tracedRound(tr, tw, 0, cfg.tailWrites, checkpoint))
		}
	}
	pageAfter, paged := b.db.PageStats()
	logTo, err := tw.logSize()
	if err != nil {
		return result{}, err
	}

	// Rounds are chosen as in the untraced run: on the median of their
	// plain reads, and of their writes through the handler.
	readQuiet := quietBy(rounds, func(r tracedRound) []float64 { return r.plain })
	writeQuiet := quietBy(writeRounds, func(r tracedRound) []float64 {
		serve := make([]float64, len(r.writes))
		for i, wt := range r.writes {
			serve[i] = wt.serve
		}
		return serve
	})
	quietShare := min(float64(len(readQuiet))/float64(len(rounds)), float64(len(writeQuiet))/float64(len(writeRounds)))
	fmt.Fprintf(w, "rounds: %d read, %d write; quiet_share %.2f disturbed=%v cal_us=%.0f\n",
		len(rounds), len(writeRounds), quietShare, quietShare < disturbedLow, calUS)

	b.layerMetrics(set, readQuiet, writeQuiet)
	set("bench.quiet_share", quietShare, "share")
	set("bench.cal_us", calUS, "us")
	set("wal.bytes_per_write", float64(logTo-logFrom)/float64(max(tw.lsn-recordsFrom, 1)), "B")

	// pager: what the measured store's page cache did over all rounds
	var requests, writes int
	for _, r := range append(rounds[:len(rounds):len(rounds)], writeRounds...) {
		requests += len(r.plain) + 4*len(r.reads) + len(r.writes)
		writes += len(r.writes)
	}
	perRequest := func(delta uint64) float64 { return float64(delta) / float64(max(requests, 1)) }
	set("pager.hit_share", 0, "share")
	if paged {
		hits, misses := float64(pageAfter.Hits-pageBefore.Hits), float64(pageAfter.Misses-pageBefore.Misses)
		set("pager.hit_share", hits/(hits+misses), "share")
	}
	set("pager.misses_per_op", perRequest(pageAfter.Misses-pageBefore.Misses), "count")
	set("pager.evictions_per_op", perRequest(pageAfter.Evictions-pageBefore.Evictions), "count")
	set("pager.dirty_skips_per_op", perRequest(pageAfter.DirtySkips-pageBefore.DirtySkips), "count")
	set("pager.writeback_bytes_per_write", float64(pageAfter.WritebackBytes-pageBefore.WritebackBytes)/float64(max(writes, 1)), "B")
	set("pager.file_pages", float64(pageAfter.Pages), "count")

	set("ingest.batch_points_s", float64(ds.n)/seconds(loaded.took), "1/s")
	set("ingest.mean_batch", float64(loaded.ingest.Records)/float64(max(loaded.ingest.Batches, 1)), "count")
	set("ingest.fsyncs_saved_share", float64(loaded.ingest.FsyncsSaved)/float64(max(loaded.ingest.Records, 1)), "share")
	set("btree.bulkload_ms", tw.bulkMS, "ms")

	if err := b.probeLog(set, tw); err != nil {
		return result{}, err
	}
	if err := b.probeCodec(set, tw, runDir); err != nil {
		return result{}, err
	}
	if err := b.probeOpen(set, runDir); err != nil {
		return result{}, err
	}
	if err := b.probeShards(set, tw, runDir); err != nil {
		return result{}, err
	}
	b.probeReadUnderWrite(set, tw)

	tracePath := filepath.Join(cfg.scratch, "trace-"+spec.name+".json")
	if err := tr.dump(tracePath); err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "trace: %d spans of %d operations, the first %d in %s\n",
		len(tr.spans), tr.op, min(len(tr.spans), dumpLimit), tracePath)
	if b.failed > 0 {
		fmt.Fprintf(w, "FAILED %d of %d operations; first: %s\n", b.failed, b.attempted, b.firstFail)
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// logSize flushes the log twin's buffer and returns its file's size.
func (tw *twins) logSize() (int64, error) {
	if err := tw.log.Flush(); err != nil {
		return 0, err
	}
	info, err := os.Stat(tw.logPath)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

type setFn func(name string, v float64, unit string)

// quietBy returns the rounds that are quiet by the median of the
// latencies kind picks from them.
func quietBy(rounds []tracedRound, kind func(tracedRound) []float64) []tracedRound {
	scores := make([]float64, len(rounds))
	for i, r := range rounds {
		scores[i] = median(kind(r))
	}
	var quiet []tracedRound
	for _, i := range quietRounds(scores) {
		quiet = append(quiet, rounds[i])
	}
	return quiet
}

// layerMetrics turns ladders into self times: the read ladder of
// readRounds, the write ladder and the checkpoints of writeRounds.
func (b *bench) layerMetrics(set setFn, readRounds, writeRounds []tracedRound) {
	var (
		s                                    readTrace // sums
		nReads, hits, fell                   float64
		plain                                []float64
		d0s                                  []float64
		w                                    writeTrace // sums
		nWrites                              float64
		byKind                               = map[wal.Op][]float64{}
		inserts, removes                     []float64
		checkpoints, svcChecks, pagesWritten []float64
	)
	for _, r := range readRounds {
		plain = append(plain, r.plain...)
		for _, rt := range r.reads {
			nReads++
			d0s = append(d0s, rt.d0)
			s.d0 += rt.d0
			s.d0w += rt.d0w
			s.d1w += rt.d1w
			s.d2w += rt.d2w
			s.planW += rt.planW
			s.execW += rt.execW
			s.plan += rt.plan
			s.exec += rt.exec
			s.n += rt.n
			s.accepted += rt.accepted
			s.verified += rt.verified
			s.matched += rt.matched
			s.respBytes += rt.respBytes
			s.rank += rt.rank
			s.ascend += rt.ascend
			s.collect += rt.collect
			s.rangeScan += rt.rangeScan
			s.gather += rt.gather
			s.filter += rt.filter
			if rt.hit {
				hits++
			}
			if rt.fellBack {
				fell++
			}
		}
	}
	for _, r := range writeRounds {
		for _, wt := range r.writes {
			nWrites++
			w.serve += wt.serve
			w.svc += wt.svc
			w.core += wt.core
			w.logApp += wt.logApp
			byKind[wt.kind] = append(byKind[wt.kind], wt.core)
			if wt.insert > 0 {
				inserts = append(inserts, wt.insert)
			}
			if wt.remove > 0 {
				removes = append(removes, wt.remove)
			}
		}
		if r.checkpoint > 0 {
			checkpoints = append(checkpoints, r.checkpoint)
			svcChecks = append(svcChecks, r.svcCheck)
			pagesWritten = append(pagesWritten, r.pages)
		}
	}
	per := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n
	}
	pos := func(v float64) float64 { return max(v, 0) }

	httpSelf := pos(s.d0w - s.d1w)
	svcSelf := pos(s.d1w - s.d2w)
	coreSelf := pos(s.d2w - s.planW - s.execW)
	set("httpapi.query_self_us", per(httpSelf, nReads)/1e3, "us")
	set("service.query_self_us", per(svcSelf, nReads)/1e3, "us")
	set("core.query_self_us", per(coreSelf, nReads)/1e3, "us")
	set("exec.plan_us", per(s.plan, nReads)/1e3, "us")
	set("exec.exec_us", per(s.exec, nReads)/1e3, "us")
	primitives := s.rank + s.ascend + s.rangeScan + s.gather + s.filter
	set("exec.exec_self_us", per(pos(s.exec-primitives), nReads)/1e3, "us")
	set("exec.plan_cache_hit_share", per(hits, nReads), "share")
	set("exec.fellback_share", per(fell, nReads), "share")
	set("exec.verified_per_result", per(float64(s.verified), float64(s.accepted+s.matched)), "count")
	set("exec.pruned_share", 1-per(float64(s.verified), float64(s.n)), "share")
	set("httpapi.resp_bytes_per_op", per(float64(s.respBytes), nReads), "B")
	set("btree.rank_ns", per(s.rank, 2*nReads), "ns")
	set("btree.ascend_ns_per_id", per(s.ascend, float64(s.accepted)), "ns")
	set("btree.collect_ns_per_id", per(s.collect, float64(s.accepted)), "ns")
	set("btree.range_ns_per_entry", per(s.rangeScan, float64(s.verified)), "ns")
	set("kernel.gather_ns_per_row", per(s.gather, float64(s.verified)), "ns")
	set("kernel.filter_ns_per_row", per(s.filter, float64(s.verified)), "ns")

	// The self times come from warm replays, the plan and execute times
	// from the request itself: their sum against the request's own span
	// says how far the ladder can be trusted. What a warm replay cannot
	// see is what the request paid for running cold, after a write or
	// another query; that share is reported beside the gap.
	ladder := httpSelf + svcSelf + coreSelf + s.plan + s.exec
	set("trace.ladder_gap_share", per(math.Abs(ladder-s.d0), s.d0), "share")
	set("trace.cold_share", 1-per(s.d0w, s.d0), "share")
	sort.Float64s(plain)
	sort.Float64s(d0s)
	set("trace.overhead_share", per(percentile(d0s, 0.5), percentile(plain, 0.5))-1, "share")

	set("httpapi.write_self_us", per(pos(w.serve-w.svc), nWrites)/1e3, "us")
	set("service.write_self_us", per(pos(w.svc-w.core-w.logApp), nWrites)/1e3, "us")
	set("core.append_us", median(byKind[wal.OpAppend])/1e3, "us")
	set("core.update_us", median(byKind[wal.OpUpdate])/1e3, "us")
	set("core.remove_us", median(byKind[wal.OpRemove])/1e3, "us")
	set("wal.append_us", per(w.logApp, nWrites)/1e3, "us")
	set("btree.insert_ns", median(inserts), "ns")
	set("btree.delete_ns", median(removes), "ns")
	set("service.checkpoint_ms", median(svcChecks), "ms")
	set("codec.checkpoint_pages", median(pagesWritten), "count")
}
