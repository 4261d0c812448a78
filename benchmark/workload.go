package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"planar/internal/core"
	"planar/internal/httpapi"
	"planar/internal/service"
	"planar/internal/wal"
)

// workloadSpec is one traffic mix. A round is reads and writes
// requests, the writes spread evenly among the reads; every
// checkpointEvery-th round of a workload that writes is closed by one
// explicit checkpoint. Rounds are kept to some tens of milliseconds,
// because a round is the unit the box's slow seconds are cut out by.
// Successive reads take their class from mix in turn (indexes into
// classes; nil means the one class).
type workloadSpec struct {
	name            string
	why             string
	paged           bool
	classes         []classSpec
	mix             []int
	reads           int
	writes          int
	checkpointEvery int
}

// The names are cited by later issues: add workloads, never rename.
var workloads = []workloadSpec{
	{
		name:    "select",
		why:     "Tiny II and answer on a read-only RAM store: the fixed per-request cost (httpapi, service, cached plan, rank descents) is nearly all of the time; kernel and emit are idle.",
		classes: []classSpec{selectClass}, reads: 1000,
	},
	{
		name:    "verify",
		why:     "II of a quarter of N, small answer: btree.RangeChunks and the kernel gather/filter do most of the work, the beta*|II|*d' term; where kernel and planner changes must show.",
		classes: []classSpec{verifyClass}, reads: 200,
	},
	{
		name:    "emit",
		why:     "20 000 ids accepted without verification: the accepted-interval walk, id-slice growth and JSON encoding dominate, the gamma*|answer| term; the kernel is idle.",
		classes: []classSpec{emitClass}, reads: 64,
	},
	{
		name: "churn",
		why:  "Select reads 1:1 with writes, a checkpoint per round, crash recovery: cold plan cache on every read, tree insert/delete, WAL, full snapshots, rebuild on open; where a read gain paid by writes shows.",
		// 500 reads, 500 writes, one checkpoint
		classes: []classSpec{selectClass}, reads: 100, writes: 100, checkpointEvery: 5,
	},
	{
		name:    "paged",
		why:     "The one workload larger than the program's own cache: paged layout, 1 MiB page cache, select and verify reads with writes; page faults, eviction, writeback and incremental checkpoints do the work.",
		paged:   true,
		classes: []classSpec{selectClass, verifyClass},
		// 3:1, so that the median sits inside the select class and the
		// 99th percentile inside the verify class, not on the gap between.
		mix: []int{0, 0, 0, 1},
		// 500 reads, 250 writes, one checkpoint
		reads: 100, writes: 50, checkpointEvery: 5,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

const (
	// Write mix: 30 % append, 40 % update, 30 % delete, so the number of
	// live points stays near N.
	appendShare = 0.3
	updateShare = 0.4
	// checkEvery-th read is decoded and compared with the oracle while
	// the clock is stopped; every read's status is checked.
	checkEvery = 50
)

// bench is one workload on one open store, with the oracle beside it.
type bench struct {
	spec       workloadSpec
	ds         *dataset
	sh         *shadow
	dir        string
	db         *service.DB
	api        *api
	classes    []*class
	order      []int // fixed order in which a class's queries are issued
	rng        *rand.Rand
	rss        []float64 // MB, the resident set at each timed round's end
	recoveries []float64 // seconds, each crash copy's Open to first answer

	nextRead   int
	writesSent int // mutations issued so far, steady-state updates included
	attempted  int
	failed     int
	firstFail  string

	mark  []uint8
	want  []uint32
	reply queryReply
}

func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.firstFail == "" {
		b.firstFail = fmt.Sprintf(format, args...)
	}
}

// attach points the bench at an open store.
func (b *bench) attach(db *service.DB) error {
	srv, err := httpapi.New(db)
	if err != nil {
		return err
	}
	b.db = db
	b.api = newAPI(srv.Handler())
	return nil
}

// roundStats holds the latencies of one round in microseconds and its
// checkpoint in milliseconds.
type roundStats struct {
	reads      []float64
	writes     []float64
	checkpoint float64
}

// isWrite reports whether request i of a round is one of its writes,
// which are spread evenly among its reads.
func isWrite(i, reads, writes int) bool {
	total := reads + writes
	return (i+1)*writes/total > i*writes/total
}

// round issues one round of the given shape, closed by a checkpoint
// request if asked and the round has writes.
func (b *bench) round(reads, writes int, checkpoint bool) roundStats {
	rs := roundStats{reads: make([]float64, 0, reads), writes: make([]float64, 0, writes)}
	for i := 0; i < reads+writes; i++ {
		if isWrite(i, reads, writes) {
			rs.writes = append(rs.writes, b.write())
		} else {
			rs.reads = append(rs.reads, b.read())
		}
	}
	if checkpoint && writes > 0 {
		b.attempted++
		status, _, d := b.api.call(http.MethodPost, urlCheckpoint, nil)
		if status != http.StatusOK {
			b.fail("checkpoint: status %d", status)
		}
		rs.checkpoint = ms(d)
	}
	return rs
}

func (b *bench) nextQuery() *query {
	c, turn := b.classes[0], b.nextRead
	if mix := b.spec.mix; mix != nil {
		c, turn = b.classes[mix[b.nextRead%len(mix)]], b.nextRead/len(mix)
	}
	b.nextRead++
	return &c.queries[b.order[turn%len(b.order)]]
}

// read issues the next query of the fixed list and returns its latency
// in microseconds.
func (b *bench) read() float64 {
	q := b.nextQuery()
	b.attempted++
	status, resp, d := b.api.call(http.MethodPost, urlQuery, q.body)
	switch {
	case status != http.StatusOK:
		b.fail("query: status %d: %s", status, resp)
	case b.nextRead%checkEvery == 0:
		b.checkAnswer(q, resp)
	}
	return us(d)
}

// checkAnswer compares a response with brute force over the shadow.
// While no write has reached the store since the query was last
// checked that way, the fingerprint kept from then stands in for the
// brute force.
func (b *bench) checkAnswer(q *query, resp []byte) bool {
	b.reply.IDs = b.reply.IDs[:0]
	if err := json.Unmarshal(resp, &b.reply); err != nil {
		b.fail("query: undecodable response: %v", err)
		return false
	}
	if q.checkedAt == b.writesSent+1 {
		if fingerprint(b.reply.IDs) != q.print {
			b.fail("query a=%v b=%v: %d ids, not the answer checked before", q.a, q.b, len(b.reply.IDs))
			return false
		}
		return true
	}
	if !b.agrees(b.reply.IDs, q) {
		b.fail("query a=%v b=%v: %d ids, oracle has %d", q.a, q.b, len(b.reply.IDs), len(b.want))
		return false
	}
	q.checkedAt, q.print = b.writesSent+1, fingerprint(b.want)
	return true
}

// agrees reports whether ids is the oracle's answer to q, which it
// leaves in b.want.
func (b *bench) agrees(ids []uint32, q *query) bool {
	b.want = b.sh.answer(q.a, q.b, b.want[:0])
	if n := len(b.sh.live); len(b.mark) < n {
		b.mark = make([]uint8, n+n/8)
	}
	return sameIDs(ids, b.want, b.mark)
}

// fingerprint identifies a set of ids whatever their order.
func fingerprint(ids []uint32) [2]uint64 {
	f := [2]uint64{uint64(len(ids)), 0}
	for _, id := range ids {
		x := (uint64(id) + 1) * 0x9e3779b97f4a7c15
		f[1] += x ^ x>>29
	}
	return f
}

// writeOp is one mutation: for an append, id is the id the store has
// to assign.
type writeOp struct {
	kind wal.Op
	id   uint32
	vec  []float64 // nil for a remove
}

// nextWrite draws a mutation from the mix against the shadow's current
// contents.
func (b *bench) nextWrite() writeOp {
	switch r := b.rng.Float64(); {
	case r < appendShare:
		return writeOp{wal.OpAppend, b.sh.nextID(), b.randomVec()}
	case r < appendShare+updateShare:
		return writeOp{wal.OpUpdate, b.sh.pick(b.rng), b.randomVec()}
	default:
		return writeOp{wal.OpRemove, b.sh.pick(b.rng), nil}
	}
}

// send issues op through the handler and returns its latency in
// microseconds. An op that is acknowledged, for an append under the
// expected id, is applied to the shadow; anything else is a failure.
func (b *bench) send(op writeOp) float64 {
	b.attempted++
	b.writesSent++
	var (
		status int
		resp   []byte
		d      time.Duration
	)
	switch op.kind {
	case wal.OpAppend:
		status, resp, d = b.api.call(http.MethodPost, urlPoints, encodeVec(op.vec))
		var ack struct {
			ID *uint32 `json:"id"`
		}
		if status == http.StatusOK {
			if err := json.Unmarshal(resp, &ack); err != nil || ack.ID == nil || *ack.ID != op.id {
				b.fail("append: acked %s, expected id %d", resp, op.id)
				return us(d)
			}
		}
	case wal.OpUpdate:
		status, resp, d = b.api.call(http.MethodPut, urlPoint(op.id), encodeVec(op.vec))
	default:
		status, resp, d = b.api.call(http.MethodDelete, urlPoint(op.id), nil)
	}
	if status != http.StatusOK {
		b.fail("write: status %d: %s", status, resp)
		return us(d)
	}
	b.sh.apply(op)
	return us(d)
}

func (b *bench) write() float64 { return b.send(b.nextWrite()) }

func (b *bench) randomVec() []float64 {
	v := make([]float64, b.ds.dim)
	for j := range v {
		v[j] = b.rng.Float64()
	}
	return v
}

// steady applies n updates straight through the service, so that what
// follows is measured in the store's long-running state: the default n
// is more than any buffer inside the store holds (the replication ring
// keeps 16 384 records and costs more per commit once it is full). A
// traced run's twins take the same updates.
func (b *bench) steady(n int, tw *twins) error {
	for i := 0; i < n; i++ {
		op := writeOp{wal.OpUpdate, b.sh.pick(b.rng), b.randomVec()}
		b.writesSent++
		if err := b.db.Update(op.id, op.vec); err != nil {
			return fmt.Errorf("steady-state update of point %d: %w", op.id, err)
		}
		if tw != nil {
			if _, err := tw.feed(nil, -1, op, b.sh.vec(op.id), b.ds.normals[0]); err != nil {
				return err
			}
		}
		b.sh.apply(op)
	}
	return nil
}

// calibrate builds the workload's query classes against the open store
// and fixes the order its queries are issued in.
func (b *bench) calibrate() error {
	explain := func(a []float64, t float64) (int, error) {
		p, err := b.db.Explain(core.Query{A: a, B: t, Op: core.LE})
		if err != nil {
			return 0, err
		}
		if p.IndexUsed < 0 {
			return 0, fmt.Errorf("plan for a=%v fell back to a scan: %s", a, p.Reason)
		}
		return p.Verified, nil
	}
	b.classes = b.classes[:0]
	for _, spec := range b.spec.classes {
		c, err := calibrateClass(spec, b.ds, b.sh, explain)
		if err != nil {
			return fmt.Errorf("calibrating %s class: %w", spec.name, err)
		}
		b.classes = append(b.classes, c)
	}
	b.order = rand.New(rand.NewSource(b.rng.Int63())).Perm(classDirections * classThresholds)
	return nil
}

// checkAllQueries answers every distinct query once through the
// handler and compares it with the oracle, before anything is timed.
func (b *bench) checkAllQueries() {
	for _, c := range b.classes {
		var sumII, sumAnswer float64
		for i := range c.queries {
			q := &c.queries[i]
			b.attempted++
			status, resp, _ := b.api.call(http.MethodPost, urlQuery, q.body)
			if status != http.StatusOK {
				b.fail("query: status %d: %s", status, resp)
				continue
			}
			if b.checkAnswer(q, resp) {
				sumII += float64(b.reply.Stats.Verified)
				sumAnswer += float64(len(b.reply.IDs))
			}
		}
		c.meanII = sumII / float64(len(c.queries))
		c.meanAnswer = sumAnswer / float64(len(c.queries))
	}
}
