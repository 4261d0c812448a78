package service_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planar/internal/core"
	"planar/internal/httpapi"
	"planar/internal/replog"
	"planar/internal/service"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

// TestStressHistory is the whole-system read property: every answer
// the HTTP API gives is the brute-force answer at one LSN. Writers
// append, update and remove points over /v1/points, a loop
// checkpoints, and readers ask /v1/query, /v1/query/batch, /v1/count
// and /v1/topk, each logging the window [LastLSN before the handler,
// LastLSN after it]. Afterwards the write history is read back from
// the replication feed and replayed into a model; a read passes only
// if its answer equals the model's at some LSN inside its window (a
// batch: every threshold at the same LSN; top-k: ids and distances in
// (distance, id) order). It runs on the RAM and the paged tier, on
// one partition and on two. make race-shard runs it under the race
// detector.
func TestStressHistory(t *testing.T) {
	for _, tier := range []string{"ram", "paged"} {
		t.Run(tier, func(t *testing.T) {
			for _, shards := range []int{1, 2} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					stressHistory(t, shards, tier == "paged")
				})
			}
		})
	}
}

const (
	histDim = 3
	// histMaxWrites keeps the whole history in the sequencer's ring:
	// a checkpoint truncates the on-disk feed, so FeedRead(1, …) must
	// never have to fall back to it.
	histMaxWrites = replog.DefaultRingSize / 2
	histDuration  = 2 * time.Second
	// histOwnLive caps the live points a writer owns: at the cap it
	// stops appending, so the model stays cheap to scan.
	histOwnLive = 400
)

// histRead is one logged read: what was asked, the LSN window it ran
// in, and what it answered.
type histRead struct {
	route  string
	q      core.Query
	bs     []float64 // /v1/query/batch thresholds
	k      int       // /v1/topk
	lo, hi uint64

	ids   [][]uint32 // one per threshold; one for /v1/query
	count int
	topk  []core.Result
}

func stressHistory(t *testing.T, shards int, paged bool) {
	db, err := service.Open(t.TempDir(), service.Options{Dim: histDim, Shards: shards, Paged: paged})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	oct := vecmath.FirstOctant(histDim)
	for _, normal := range [][]float64{{1, 1, 1}, {1, 2, 3}} {
		if _, err := db.AddNormal(normal, oct); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := httpapi.New(db)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	call := func(method, path string, body any) (*httptest.ResponseRecorder, error) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return nil, err
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, &buf))
		if rec.Code != http.StatusOK {
			return rec, fmt.Errorf("%s %s: %d %s", method, path, rec.Code, rec.Body.String())
		}
		return rec, nil
	}

	var (
		writes  atomic.Int64
		stop    atomic.Bool
		wg      sync.WaitGroup
		readsMu sync.Mutex
		reads   []histRead
	)
	deadline := time.Now().Add(histDuration)
	done := func() bool {
		return stop.Load() || time.Now().After(deadline) || writes.Load() >= histMaxWrites
	}
	fail := func(err error) {
		t.Error(err)
		stop.Store(true)
	}

	// Writers touch only points they appended themselves, so no write
	// fails for a reason other than a bug.
	const writers, readers = 2, 2
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			vec := func() []float64 {
				return []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
			}
			var own []uint32
			for !done() {
				writes.Add(1)
				switch r := rng.Intn(10); {
				case len(own) == 0 || (r < 5 && len(own) < histOwnLive):
					rec, err := call("POST", "/v1/points", map[string]any{"vec": vec()})
					if err != nil {
						fail(err)
						return
					}
					var reply struct{ ID uint32 }
					if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
						fail(err)
						return
					}
					own = append(own, reply.ID)
				case r < 8:
					id := own[rng.Intn(len(own))]
					if _, err := call("PUT", fmt.Sprintf("/v1/points/%d", id), map[string]any{"vec": vec()}); err != nil {
						fail(err)
						return
					}
				default:
					i := rng.Intn(len(own))
					if _, err := call("DELETE", fmt.Sprintf("/v1/points/%d", own[i]), nil); err != nil {
						fail(err)
						return
					}
					own[i] = own[len(own)-1]
					own = own[:len(own)-1]
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !done() {
			if _, err := call("POST", "/v1/checkpoint", nil); err != nil {
				fail(err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var mine []histRead
			defer func() {
				readsMu.Lock()
				reads = append(reads, mine...)
				readsMu.Unlock()
			}()
			for !done() {
				a := []float64{0.5 + rng.Float64(), 0.5 + rng.Float64(), 0.5 + rng.Float64()}
				// b around the median of a·x, so most writes move the answer.
				b := 5 * (a[0] + a[1] + a[2]) * (0.6 + 0.8*rng.Float64())
				op, opName := core.LE, "<="
				if rng.Intn(2) == 0 {
					op, opName = core.GE, ">="
				}
				rd := histRead{q: core.Query{A: a, B: b, Op: op}}
				body := map[string]any{"a": a, "b": b, "op": opName}
				switch rng.Intn(4) {
				case 0:
					rd.route = "/v1/query"
				case 1:
					rd.route = "/v1/query/batch"
					rd.bs = []float64{b, b * 0.8}
					body = map[string]any{"a": a, "bs": rd.bs, "op": opName}
				case 2:
					rd.route = "/v1/count"
				default:
					rd.route = "/v1/topk"
					rd.k = 1 + rng.Intn(10)
					body["k"] = rd.k
				}
				rd.lo = db.LastLSN()
				rec, err := call("POST", rd.route, body)
				rd.hi = db.LastLSN()
				if err == nil {
					err = rd.decode(rec.Body.Bytes())
				}
				if err != nil {
					fail(err)
					return
				}
				mine = append(mine, rd)
			}
		}(r)
	}
	writersWG.Wait()
	stop.Store(true)
	wg.Wait()
	if t.Failed() {
		return
	}

	// The history: every committed write, in LSN order from 1.
	var history []wal.Record
	for from := uint64(1); from <= db.LastLSN(); {
		recs, tooOld, err := db.FeedRead(from, 1024)
		if err != nil {
			t.Fatal(err)
		}
		if tooOld || len(recs) == 0 {
			t.Fatalf("the feed no longer holds LSN %d (last %d)", from, db.LastLSN())
		}
		for _, rec := range recs {
			if rec.LSN != from {
				t.Fatalf("feed gap: LSN %d, want %d", rec.LSN, from)
			}
			history = append(history, rec)
			from++
		}
	}

	slices.SortFunc(reads, func(x, y histRead) int { return cmp.Compare(x.lo, y.lo) })
	m := &histModel{history: history}
	bad := 0
	for _, rd := range reads {
		if !m.explains(rd) {
			if bad < 3 {
				t.Errorf("%s %+v (k=%d, bs=%v) in LSN window [%d, %d] matches the model at no LSN in it", rd.route, rd.q, rd.k, rd.bs, rd.lo, rd.hi)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d reads are brute force at no LSN in their window (%d writes)", bad, len(reads), len(history))
	}
	if len(reads) == 0 || len(history) == 0 {
		t.Fatalf("%d reads over %d writes: nothing was checked", len(reads), len(history))
	}
	t.Logf("%d reads over %d writes, each brute force at an LSN in its window", len(reads), len(history))
}

// decode parses a read's reply.
func (rd *histRead) decode(body []byte) error {
	switch rd.route {
	case "/v1/query":
		var reply struct{ IDs []uint32 }
		err := json.Unmarshal(body, &reply)
		rd.ids = [][]uint32{reply.IDs}
		return err
	case "/v1/query/batch":
		var reply struct{ Queries []struct{ IDs []uint32 } }
		if err := json.Unmarshal(body, &reply); err != nil {
			return err
		}
		if len(reply.Queries) != len(rd.bs) {
			return fmt.Errorf("batch of %d thresholds answered %d", len(rd.bs), len(reply.Queries))
		}
		for _, q := range reply.Queries {
			rd.ids = append(rd.ids, q.IDs)
		}
		return nil
	case "/v1/count":
		var reply struct{ Count int }
		err := json.Unmarshal(body, &reply)
		rd.count = reply.Count
		return err
	default:
		var reply struct {
			Results []struct {
				ID       uint32
				Distance float64
			}
		}
		err := json.Unmarshal(body, &reply)
		for _, r := range reply.Results {
			rd.topk = append(rd.topk, core.Result{ID: r.ID, Distance: r.Distance})
		}
		return err
	}
}

// histModel replays the history into a brute-force store: base holds
// every point's vector (nil when dead) at LSN at.
type histModel struct {
	history []wal.Record
	base    [][]float64
	at      uint64
}

// record returns the write committed at lsn (LSNs start at 1).
func (m *histModel) record(lsn uint64) wal.Record { return m.history[lsn-1] }

// after is a point's vector once rec has applied: nil for a remove.
func after(rec wal.Record) []float64 {
	if rec.Op == wal.OpRemove {
		return nil
	}
	return rec.Vec
}

func (m *histModel) advance(to uint64) {
	for ; m.at < to; m.at++ {
		rec := m.record(m.at + 1)
		for int(rec.ID) >= len(m.base) {
			m.base = append(m.base, nil)
		}
		m.base[rec.ID] = after(rec)
	}
}

// setCheck follows one inequality answer A against the model's answer
// M as the LSN steps: it keeps |M| and |A ∩ M|, so A = M exactly when
// both equal want = |A|. A count has no A (in is nil): want is the
// count, and |M| alone must equal it.
type setCheck struct {
	q             core.Query
	in            map[uint32]bool
	want, m, both int
}

// move accounts for one point going from vector old to vector now
// (nil: dead).
func (c *setCheck) move(id uint32, old, now []float64) {
	was := old != nil && c.q.Satisfies(old)
	is := now != nil && c.q.Satisfies(now)
	if was == is {
		return
	}
	d := 1
	if was {
		d = -1
	}
	c.m += d
	if c.in[id] {
		c.both += d
	}
}

// explains reports whether rd's answer is the model's at some LSN in
// rd's window. Reads arrive sorted by the window's lower end, so the
// base only moves forward.
func (m *histModel) explains(rd histRead) bool {
	m.advance(rd.lo)
	// overlay holds the points written in (lo, L]; a write reads the
	// point's state before it from here, else from the base.
	overlay := map[uint32][]float64{}
	state := func(id uint32) []float64 {
		if v, ok := overlay[id]; ok {
			return v
		}
		if int(id) < len(m.base) {
			return m.base[id]
		}
		return nil
	}
	if rd.route == "/v1/topk" {
		for lsn := rd.lo; ; lsn++ {
			if slices.Equal(rd.topk, m.topK(rd.q, rd.k, overlay)) {
				return true
			}
			if lsn == rd.hi {
				return false
			}
			rec := m.record(lsn + 1)
			overlay[rec.ID] = after(rec)
		}
	}

	bs := rd.bs
	if bs == nil {
		bs = []float64{rd.q.B}
	}
	checks := make([]*setCheck, len(bs))
	for i, b := range bs {
		c := &setCheck{q: rd.q, want: rd.count}
		c.q.B = b
		if rd.route != "/v1/count" {
			c.want = len(rd.ids[i])
			c.in = make(map[uint32]bool, c.want)
			for _, id := range rd.ids[i] {
				if c.in[id] {
					return false // an id answered twice
				}
				c.in[id] = true
			}
		}
		checks[i] = c
	}
	for id, v := range m.base {
		for _, c := range checks {
			c.move(uint32(id), nil, v)
		}
	}
	match := func() bool {
		for _, c := range checks {
			if c.m != c.want || (c.in != nil && c.both != c.want) {
				return false
			}
		}
		return true
	}
	for lsn := rd.lo; ; lsn++ {
		if match() {
			return true
		}
		if lsn == rd.hi {
			return false
		}
		rec := m.record(lsn + 1)
		old, now := state(rec.ID), after(rec)
		overlay[rec.ID] = now
		for _, c := range checks {
			c.move(rec.ID, old, now)
		}
	}
}

// topK is the brute-force top-k at the base plus overlay: the k
// points satisfying q nearest to its hyperplane, ties broken by id.
func (m *histModel) topK(q core.Query, k int, overlay map[uint32][]float64) []core.Result {
	nq := q.LE()
	var all []core.Result
	consider := func(id uint32, v []float64) {
		if v != nil && q.Satisfies(v) {
			all = append(all, core.Result{ID: id, Distance: nq.Distance(v)})
		}
	}
	for id, v := range m.base {
		if _, ok := overlay[uint32(id)]; !ok {
			consider(uint32(id), v)
		}
	}
	for id, v := range overlay {
		consider(id, v)
	}
	slices.SortFunc(all, func(x, y core.Result) int {
		if c := cmp.Compare(x.Distance, y.Distance); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	return all[:min(k, len(all))]
}
