// Package httpapi exposes a durable planar index store (package
// service) over a JSON HTTP API — the deployment surface of
// cmd/planarserve. All endpoints are rooted at /v1:
//
//	POST   /v1/query       {"a":[..],"b":n,"op":"<="}            → ids + stats
//	POST   /v1/query/batch {"a":[..],"bs":[..],"op":"<="}        → per-threshold ids + stats, one shared plan
//	POST   /v1/topk        {"a":[..],"b":n,"op":"<=","k":n}      → nearest points
//	POST   /v1/count       {"a":[..],"b":n,"op":"<="}            → exact count + bounds
//	POST   /v1/explain     {"a":[..],"b":n,"op":"<="}            → execution plan (no data touched)
//	POST   /v1/points      {"vec":[..]}                          → new point id
//	PUT    /v1/points/{id} {"vec":[..]}                          → re-key a point
//	DELETE /v1/points/{id}                                       → remove a point
//	POST   /v1/indexes     {"normal":[..],"signs":[1,-1,..]}     → add an index
//	POST   /v1/checkpoint                                        → snapshot + truncate log
//	GET    /v1/stats                                             → store/index statistics + pipeline metrics
//
// Replication and operations endpoints (see internal/replica and
// DESIGN.md §8):
//
//	GET  /v1/replication/snapshot                → consistent snapshot (binary) for replica bootstrap
//	GET  /v1/replication/stream?from=&max=&waitms= → committed records from LSN (long-poll)
//	GET  /v1/replication/status                  → role, LSN, replica lag
//	POST /v1/replication/promote                 → failover: stop applying, accept writes
//	GET  /healthz                                → process liveness
//	GET  /readyz                                 → store open; replicas: streaming with bounded lag
//
// Reads honor a monotonic read barrier: a request carrying
// X-Planar-Min-LSN waits (up to X-Planar-Wait-Ms, default 2000, at
// most 60000) until the store has committed/applied at least that
// LSN, answering 504 if it does not get there in time; a wait outside
// 0..60000 is a 400. Every read answers with X-Planar-LSN,
// a lower bound on the LSN the response reflects — clients chain it
// into the next request's barrier for read-your-writes across
// replicas. On a replica, mutation endpoints answer 403 with the
// primary's URL (or transparently proxy when enabled).
//
// Per-query stats come straight from the execution pipeline
// (internal/exec): interval sizes and plan/execute stage times in
// nanoseconds.
//
// Routing is by exact path, then by method; the only path with a
// parameter is /v1/points/{id}, whose id is one segment. A GET route
// answers HEAD as well. A path that names no route answers 404
// "404 page not found", and a route asked with a method it does not
// answer 405 "Method Not Allowed" with an Allow header listing the
// methods it does (GET, HEAD for a GET route). Escapes in a path are
// resolved per segment before matching, so an escaped slash stays
// inside its segment. A path not in canonical form (an empty, . or
// .. segment) answers 301 with its cleaned form as the Location,
// whether or not that names a route. These are the answers net/http's
// pattern router gave these routes; the exact table only avoids its
// cost on the paths that need no cleaning.
//
// Response header names go out in canonical form (X-Planar-Lsn,
// Content-Type), as net/http's Header.Set stores them; header names
// are case-insensitive, so clients match them either way.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"planar/internal/core"
	"planar/internal/replica"
	"planar/internal/service"
	"planar/internal/vecmath"
)

// Server wraps a service.DB with HTTP handlers.
type Server struct {
	db      func() *service.DB
	rep     *replica.Replica
	primary string
	proxy   bool
	client  *http.Client

	// lsn is the X-Planar-Lsn header of the last LSN a read answered
	// at; reads at the same LSN share it.
	lsn atomic.Pointer[lsnHeader]
}

// lsnHeader is one LSN and its X-Planar-Lsn header value.
type lsnHeader struct {
	lsn   uint64
	value [1]string
}

// lsnValue returns the X-Planar-Lsn header value of lsn, formatted
// once per LSN: a store that is not written to formats it once.
func (s *Server) lsnValue(lsn uint64) []string {
	h := s.lsn.Load()
	if h == nil || h.lsn != lsn {
		h = &lsnHeader{lsn: lsn, value: [1]string{strconv.FormatUint(lsn, 10)}}
		s.lsn.Store(h)
	}
	return h.value[:]
}

// Option customises a Server.
type Option func(*Server)

// WithReplica serves the store behind a replication loop: the handler
// follows the replica's current DB (the pointer changes across a
// re-bootstrap), /readyz gates on streaming with bounded lag, and
// mutations are rejected with the primary's URL — or proxied there
// when proxyWrites is set.
func WithReplica(rep *replica.Replica, primaryURL string, proxyWrites bool) Option {
	return func(s *Server) {
		s.rep = rep
		s.primary = primaryURL
		s.proxy = proxyWrites
		s.db = rep.DB
	}
}

// New creates a Server over an open DB. With WithReplica, db may be
// nil — the server follows the replica's store instead.
func New(db *service.DB, opts ...Option) (*Server, error) {
	s := &Server{client: &http.Client{Timeout: 30 * time.Second}}
	if db != nil {
		s.db = func() *service.DB { return db }
	}
	for _, o := range opts {
		o(s)
	}
	if s.db == nil {
		return nil, errors.New("httpapi: nil db")
	}
	return s, nil
}

// Handler returns the routed HTTP handler.
func (s *Server) Handler() http.Handler {
	read, write := s.readEndpoint, s.writeEndpoint
	return &router{
		routes: map[string]*route{
			"/v1/query":                {post: read(s.handleQuery)},
			"/v1/query/batch":          {post: read(s.handleQueryBatch)},
			"/v1/topk":                 {post: read(s.handleTopK)},
			"/v1/count":                {post: read(s.handleCount)},
			"/v1/explain":              {post: read(s.handleExplain)},
			"/v1/points":               {post: write(s.handleAppend)},
			"/v1/indexes":              {post: write(s.handleAddIndex)},
			"/v1/checkpoint":           {post: write(s.handleCheckpoint)},
			"/v1/stats":                {get: read(s.handleStats)},
			"/v1/replication/snapshot": {get: s.withDB(s.handleReplSnapshot)},
			"/v1/replication/stream":   {get: s.withDB(s.handleReplStream)},
			"/v1/replication/status":   {get: s.handleReplStatus},
			"/v1/replication/promote":  {post: s.handleReplPromote},
			"/healthz":                 {get: s.handleHealthz},
			"/readyz":                  {get: s.handleReadyz},
		},
		point: route{put: write(s.handleUpdate), delete: write(s.handleRemove)},
	}
}

// A storeHandler serves one request against the store withDB resolved
// for it. The store is an argument, not looked up again, so a
// re-bootstrap swapping the replica's DB mid-request cannot split one
// handler across two stores.
type storeHandler func(w http.ResponseWriter, r *http.Request, db *service.DB)

// withDB resolves the current store once per request, answering 503
// while a replica is still bootstrapping its first snapshot.
func (s *Server) withDB(next storeHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		db := s.db()
		if db == nil {
			fail(w, http.StatusServiceUnavailable, errors.New("store not ready (bootstrapping)"))
			return
		}
		next(w, r, db)
	}
}

// maxWaitMs is the longest a request may ask to be held for an LSN,
// by the read barrier's X-Planar-Wait-Ms or a stream poll's waitms.
const maxWaitMs = 60_000

// readEndpoint wraps a read handler with the store resolution and the
// monotonic read barrier.
func (s *Server) readEndpoint(next storeHandler) http.HandlerFunc {
	return s.withDB(func(w http.ResponseWriter, r *http.Request, db *service.DB) {
		// Request header keys are canonical (net/http's server stores
		// them so, Header.Set too): look them up as stored.
		if raw := headerValue(r.Header, "X-Planar-Min-Lsn"); raw != "" {
			min, err := strconv.ParseUint(raw, 10, 64)
			if err != nil {
				fail(w, http.StatusBadRequest, fmt.Errorf("bad X-Planar-Min-LSN %q", raw))
				return
			}
			waitMs := int64(2000)
			if v := headerValue(r.Header, "X-Planar-Wait-Ms"); v != "" {
				if waitMs, err = strconv.ParseInt(v, 10, 64); err != nil || waitMs < 0 || waitMs > maxWaitMs {
					fail(w, http.StatusBadRequest, fmt.Errorf("bad X-Planar-Wait-Ms %q (0..%d)", v, maxWaitMs))
					return
				}
			}
			// A barrier the store has already passed costs no timer.
			if db.LastLSN() < min {
				ctx, cancel := context.WithTimeout(r.Context(), time.Duration(waitMs)*time.Millisecond)
				err = db.WaitLSN(ctx, min)
				cancel()
				if err != nil {
					fail(w, http.StatusGatewayTimeout,
						fmt.Errorf("read barrier: store at LSN %d, %d not reached: %v", db.LastLSN(), min, err))
					return
				}
			}
		}
		w.Header()["X-Planar-Lsn"] = s.lsnValue(db.LastLSN())
		next(w, r, db)
	})
}

// writeEndpoint wraps a mutation handler with the replica write
// guard: replicas reject (403 + primary URL) or proxy upstream until
// promoted.
func (s *Server) writeEndpoint(next storeHandler) http.HandlerFunc {
	guarded := s.withDB(next)
	return func(w http.ResponseWriter, r *http.Request) {
		if s.rep != nil {
			db := s.db()
			if db == nil || db.ReadOnly() {
				if s.proxy && s.primary != "" {
					s.proxyToPrimary(w, r)
					return
				}
				w.Header()["Content-Type"] = jsonType
				w.WriteHeader(http.StatusForbidden)
				_ = json.NewEncoder(w).Encode(map[string]string{
					"error":   "read-only replica; write to the primary",
					"primary": s.primary,
				})
				return
			}
		}
		guarded(w, r)
	}
}

// proxyToPrimary forwards a mutation verbatim and relays the answer.
func (s *Server) proxyToPrimary(w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, s.primary+r.URL.RequestURI(), r.Body)
	if err != nil {
		fail(w, http.StatusBadGateway, err)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	resp, err := s.client.Do(req)
	if err != nil {
		fail(w, http.StatusBadGateway, fmt.Errorf("proxying to primary: %v", err))
		return
	}
	defer func() { _ = resp.Body.Close() }()
	h := w.Header()
	h["Content-Type"] = []string{resp.Header.Get("Content-Type")}
	h["X-Planar-Proxied"] = proxiedPrimary
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

type queryRequest struct {
	A  []float64 `json:"a"`
	B  float64   `json:"b"`
	Op string    `json:"op"`
	K  int       `json:"k,omitempty"`
}

func (r *queryRequest) fields() [4]field {
	return [4]field{{name: "a", floats: &r.A}, {name: "b", float: &r.B}, {name: "op", text: &r.Op}, {name: "k", count: &r.K}}
}

func (r *queryRequest) query() (core.Query, error) {
	op, err := parseOp(r.Op)
	return core.Query{A: r.A, B: r.B, Op: op}, err
}

func parseOp(op string) (core.Op, error) {
	switch op {
	case "<=", "le", "LE", "":
		return core.LE, nil
	case ">=", "ge", "GE":
		return core.GE, nil
	}
	return 0, fmt.Errorf("unknown op %q (use \"<=\" or \">=\")", op)
}

// decodeQuery decodes the request body shared by the query, top-k,
// count and explain routes, answering the error itself when !ok.
func (sc *scratch) decodeQuery(w http.ResponseWriter, r *http.Request) (q core.Query, k int, ok bool) {
	var req queryRequest
	fields := req.fields()
	fields[0].buf = &sc.a
	if !sc.decode(w, r, fields[:]) {
		return q, 0, false
	}
	q, err := req.query()
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return q, 0, false
	}
	return q, req.K, true
}

// reply sends the response a handler built in sc.out.
func (sc *scratch) reply(w http.ResponseWriter, body []byte) {
	sc.out = body
	send(w, body)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, db *service.DB) {
	sc := getScratch()
	defer sc.release()
	q, _, ok := sc.decodeQuery(w, r)
	if !ok {
		return
	}
	ids, st, err := db.AppendQuery(sc.ids[:0], q)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	sc.ids = ids
	sc.reply(w, appendQueryReply(sc.out[:0], ids, st))
}

type batchRequest struct {
	A  []float64 `json:"a"`
	Bs []float64 `json:"bs"`
	Op string    `json:"op"`
}

func (r *batchRequest) fields() [3]field {
	return [3]field{{name: "a", floats: &r.A}, {name: "bs", floats: &r.Bs}, {name: "op", text: &r.Op}}
}

func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request, db *service.DB) {
	sc := getScratch()
	defer sc.release()
	var req batchRequest
	fields := req.fields()
	fields[0].buf, fields[1].buf = &sc.a, &sc.bs
	if !sc.decode(w, r, fields[:]) {
		return
	}
	op, err := parseOp(req.Op)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Bs) == 0 {
		fail(w, http.StatusBadRequest, errors.New("batch requires at least one threshold in \"bs\""))
		return
	}
	if len(req.Bs) > maxBatchThresholds {
		fail(w, http.StatusBadRequest, fmt.Errorf("batch has %d thresholds in \"bs\", at most %d are allowed", len(req.Bs), maxBatchThresholds))
		return
	}
	ids, sts, err := db.QueryBatch(req.A, op, req.Bs)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	sc.reply(w, appendBatchReply(sc.out[:0], req.Bs, ids, sts))
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, db *service.DB) {
	sc := getScratch()
	defer sc.release()
	q, k, ok := sc.decodeQuery(w, r)
	if !ok {
		return
	}
	res, st, err := db.TopK(q, k)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	sc.reply(w, appendTopKReply(sc.out[:0], res, st))
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request, db *service.DB) {
	sc := getScratch()
	defer sc.release()
	q, _, ok := sc.decodeQuery(w, r)
	if !ok {
		return
	}
	count, st, err := db.Count(q)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	lo, hi, err := db.SelectivityBounds(q)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	sc.reply(w, appendCountReply(sc.out[:0], count, lo, hi, st))
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, db *service.DB) {
	sc := getScratch()
	defer sc.release()
	q, _, ok := sc.decodeQuery(w, r)
	if !ok {
		return
	}
	plan, err := db.Explain(q)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	reply(w, map[string]interface{}{
		"indexUsed":  plan.IndexUsed,
		"reason":     plan.Reason,
		"compatible": plan.Compatible,
		"stretch":    plan.Stretch,
		"cos":        plan.Cos,
		"accepted":   plan.Accepted,
		"verified":   plan.Verified,
		"rejected":   plan.Rejected,
		"n":          plan.N,
		"bounds":     map[string]int{"lo": plan.BoundsLo, "hi": plan.BoundsHi},
		"text":       plan.String(),
	})
}

type pointRequest struct {
	Vec []float64 `json:"vec"`
}

func (r *pointRequest) fields() [1]field {
	return [1]field{{name: "vec", floats: &r.Vec}}
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request, db *service.DB) {
	sc := getScratch()
	defer sc.release()
	var req pointRequest
	fields := req.fields()
	if !sc.decode(w, r, fields[:]) {
		return
	}
	id, err := db.Append(req.Vec)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	sc.reply(w, appendIDReply(sc.out[:0], id))
}

// errStatus maps a store error to its HTTP status: a shed by a full
// ingest queue is 429 (retry later), a closed store 503, anything else
// is the caller's fault.
func errStatus(err error) int {
	switch {
	case errors.Is(err, service.ErrBackpressure):
		return http.StatusTooManyRequests
	case errors.Is(err, service.ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// pathID parses the id of /v1/points/{id}: the router matched the
// path, so it is the rest of the unescaped path after pointPrefix.
func pathID(r *http.Request) (uint32, error) {
	raw := strings.TrimPrefix(r.URL.Path, pointPrefix)
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad point id %q", raw)
	}
	return uint32(id), nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, db *service.DB) {
	id, err := pathID(r)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	sc := getScratch()
	defer sc.release()
	var req pointRequest
	fields := req.fields()
	if !sc.decode(w, r, fields[:]) {
		return
	}
	if err := db.Update(id, req.Vec); err != nil {
		fail(w, errStatus(err), err)
		return
	}
	send(w, okReply)
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request, db *service.DB) {
	id, err := pathID(r)
	if err != nil {
		fail(w, http.StatusBadRequest, err)
		return
	}
	if err := db.Remove(id); err != nil {
		fail(w, errStatus(err), err)
		return
	}
	send(w, okReply)
}

type indexRequest struct {
	Normal []float64 `json:"normal"`
	Signs  []int8    `json:"signs"`
}

func (r *indexRequest) fields() [2]field {
	return [2]field{{name: "normal", floats: &r.Normal}, {name: "signs", signs: &r.Signs}}
}

func (s *Server) handleAddIndex(w http.ResponseWriter, r *http.Request, db *service.DB) {
	sc := getScratch()
	defer sc.release()
	var req indexRequest
	fields := req.fields()
	if !sc.decode(w, r, fields[:]) {
		return
	}
	signs := vecmath.SignPattern(req.Signs)
	if len(signs) == 0 {
		signs = vecmath.FirstOctant(len(req.Normal))
	}
	added, err := db.AddNormal(req.Normal, signs)
	if err != nil {
		fail(w, errStatus(err), err)
		return
	}
	reply(w, map[string]interface{}{"added": added})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request, db *service.DB) {
	if err := db.Checkpoint(); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, service.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		fail(w, status, err)
		return
	}
	send(w, okReply)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, db *service.DB) {
	met := db.Metrics()
	body := map[string]interface{}{
		"points":      db.Len(),
		"dim":         db.Dim(),
		"indexes":     db.NumIndexes(),
		"shards":      db.Shards(),
		"memoryBytes": db.MemoryBytes(),
		"role":        s.role(),
		"lsn":         db.LastLSN(),
		"readOnly":    db.ReadOnly(),
		"metrics": map[string]interface{}{
			"queries":        met.Queries,
			"planNanos":      met.PlanNanos,
			"execNanos":      met.ExecNanos,
			"fellBack":       met.FellBack,
			"pointsPruned":   met.PointsPruned,
			"pointsVerified": met.PointsVerified,
		},
	}
	if ist, ok := db.IngestStats(); ok {
		avg := 0.0
		if ist.Batches > 0 {
			avg = float64(ist.Records) / float64(ist.Batches)
		}
		body["ingest"] = map[string]interface{}{
			"submitted":    ist.Submitted,
			"shed":         ist.Shed,
			"queueDepth":   ist.QueueDepth,
			"batches":      ist.Batches,
			"records":      ist.Records,
			"avgBatch":     avg,
			"fsyncsSaved":  ist.FsyncsSaved,
			"batchSizes":   ist.BatchSizes,
			"ackP50Micros": ist.AckP50.Microseconds(),
			"ackP99Micros": ist.AckP99.Microseconds(),
		}
	}
	if st, ok := db.PageStats(); ok {
		body["pageCache"] = map[string]interface{}{
			"hits":             st.Hits,
			"misses":           st.Misses,
			"evictions":        st.Evictions,
			"hitRatio":         st.HitRatio(),
			"residentPages":    st.Resident,
			"targetFrames":     st.Target,
			"totalPages":       st.Pages,
			"checkpointLSN":    st.CheckpointLSN,
			"dirtyFrames":      st.DirtyFrames,
			"dirtySkips":       st.DirtySkips,
			"softOverflows":    st.SoftOverflows,
			"writebackPages":   st.WritebackPages,
			"writebackBytes":   st.WritebackBytes,
			"writebackErrors":  st.WritebackErrors,
			"incrementalPages": st.IncrementalPages,
			"lastCheckpointMs": st.LastCheckpointMs,
		}
	}
	if s.rep != nil {
		body["replication"] = s.rep.Status()
	}
	reply(w, body)
}

// role names what this server is right now: primary, replica, or a
// replica that has been promoted.
func (s *Server) role() string {
	if s.rep == nil {
		return "primary"
	}
	if db := s.db(); db != nil && !db.ReadOnly() {
		return "promoted"
	}
	return "replica"
}

// handleReplSnapshot streams a consistent snapshot of the whole store
// for replica bootstrap: a JSON header line (shard topology + the LSN
// the cut is valid at) followed by one binary snapshot per shard.
func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request, db *service.DB) {
	st := db.CaptureState()
	h := w.Header()
	h["Content-Type"] = binaryType
	h["X-Planar-Lsn"] = []string{strconv.FormatUint(st.LSN, 10)}
	if err := replica.WriteSnapshot(w, st); err != nil {
		// Headers are gone; the torn body fails the client's CRC check.
		return
	}
}

// handleReplStream answers a long-poll for committed records from
// LSN ?from, holding an empty poll up to ?waitms for new commits.
func (s *Server) handleReplStream(w http.ResponseWriter, r *http.Request, db *service.DB) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		fail(w, http.StatusBadRequest, fmt.Errorf("bad from %q (first valid LSN is 1)", q.Get("from")))
		return
	}
	max := replica.MaxBatch
	if v := q.Get("max"); v != "" {
		if max, err = strconv.Atoi(v); err != nil || max <= 0 || max > replica.MaxBatch {
			fail(w, http.StatusBadRequest, fmt.Errorf("bad max %q (1..%d)", v, replica.MaxBatch))
			return
		}
	}
	if v := q.Get("waitms"); v != "" && from > db.LastLSN() {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 || ms > maxWaitMs {
			fail(w, http.StatusBadRequest, fmt.Errorf("bad waitms %q (0..%d)", v, maxWaitMs))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
		_ = db.WaitLSN(ctx, from) // a timeout just answers an empty batch
		cancel()
	}
	recs, tooOld, err := db.FeedRead(from, max)
	if err != nil {
		fail(w, http.StatusInternalServerError, err)
		return
	}
	last := db.LastLSN()
	h := replica.StreamHeader{From: from, Last: last}
	if from > last+1 {
		// The follower claims records this store never committed.
		h.Future, recs = true, nil
	} else {
		h.TooOld = tooOld
	}
	hdr := w.Header()
	hdr["Content-Type"] = binaryType
	hdr["X-Planar-Lsn"] = []string{strconv.FormatUint(last, 10)}
	_ = replica.WriteStream(w, h, recs)
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	body := map[string]interface{}{"role": s.role()}
	if db := s.db(); db != nil {
		body["lsn"] = db.LastLSN()
		body["readOnly"] = db.ReadOnly()
		body["points"] = db.Len()
	}
	if s.rep != nil {
		body["primary"] = s.primary
		body["replica"] = s.rep.Status()
	}
	reply(w, body)
}

// handleReplPromote is failover: the replica stops applying, lifts
// its read-only guard, and starts accepting writes.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	if s.rep == nil {
		fail(w, http.StatusBadRequest, errors.New("not a replica"))
		return
	}
	db := s.rep.Promote()
	if db == nil {
		fail(w, http.StatusConflict, errors.New("no local store to promote (never bootstrapped)"))
		return
	}
	reply(w, map[string]interface{}{"ok": true, "role": "promoted", "lsn": db.LastLSN()})
}

// handleHealthz is pure liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reply(w, map[string]interface{}{"ok": true})
}

// handleReadyz gates load-balancer traffic: the store must be open,
// and a replica must be streaming (or promoted) with lag within its
// configured bound.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.rep != nil {
		if ok, reason := s.rep.Ready(); !ok {
			fail(w, http.StatusServiceUnavailable, errors.New(reason))
			return
		}
		reply(w, map[string]interface{}{"ready": true, "role": s.role(), "replica": s.rep.Status()})
		return
	}
	db := s.db()
	if db == nil {
		fail(w, http.StatusServiceUnavailable, errors.New("store not open"))
		return
	}
	reply(w, map[string]interface{}{"ready": true, "role": s.role(), "lsn": db.LastLSN()})
}

// reply sends a cold route's answer (administration, replication
// status, health) through encoding/json; the query and mutation routes
// encode theirs with the wire codec.
func reply(w http.ResponseWriter, body interface{}) {
	w.Header()["Content-Type"] = jsonType
	_ = json.NewEncoder(w).Encode(body)
}

func fail(w http.ResponseWriter, status int, err error) {
	w.Header()["Content-Type"] = jsonType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// Response headers are set as map entries under their canonical keys,
// the form Header.Set would store them in, without its per-call
// canonicalisation. The values that never change are shared by every
// response: net/http only reads a response's header map, and a handler
// that replaces a value replaces the slice.
var (
	jsonType        = []string{"application/json"}
	binaryType      = []string{"application/octet-stream"}
	connectionClose = []string{"close"}
	proxiedPrimary  = []string{"primary"}
)

// headerValue is h.Get(key) for a key already in canonical form.
func headerValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}
