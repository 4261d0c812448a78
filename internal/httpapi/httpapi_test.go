package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"planar/internal/ingest"
	"planar/internal/replica"
	"planar/internal/service"
)

func testServer(t *testing.T) (*httptest.Server, *service.DB) {
	t.Helper()
	db, err := service.Open(t.TempDir(), service.Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	api, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, db
}

func call(t *testing.T, ts *httptest.Server, method, path string, body interface{}, wantStatus int) map[string]interface{} {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d want %d", method, path, resp.StatusCode, wantStatus)
	}
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, path, err)
	}
	return out
}

func TestEndToEndFlow(t *testing.T) {
	ts, _ := testServer(t)

	// Install an index.
	out := call(t, ts, "POST", "/v1/indexes",
		map[string]interface{}{"normal": []float64{1, 2}}, http.StatusOK)
	if out["added"] != true {
		t.Fatalf("index not added: %v", out)
	}

	// Insert points.
	var ids []float64
	for _, v := range [][]float64{{1, 1}, {5, 5}, {9, 1}, {2, 8}} {
		out := call(t, ts, "POST", "/v1/points",
			map[string]interface{}{"vec": v}, http.StatusOK)
		ids = append(ids, out["id"].(float64))
	}

	// Query: x + y <= 7 matches {1,1} and... (5,5)=10 no, (9,1)=10 no, (2,8)=10 no.
	out = call(t, ts, "POST", "/v1/query",
		map[string]interface{}{"a": []float64{1, 1}, "b": 7, "op": "<="}, http.StatusOK)
	got := out["ids"].([]interface{})
	if len(got) != 1 || got[0].(float64) != ids[0] {
		t.Fatalf("query ids=%v want [%v]", got, ids[0])
	}

	// Count with bounds.
	out = call(t, ts, "POST", "/v1/count",
		map[string]interface{}{"a": []float64{1, 1}, "b": 7}, http.StatusOK)
	if out["count"].(float64) != 1 {
		t.Fatalf("count=%v", out["count"])
	}
	bounds := out["bounds"].(map[string]interface{})
	if bounds["lo"].(float64) > 1 || bounds["hi"].(float64) < 1 {
		t.Fatalf("bounds=%v", bounds)
	}

	// Top-k.
	out = call(t, ts, "POST", "/v1/topk",
		map[string]interface{}{"a": []float64{1, 1}, "b": 12, "op": "<=", "k": 2}, http.StatusOK)
	results := out["results"].([]interface{})
	if len(results) != 2 {
		t.Fatalf("topk results=%v", results)
	}

	// Update then re-query.
	call(t, ts, "PUT", fmt.Sprintf("/v1/points/%.0f", ids[0]),
		map[string]interface{}{"vec": []float64{50, 50}}, http.StatusOK)
	out = call(t, ts, "POST", "/v1/query",
		map[string]interface{}{"a": []float64{1, 1}, "b": 7}, http.StatusOK)
	if len(out["ids"].([]interface{})) != 0 {
		t.Fatalf("after update: ids=%v", out["ids"])
	}

	// Remove.
	call(t, ts, "DELETE", fmt.Sprintf("/v1/points/%.0f", ids[1]), nil, http.StatusOK)
	out = call(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
	if out["points"].(float64) != 3 || out["indexes"].(float64) != 1 {
		t.Fatalf("stats=%v", out)
	}

	// Explain.
	out = call(t, ts, "POST", "/v1/explain",
		map[string]interface{}{"a": []float64{1, 1}, "b": 7}, http.StatusOK)
	if out["indexUsed"].(float64) != 0 || out["text"] == "" {
		t.Fatalf("explain=%v", out)
	}

	// Checkpoint.
	call(t, ts, "POST", "/v1/checkpoint", nil, http.StatusOK)
}

func TestErrorPaths(t *testing.T) {
	ts, _ := testServer(t)
	// Malformed JSON.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/query", bytes.NewReader([]byte("{oops")))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	// Unknown op.
	call(t, ts, "POST", "/v1/query",
		map[string]interface{}{"a": []float64{1, 1}, "b": 1, "op": "=="}, http.StatusBadRequest)
	// Wrong dimension.
	call(t, ts, "POST", "/v1/query",
		map[string]interface{}{"a": []float64{1}, "b": 1}, http.StatusBadRequest)
	// Bad point id.
	call(t, ts, "PUT", "/v1/points/notanid",
		map[string]interface{}{"vec": []float64{1, 2}}, http.StatusBadRequest)
	// Update of unknown point.
	call(t, ts, "PUT", "/v1/points/999",
		map[string]interface{}{"vec": []float64{1, 2}}, http.StatusBadRequest)
	// Remove of unknown point.
	call(t, ts, "DELETE", "/v1/points/999", nil, http.StatusBadRequest)
	// Bad index normal.
	call(t, ts, "POST", "/v1/indexes",
		map[string]interface{}{"normal": []float64{-1, 1}}, http.StatusBadRequest)
	// TopK with k=0.
	call(t, ts, "POST", "/v1/topk",
		map[string]interface{}{"a": []float64{1, 1}, "b": 1, "k": 0}, http.StatusBadRequest)
	// Unknown fields rejected.
	call(t, ts, "POST", "/v1/query",
		map[string]interface{}{"a": []float64{1, 1}, "b": 1, "bogus": 1}, http.StatusBadRequest)
}

// TestBatchThresholdCap serves a batch of maxBatchThresholds
// thresholds, rejects one more with a 400 that leaves the store
// untouched, and serves the route again afterwards.
func TestBatchThresholdCap(t *testing.T) {
	ts, db := testServer(t)
	for i := 0; i < 3; i++ {
		call(t, ts, "POST", "/v1/points", map[string]any{"vec": []float64{float64(i), 1}}, http.StatusOK)
	}
	batch := func(n int) map[string]any {
		bs := make([]float64, n)
		for i := range bs {
			bs[i] = float64(i)
		}
		return map[string]any{"a": []float64{1, 1}, "bs": bs, "op": "<="}
	}
	out := call(t, ts, "POST", "/v1/query/batch", batch(maxBatchThresholds), http.StatusOK)
	if got := len(out["queries"].([]any)); got != maxBatchThresholds {
		t.Fatalf("a batch of %d thresholds got %d answers", maxBatchThresholds, got)
	}
	out = call(t, ts, "POST", "/v1/query/batch", batch(maxBatchThresholds+1), http.StatusBadRequest)
	if out["error"] == nil {
		t.Fatalf("an over-cap batch got a 400 without an error body: %v", out)
	}
	if db.Len() != 3 {
		t.Fatalf("after the rejected batch the store holds %d points, want 3", db.Len())
	}
	out = call(t, ts, "POST", "/v1/query/batch", batch(2), http.StatusOK)
	if got := len(out["queries"].([]any)); got != 2 {
		t.Fatalf("after the rejected batch a batch of 2 got %d answers", got)
	}
}

// A zero coefficient vector has no top-k distance: the request is a
// 400 on a store without indexes, exactly as it is once one exists,
// never a 200 carrying null distances in arbitrary order.
func TestZeroVectorTopKIsBadRequest(t *testing.T) {
	ts, _ := testServer(t)
	for _, v := range [][]float64{{1, 1}, {2, 3}, {4, 1}} {
		call(t, ts, "POST", "/v1/points", map[string]interface{}{"vec": v}, http.StatusOK)
	}
	zero := map[string]interface{}{"a": []float64{0, 0}, "b": 0, "k": 2}
	call(t, ts, "POST", "/v1/topk", zero, http.StatusBadRequest)
	call(t, ts, "POST", "/v1/indexes", map[string]interface{}{"normal": []float64{1, 2}}, http.StatusOK)
	call(t, ts, "POST", "/v1/topk", zero, http.StatusBadRequest)
}

func TestDurabilityThroughAPI(t *testing.T) {
	dir := t.TempDir()
	db, err := service.Open(dir, service.Options{Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	api, _ := New(db)
	ts := httptest.NewServer(api.Handler())
	call(t, ts, "POST", "/v1/points", map[string]interface{}{"vec": []float64{42}}, http.StatusOK)
	call(t, ts, "POST", "/v1/checkpoint", nil, http.StatusOK)
	ts.Close()
	db.Close()

	db2, err := service.Open(dir, service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 1 {
		t.Fatalf("Len=%d after reopen", db2.Len())
	}
}

// TestReadBarrierWaitBounds holds X-Planar-Wait-Ms to the 0..60000
// range a stream poll's waitms has: beyond it a wait would park a
// handler for years, or overflow time.Duration into a context born
// expired.
func TestReadBarrierWaitBounds(t *testing.T) {
	ts, db := testServer(t)
	call(t, ts, "POST", "/v1/points", map[string]interface{}{"vec": []float64{1, 1}}, http.StatusOK)
	lsn := strconv.FormatUint(db.LastLSN(), 10)
	for _, c := range []struct {
		wait string
		want int
	}{
		{"60000", http.StatusOK},
		{"60001", http.StatusBadRequest},
		{"9300000000000", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
	} {
		req, err := http.NewRequest("POST", ts.URL+"/v1/query",
			strings.NewReader(`{"a":[1,1],"b":7,"op":"<="}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Planar-Min-LSN", lsn)
		req.Header.Set("X-Planar-Wait-Ms", c.wait)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("X-Planar-Wait-Ms %s: status %d want %d", c.wait, resp.StatusCode, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil db accepted")
	}
}

// TestShardedServer runs the same HTTP surface against a sharded DB:
// every endpoint must work unchanged, and /v1/stats reports the shard
// count.
func TestShardedServer(t *testing.T) {
	db, err := service.Open(t.TempDir(), service.Options{Dim: 2, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	api, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	call(t, ts, "POST", "/v1/indexes",
		map[string]interface{}{"normal": []float64{1, 2}}, http.StatusOK)
	for _, v := range [][]float64{{1, 1}, {5, 5}, {9, 1}, {2, 8}} {
		call(t, ts, "POST", "/v1/points", map[string]interface{}{"vec": v}, http.StatusOK)
	}

	out := call(t, ts, "POST", "/v1/query",
		map[string]interface{}{"a": []float64{1, 1}, "b": 7}, http.StatusOK)
	if ids := out["ids"].([]interface{}); len(ids) != 1 || ids[0].(float64) != 0 {
		t.Fatalf("sharded query ids=%v", out["ids"])
	}
	out = call(t, ts, "POST", "/v1/count",
		map[string]interface{}{"a": []float64{1, 1}, "b": 11}, http.StatusOK)
	if out["count"].(float64) != 4 {
		t.Fatalf("sharded count=%v", out)
	}
	out = call(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
	if out["points"].(float64) != 4 || out["shards"].(float64) != 4 {
		t.Fatalf("sharded stats=%v", out)
	}
	call(t, ts, "POST", "/v1/checkpoint", nil, http.StatusOK)
}

// TestPagedStats checks that /v1/stats surfaces the page-cache block
// for paged stores and omits it for snapshot-mode stores.
func TestPagedStats(t *testing.T) {
	ts, _ := testServer(t)
	out := call(t, ts, "GET", "/v1/stats", nil, http.StatusOK)
	if _, ok := out["pageCache"]; ok {
		t.Fatalf("snapshot-mode stats should not report pageCache: %v", out)
	}

	db, err := service.Open(t.TempDir(), service.Options{Dim: 2, Paged: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	api, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(api.Handler())
	t.Cleanup(pts.Close)

	call(t, pts, "POST", "/v1/indexes",
		map[string]interface{}{"normal": []float64{1, 2}}, http.StatusOK)
	for i := 0; i < 50; i++ {
		call(t, pts, "POST", "/v1/points",
			map[string]interface{}{"vec": []float64{float64(i), float64(i % 7)}}, http.StatusOK)
	}
	call(t, pts, "POST", "/v1/checkpoint", nil, http.StatusOK)

	out = call(t, pts, "GET", "/v1/stats", nil, http.StatusOK)
	pc, ok := out["pageCache"].(map[string]interface{})
	if !ok {
		t.Fatalf("paged stats missing pageCache: %v", out)
	}
	if pc["totalPages"].(float64) <= 0 {
		t.Fatalf("pageCache reports no pages: %v", pc)
	}
	if _, ok := pc["hitRatio"].(float64); !ok {
		t.Fatalf("pageCache missing hitRatio: %v", pc)
	}
	// The background-writeback and incremental-checkpoint counters
	// must always be present (zero is fine).
	for _, key := range []string{
		"dirtyFrames", "dirtySkips", "softOverflows",
		"writebackPages", "writebackBytes", "writebackErrors",
		"incrementalPages", "lastCheckpointMs",
	} {
		if _, ok := pc[key].(float64); !ok {
			t.Fatalf("pageCache missing %s: %v", key, pc)
		}
	}
	if pc["incrementalPages"].(float64) <= 0 {
		t.Fatalf("checkpoint after 50 appends wrote no pages: %v", pc)
	}
	if pc["lastCheckpointMs"].(float64) <= 0 {
		t.Fatalf("checkpoint reported no duration: %v", pc)
	}
}

// TestOversizedAnswerIsNotPooled answers a query whose id buffer and
// reply both exceed maxPooledBytes and checks that no scratch in the
// pool kept either: one huge answer must not pin its buffers for the
// life of the server. The handler runs on the test's goroutine, so
// the scratch it released is the first the pool hands back.
func TestOversizedAnswerIsNotPooled(t *testing.T) {
	const n = maxPooledBytes/4 + 1000
	db, err := service.Open(t.TempDir(), service.Options{Dim: 2, IngestBatch: 4096, IngestBlock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	futures := make([]*ingest.Future, n)
	for i := range futures {
		if futures[i], err = db.AppendAsync([]float64{float64(i % 1000), float64(i / 1000)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range futures {
		if res := f.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if _, err := db.AddNormal([]float64{1, 1}, []int8{1, 1}); err != nil {
		t.Fatal(err)
	}
	api, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) []byte {
		rec := httptest.NewRecorder()
		api.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("query %s: status %d: %s", body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	// A small answer first: its buffers are the kind the pool keeps.
	post(`{"a":[1,1],"b":40,"op":"<="}`)
	sc := getScratch()
	if cap(sc.ids) == 0 || cap(sc.out) == 0 {
		t.Skip("the pool did not hand back the handler's scratch (race detector, or a GC in between)")
	}
	sc.release()

	var reply struct {
		IDs []uint32 `json:"ids"`
	}
	if err := json.Unmarshal(post(`{"a":[1,1],"b":1e9,"op":"<="}`), &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.IDs) != n {
		t.Fatalf("the large query answered %d ids, want all %d", len(reply.IDs), n)
	}
	for i := 0; i < 64; i++ {
		sc := getScratch()
		if 4*cap(sc.ids) > maxPooledBytes || cap(sc.out) > maxPooledBytes {
			t.Fatalf("a pooled scratch kept %d id bytes and %d reply bytes, cap %d", 4*cap(sc.ids), cap(sc.out), maxPooledBytes)
		}
	}
}

// TestClosedStoreIs503 closes the store under a running server, on the
// direct and the grouped write route: every mutation and every query
// answers 503 — the store is gone, the request was not at fault.
func TestClosedStoreIs503(t *testing.T) {
	for _, batch := range []int{0, 4} {
		t.Run(fmt.Sprintf("ingestBatch=%d", batch), func(t *testing.T) {
			db, err := service.Open(t.TempDir(), service.Options{Dim: 2, IngestBatch: batch})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			api, err := New(db)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(api.Handler())
			t.Cleanup(ts.Close)
			call(t, ts, "POST", "/v1/points", map[string]interface{}{"vec": []float64{1, 2}}, http.StatusOK)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			vec := map[string]interface{}{"vec": []float64{3, 4}}
			query := map[string]interface{}{"a": []float64{1, 1}, "b": 10, "op": "<=", "k": 1}
			call(t, ts, "POST", "/v1/points", vec, http.StatusServiceUnavailable)
			call(t, ts, "PUT", "/v1/points/0", vec, http.StatusServiceUnavailable)
			call(t, ts, "DELETE", "/v1/points/0", nil, http.StatusServiceUnavailable)
			call(t, ts, "POST", "/v1/query", query, http.StatusServiceUnavailable)
			call(t, ts, "POST", "/v1/topk", query, http.StatusServiceUnavailable)
		})
	}
}

// TestReplicationStatus reads GET /v1/replication/status on a primary
// and on a replica tailing it: both report their role, LSN, read-only
// guard and point count, and only the replica adds the primary's URL
// and its replication loop's status.
func TestReplicationStatus(t *testing.T) {
	ts, db := testServer(t)
	for i := 0; i < 3; i++ {
		if _, err := db.Append([]float64{float64(i), 1}); err != nil {
			t.Fatal(err)
		}
	}
	st := call(t, ts, "GET", "/v1/replication/status", nil, http.StatusOK)
	if st["role"] != "primary" || st["lsn"] != 3.0 || st["readOnly"] != false || st["points"] != 3.0 {
		t.Fatalf("primary status %v", st)
	}
	if _, ok := st["primary"]; ok {
		t.Fatalf("primary status names a primary: %v", st)
	}
	if _, ok := st["replica"]; ok {
		t.Fatalf("primary status has a replica block: %v", st)
	}

	rep, err := replica.Start(replica.Options{Primary: ts.URL, Dir: filepath.Join(t.TempDir(), "replica"), PollWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	streaming := func() bool { st := rep.Status(); return st.State == replica.StateStreaming && st.LastApplied >= 3 }
	for deadline := time.Now().Add(15 * time.Second); !streaming(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at %+v", rep.Status())
		}
	}
	api, err := New(nil, WithReplica(rep, ts.URL, false))
	if err != nil {
		t.Fatal(err)
	}
	rs := httptest.NewServer(api.Handler())
	t.Cleanup(rs.Close)
	st = call(t, rs, "GET", "/v1/replication/status", nil, http.StatusOK)
	if st["role"] != "replica" || st["lsn"] != 3.0 || st["readOnly"] != true || st["points"] != 3.0 {
		t.Fatalf("replica status %v", st)
	}
	if st["primary"] != ts.URL {
		t.Fatalf("replica status names primary %v, want %s", st["primary"], ts.URL)
	}
	loop, ok := st["replica"].(map[string]interface{})
	if !ok || loop["state"] != replica.StateStreaming || loop["lastApplied"] != 3.0 || loop["bootstraps"] != 1.0 {
		t.Fatalf("replica block %v", st["replica"])
	}
}
