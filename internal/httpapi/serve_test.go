package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"testing"

	"planar/internal/service"
)

// selectFixture serves a store of 20 000 four-dimensional points with
// one index, and returns a /v1/query body in the shape of the bench of
// record's select class: an index that fits the query, about 100 ids
// in the answer.
func selectFixture(tb testing.TB) (http.Handler, *service.DB, []byte) {
	tb.Helper()
	const n, answer = 20000, 100
	db, err := service.Open(tb.TempDir(), service.Options{Dim: 4})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { db.Close() })
	a := []float64{1, 2, 1, 1}
	if _, err := db.AddNormal(a, []int8{1, 1, 1, 1}); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	dots := make([]float64, n)
	for i := range dots {
		v := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		if _, err := db.Append(v); err != nil {
			tb.Fatal(err)
		}
		dots[i] = v[0] + 2*v[1] + v[2] + v[3]
	}
	slices.Sort(dots)
	body, err := json.Marshal(map[string]any{"a": a, "b": dots[answer-1], "op": "<="})
	if err != nil {
		tb.Fatal(err)
	}
	api, err := New(db)
	if err != nil {
		tb.Fatal(err)
	}
	return api.Handler(), db, body
}

// sink is a ResponseWriter that keeps its header map and body buffer
// from one request to the next, so a loop over ServeHTTP counts what
// the handler allocates and nothing else.
type sink struct {
	hdr    http.Header
	body   bytes.Buffer
	status int
}

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) Write(p []byte) (int, error) { return s.body.Write(p) }
func (s *sink) WriteHeader(status int)      { s.status = status }

func (s *sink) reset() {
	clear(s.hdr)
	s.body.Reset()
	s.status = http.StatusOK
}

// TestServedQueryAllocs pins what a select-shaped /v1/query costs the
// handler in allocations, served from one request and one recorder,
// with and without the read barrier's X-Planar-Min-LSN. The store, the
// planner and the executor allocate nothing on this path (core's
// TestSteadyStateQueryAllocs), so the count is httpapi's own. It was
// 10 without the header and 14 with it while net/http's pattern router
// matched the path, Header.Set and Header.Get canonicalised their keys
// and http.MaxBytesReader wrapped the body; what is left is the
// decoded "op" string.
func TestServedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool; allocation counts are meaningless")
	}
	h, db, body := selectFixture(t)
	var rd bytes.Reader
	req, err := http.NewRequest("POST", "/v1/query", io.NopCloser(&rd))
	if err != nil {
		t.Fatal(err)
	}
	w := &sink{hdr: http.Header{}}
	serve := func() {
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d: %s", w.status, w.body.Bytes())
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		name   string
		minLSN []string
	}{
		{"no barrier", nil},
		{"X-Planar-Min-LSN", []string{strconv.FormatUint(db.LastLSN(), 10)}},
	} {
		if c.minLSN != nil {
			req.Header["X-Planar-Min-Lsn"] = c.minLSN
		}
		for i := 0; i < 10; i++ {
			serve() // warm the pools
		}
		var reply struct{ IDs []uint32 }
		if err := json.Unmarshal(w.body.Bytes(), &reply); err != nil || len(reply.IDs) < 50 {
			t.Fatalf("%s: the select-shaped query answered %d ids (%v), want about 100", c.name, len(reply.IDs), err)
		}
		allocs := testing.AllocsPerRun(200, serve)
		t.Logf("%s: %.0f allocations per request", c.name, allocs)
		if allocs > 2 {
			t.Errorf("%s: a served /v1/query allocates %.0f times, want at most 2", c.name, allocs)
		}
	}
}

// TestConcurrentReadsShareHeaders serves queries from several
// goroutines while a writer moves the LSN on, so the X-Planar-Lsn
// value formatted once per LSN and the Content-Length values formatted
// once per length are built and shared under load: every reply still
// carries its own body's length and an LSN no older than the store's
// before the request.
func TestConcurrentReadsShareHeaders(t *testing.T) {
	ts, db := testServer(t)
	h := ts.Config.Handler
	for i := 0; i < 50; i++ {
		if _, err := db.Append([]float64{float64(i), float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Append([]float64{float64(i % 50), 3}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			w := &sink{hdr: http.Header{}}
			var rd bytes.Reader
			for i := 0; i < 300; i++ {
				body := []byte(`{"a":[1,1],"b":` + strconv.Itoa((g*300+i)%120) + `}`)
				rd.Reset(body)
				req, err := http.NewRequest("POST", "/v1/query", io.NopCloser(&rd))
				if err != nil {
					t.Error(err)
					return
				}
				before := db.LastLSN()
				w.reset()
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					t.Errorf("status %d: %s", w.status, w.body.Bytes())
					return
				}
				if got, want := headerValue(w.hdr, "Content-Length"), strconv.Itoa(w.body.Len()); got != want {
					t.Errorf("Content-Length %s for a %s-byte body", got, want)
					return
				}
				lsn, err := strconv.ParseUint(headerValue(w.hdr, "X-Planar-Lsn"), 10, 64)
				if err != nil || lsn < before {
					t.Errorf("X-Planar-Lsn %q (%v), the store was at %d before the request", w.hdr["X-Planar-Lsn"], err, before)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// BenchmarkServeQuery drives a select-shaped /v1/query through the
// handler in-process, as the bench of record's api.call does: a
// request assembled per call around a reused body reader and header
// map, the reply written to a recorder that keeps its buffers.
func BenchmarkServeQuery(b *testing.B) {
	h, _, body := selectFixture(b)
	var rd bytes.Reader
	hdr := http.Header{}
	u := &url.URL{Path: "/v1/query"}
	w := &sink{hdr: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(body)
		w.reset()
		req := &http.Request{
			Method: "POST", URL: u, RequestURI: u.Path, Host: "bench",
			Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Header: hdr, Body: io.NopCloser(&rd), ContentLength: int64(len(body)),
		}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("status %d: %s", w.status, w.body.Bytes())
		}
	}
}
