package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// api drives the store the way a client would, minus the socket: a
// request goes in through httpapi's handler and the response bytes come
// back out of a recorder. Every line of this repository on the request
// path runs inside the timed interval; the kernel's loopback stack and
// net/http's connection handling, which on this box made up four fifths
// of a loopback request, do not.
type api struct {
	h   http.Handler
	rec recorder
	rd  bytes.Reader
	hdr http.Header
}

type recorder struct {
	hdr    http.Header
	buf    bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header         { return r.hdr }
func (r *recorder) Write(p []byte) (int, error) { return r.buf.Write(p) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

func newAPI(h http.Handler) *api {
	return &api{h: h, rec: recorder{hdr: http.Header{}}, hdr: http.Header{}}
}

var (
	urlQuery      = &url.URL{Path: "/v1/query"}
	urlPoints     = &url.URL{Path: "/v1/points"}
	urlCheckpoint = &url.URL{Path: "/v1/checkpoint"}
)

func urlPoint(id uint32) *url.URL {
	return &url.URL{Path: "/v1/points/" + strconv.FormatUint(uint64(id), 10)}
}

// call issues one request and times it from the handler's entry to its
// return. The request is assembled before the clock starts. The
// response body aliases the recorder and is valid until the next call.
func (c *api) call(method string, u *url.URL, body []byte) (status int, resp []byte, d time.Duration) {
	c.rd.Reset(body)
	clear(c.rec.hdr)
	c.rec.buf.Reset()
	c.rec.status = http.StatusOK
	req := &http.Request{
		Method: method, URL: u, RequestURI: u.Path, Host: "bench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: c.hdr, Body: io.NopCloser(&c.rd), ContentLength: int64(len(body)),
	}
	start := time.Now()
	c.h.ServeHTTP(&c.rec, req)
	d = time.Since(start)
	return c.rec.status, c.rec.buf.Bytes(), d
}

func encodeQuery(a []float64, b float64) []byte {
	body, err := json.Marshal(struct {
		A  []float64 `json:"a"`
		B  float64   `json:"b"`
		Op string    `json:"op"`
	}{a, b, "<="})
	if err != nil {
		panic(err) // finite floats always encode
	}
	return body
}

func encodeVec(v []float64) []byte {
	body, err := json.Marshal(struct {
		Vec []float64 `json:"vec"`
	}{v})
	if err != nil {
		panic(err)
	}
	return body
}

// queryReply is the part of a /v1/query response the harness reads.
type queryReply struct {
	IDs   []uint32   `json:"ids"`
	Stats replyStats `json:"stats"`
}

type replyStats struct {
	Accepted  int   `json:"accepted"`
	Verified  int   `json:"verified"`
	Matched   int   `json:"matched"`
	FellBack  bool  `json:"fellBack"`
	PlanNanos int64 `json:"planNanos"`
	ExecNanos int64 `json:"execNanos"`
	CacheHit  bool  `json:"cacheHit"`
}
