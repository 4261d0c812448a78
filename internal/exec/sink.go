package exec

import (
	"slices"

	"planar/internal/topk"
)

// Sink consumes the points a query reports. The Execute stage calls
// AcceptChunk for points proven to match without verification (the
// smaller interval, or an all-match plan) and Match for points that
// passed scalar-product verification (the intermediate interval, or a
// sequential scan). Either call may stop execution early; Stats then
// reflect the work done so far.
//
// Sinks are used from a single goroutine: the one that runs the
// query.
type Sink interface {
	// Reserve announces, before an indexed plan delivers anything,
	// how many ids to make room for: the size of the smaller
	// interval, which is certain to be delivered, plus that of the
	// intermediate interval when it is no larger. A buffering sink
	// grows once; the others ignore it. Scans and top-k walks, which
	// cannot tell, never call it.
	Reserve(n int)
	// AcceptChunk delivers a run of accepted ids in key order. The
	// slice aliases the index's leaf arena — a pinned page-cache frame
	// on the paged tier — and is valid only during the call: a sink
	// that keeps ids copies them. It returns how many ids the sink
	// took, and more = false to stop execution; the id a sink stops
	// on counts as taken. Top-k's descent, which decides per entry,
	// hands one-entry chunks from the top of the smaller interval
	// down.
	AcceptChunk(ids []uint32) (taken int, more bool)
	Match(id uint32) bool
}

// AcceptCounter is an optional Sink capability: a sink that only
// needs the *number* of unverified accepts, not their ids. The
// Execute stage then counts the smaller interval in O(log n) through
// the key tree's order statistics instead of walking it.
type AcceptCounter interface {
	AcceptCount(n int)
}

// Bounded is an optional Sink capability marking a top-k style
// consumer: Bound reports the score a candidate must beat once the
// sink is saturated (ok=false while unsaturated). The Execute stage
// then walks the smaller interval in descending key order and cuts it
// off with the paper's lower-bound-distance pruning rule (Claim 3).
type Bounded interface {
	Bound() (score float64, ok bool)
}

// IDSink collects matching point ids in delivery order.
type IDSink struct {
	IDs []uint32
}

func (s *IDSink) Reserve(n int) { s.IDs = slices.Grow(s.IDs, n) }
func (s *IDSink) AcceptChunk(ids []uint32) (int, bool) {
	s.IDs = append(s.IDs, ids...)
	return len(ids), true
}
func (s *IDSink) Match(id uint32) bool { s.IDs = append(s.IDs, id); return true }

// FuncSink streams every reported id to a callback; a false return
// stops execution early.
type FuncSink func(id uint32) bool

func (f FuncSink) Reserve(int) {}
func (f FuncSink) AcceptChunk(ids []uint32) (int, bool) {
	for i, id := range ids {
		if !f(id) {
			return i + 1, false
		}
	}
	return len(ids), true
}
func (f FuncSink) Match(id uint32) bool { return f(id) }

// CountSink counts matches without materialising ids. Its
// AcceptCounter capability lets range plans resolve the smaller
// interval in O(log n), so a well-aligned index answers COUNT(*)
// queries in logarithmic time.
type CountSink struct {
	N int
}

func (s *CountSink) Reserve(int) {}
func (s *CountSink) AcceptChunk(ids []uint32) (int, bool) {
	s.N += len(ids)
	return len(ids), true
}
func (s *CountSink) Match(id uint32) bool { s.N++; return true }
func (s *CountSink) AcceptCount(n int)    { s.N += n }

// TopKSink retains the k reported points closest to the query
// hyperplane. Its Bounded capability drives the descending
// smaller-interval walk with lower-bound pruning (Algorithm 2).
type TopKSink struct {
	buf  *topk.Buffer
	dist func(id uint32) float64
}

// NewTopKSink returns a sink retaining the k smallest-distance
// points; dist resolves a point id to its distance from the query
// hyperplane. It panics if k <= 0 (callers validate first).
func NewTopKSink(k int, dist func(id uint32) float64) *TopKSink {
	return &TopKSink{buf: topk.New(k), dist: dist}
}

func (s *TopKSink) Reserve(int) {}

func (s *TopKSink) AcceptChunk(ids []uint32) (int, bool) {
	for _, id := range ids {
		s.buf.Push(topk.Item{ID: id, Score: s.dist(id)})
	}
	return len(ids), true
}

func (s *TopKSink) Match(id uint32) bool {
	s.buf.Push(topk.Item{ID: id, Score: s.dist(id)})
	return true
}

// Bound implements Bounded, exposing the buffer's pruning bound.
func (s *TopKSink) Bound() (float64, bool) { return s.buf.Bound() }

// Results returns the retained points sorted by ascending distance
// (ties broken by id), or nil when nothing was retained.
func (s *TopKSink) Results() []Result {
	items := s.buf.Items()
	if len(items) == 0 {
		return nil
	}
	out := make([]Result, len(items))
	for i, it := range items {
		out[i] = Result{ID: it.ID, Distance: it.Score}
	}
	return out
}
