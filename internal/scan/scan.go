// Package scan implements the naive sequential-scan baseline the
// paper compares against (Section 7.1, "Competing Method"): every
// query computes the scalar product for every live point. It costs
// O(n·d') per inequality query and O(n·d' + k log k) per top-k query.
// Execution runs on the internal/exec pipeline as a pure scan source
// (no candidate indexes), so the baseline runs the same block-kernel
// scan over the store's raw rows that an indexed query falls back to,
// and shares its delivery and stats implementation.
package scan

import (
	"planar/internal/core"
	"planar/internal/exec"
	"planar/internal/vecmath"
)

// source wraps the bare point store as an index-free pipeline source:
// every query planned against it becomes the sequential scan.
func source(s *core.PointStore) *exec.Source {
	rows, live := s.RawRows()
	return &exec.Source{
		N:       s.Len(),
		Rows:    rows,
		RowLive: live,
		RowDim:  s.Dim(),
	}
}

// Inequality scans the store and calls visit for every point
// satisfying q. It returns the number of matches (even if visit
// stopped the scan early, the count reflects points visited so far).
func Inequality(s *core.PointStore, q core.Query, visit func(id uint32) bool) int {
	st, _ := exec.Run(source(s), q.LE(), exec.FuncSink(visit))
	return st.Matched
}

// IDs collects all point ids satisfying q.
func IDs(s *core.PointStore, q core.Query) []uint32 {
	var sink exec.IDSink
	_, _ = exec.Run(source(s), q.LE(), &sink)
	return sink.IDs
}

// Count returns how many points satisfy q without materialising ids.
func Count(s *core.PointStore, q core.Query) int {
	var sink exec.CountSink
	_, _ = exec.Run(source(s), q.LE(), &sink)
	return sink.N
}

// TopK returns the k points satisfying q that lie closest to the
// query hyperplane, by brute force. It returns nil when k <= 0 or
// when q.A is the zero vector, whose "hyperplane" has no distance
// (core.Multi.TopK rejects that query with an error).
func TopK(s *core.PointStore, q core.Query, k int) []core.Result {
	if k <= 0 || vecmath.Norm(q.A) == 0 {
		return nil
	}
	nq := q.LE()
	sink := exec.NewTopKSink(k, func(id uint32) float64 {
		return nq.Distance(s.Vector(id))
	})
	_, _ = exec.Run(source(s), nq, sink)
	return sink.Results()
}
