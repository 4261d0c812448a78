package exec

import (
	"math"

	"planar/internal/btree"
	"planar/internal/vecmath"
)

// Query is a scalar product query already normalized to ≤ form:
// report every point x with ⟨A, φ(x)⟩ ≤ B. Callers with ≥ queries
// negate both sides before entering the pipeline.
type Query struct {
	A []float64
	B float64
}

// Satisfies evaluates the predicate directly on a φ vector.
func (q Query) Satisfies(phi []float64) bool {
	return vecmath.Dot(q.A, phi) <= q.B
}

// Distance returns the Euclidean distance from φ to the query
// hyperplane ⟨A, y⟩ = B: |⟨A,φ⟩ − B| / |A|.
func (q Query) Distance(phi []float64) float64 {
	return math.Abs(vecmath.Dot(q.A, phi)-q.B) / vecmath.Norm(q.A)
}

// IndexInfo is the planner's view of one planar index: the sorted
// key tree plus the geometry needed to compute interval thresholds
// and selection scores. The slices are referenced, not copied —
// callers must guarantee they stay unmodified for the duration of a
// Run (internal/core holds the owning locks).
type IndexInfo struct {
	// Tree holds the keys ⟨c, z(x)⟩ in sorted order.
	Tree *btree.Tree
	// C is the index normal in the translated frame; all entries > 0.
	C []float64
	// Delta holds the octant translation offsets; all entries ≥ 0.
	Delta []float64
	// Shift is ⟨C, Delta⟩ minus its value at the tree's build: a key in
	// Delta's frame is the tree key plus Shift (0 until Delta widens).
	Shift float64
	// CS is the effective normal in φ space (c_i·s_i), used for angle
	// comparisons with query hyperplanes.
	CS []float64
	// Signs is the hyper-octant of query coefficient vectors served.
	Signs vecmath.SignPattern
}

// Source is everything the pipeline may touch to answer a query: the
// candidate indexes for the Plan stage and the raw rows for the
// Execute stage.
type Source struct {
	// N is the number of live points.
	N int
	// Indexes are the candidate planar indexes (may be empty for a
	// pure sequential-scan source). A query no compatible index can
	// bound is answered by a sequential scan.
	Indexes []IndexInfo
	// Sel is the best-index selection heuristic.
	Sel Selection
	// Rows is the owner's row-major φ backing array (RowDim
	// coordinates per row, dead rows included), aliased not copied.
	// The intermediate interval is verified by a kernel that reads
	// each id's row in place, and a sequential scan runs as
	// contiguous-block kernels over it.
	Rows []float64
	// RowLive flags which rows of Rows hold live points. Dead rows
	// contain stale values; scans filter them after the kernel pass.
	RowLive []bool
	// RowDim is the row stride of Rows.
	RowDim int
}
