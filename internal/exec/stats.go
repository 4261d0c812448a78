package exec

import "fmt"

// Selection names a best-index selection heuristic (paper Section
// 5.1).
type Selection int

const (
	// SelectVolume picks the index minimising the maximum stretch of
	// the intermediate interval (Problem 3). The paper finds this
	// usually superior; it is the default.
	SelectVolume Selection = iota
	// SelectAngle picks the index whose hyperplane family makes the
	// smallest angle with the query hyperplane.
	SelectAngle
)

// String implements fmt.Stringer.
func (s Selection) String() string {
	switch s {
	case SelectVolume:
		return "volume"
	case SelectAngle:
		return "angle"
	default:
		return fmt.Sprintf("Selection(%d)", int(s))
	}
}

// Stats reports how a single query travelled through the pipeline.
// The interval counters are the source of the paper's "pruning
// percentage" figures (Figures 9 and 10): Accepted + Rejected points
// never had their scalar product computed. The stage counters
// (PlanNanos, ExecNanos) are the pipeline's
// observability surface, reported uniformly by the service, HTTP API
// and CLI layers.
type Stats struct {
	// N is the number of live points considered.
	N int
	// Accepted is the size of the smaller interval (accepted without
	// verification).
	Accepted int
	// Verified is the size of the intermediate interval.
	Verified int
	// Matched is how many verified points satisfied the query.
	Matched int
	// Rejected is the size of the larger interval.
	Rejected int
	// FellBack reports that the answer came from a sequential scan
	// (no compatible index bounds the intermediate interval).
	FellBack bool
	// IndexUsed is the position of the selected index inside a Multi
	// (-1 for a sequential scan).
	IndexUsed int
	// PlanNanos is the time spent in the Plan stage: octant checks,
	// best-index selection and threshold computation.
	PlanNanos int64
	// ExecNanos is the time spent in the Execute stage: interval
	// walks, verification and sink delivery.
	ExecNanos int64
}

// Results returns the total number of points reported.
func (s Stats) Results() int { return s.Accepted + s.Matched }

// PruningFraction is the fraction of points whose scalar product was
// never computed (the paper's pruning percentage, divided by 100).
func (s Stats) PruningFraction() float64 {
	if s.N == 0 {
		return 0
	}
	return float64(s.N-s.Verified) / float64(s.N)
}

// Result is one answer of a top-k nearest-neighbour query: a point
// satisfying the inequality together with its Euclidean distance to
// the query hyperplane.
type Result struct {
	ID       uint32
	Distance float64
}
