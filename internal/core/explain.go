package core

import (
	"fmt"
	"math"
	"strings"

	"planar/internal/exec"
)

// Plan describes how a Multi would answer a query, without running
// it — the EXPLAIN of this index. All estimates are exact interval
// cardinalities computed in O(log n) from the chosen index's order
// statistics; only the split of the intermediate interval into
// matches and non-matches is unknown before verification.
type Plan struct {
	// IndexUsed is the position of the selected index, or −1 when
	// the query would be answered by a sequential scan.
	IndexUsed int
	// Reason explains the choice in one sentence.
	Reason string
	// Compatible counts octant-compatible indexes.
	Compatible int
	// Stretch is the chosen index's Problem-3 objective (0 = query
	// hyperplane parallel to the index family).
	Stretch float64
	// Cos is |cos| of the angle between the query hyperplane and the
	// chosen index family.
	Cos float64
	// Accepted, Verified and Rejected are the exact interval sizes
	// the indexed plan would see. For a scan plan, Verified = N.
	Accepted, Verified, Rejected int
	// N is the number of live points.
	N int
	// BoundsLo and BoundsHi bracket the answer cardinality
	// (intersected across all compatible indexes).
	BoundsLo, BoundsHi int
}

// String renders the plan for humans.
func (p Plan) String() string {
	var b strings.Builder
	if p.IndexUsed < 0 {
		fmt.Fprintf(&b, "plan: sequential scan (%s)\n", p.Reason)
	} else {
		fmt.Fprintf(&b, "plan: index %d (%s)\n", p.IndexUsed, p.Reason)
		fmt.Fprintf(&b, "  stretch=%.4g |cos|=%.4f\n", p.Stretch, p.Cos)
	}
	fmt.Fprintf(&b, "  intervals: accept=%d verify=%d reject=%d of %d (pruning %.1f%%)\n",
		p.Accepted, p.Verified, p.Rejected, p.N,
		100*float64(p.N-p.Verified)/math.Max(1, float64(p.N)))
	fmt.Fprintf(&b, "  answer cardinality in [%d, %d]", p.BoundsLo, p.BoundsHi)
	return b.String()
}

// Explain returns the execution plan for q under the Multi's
// selection heuristic without visiting any data point. It runs the
// pipeline's Plan stage only.
func (m *Multi) Explain(q Query) (Plan, error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return Plan{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked()
	defer lease.Release()
	src := &lease.src
	pi := exec.Explain(src, q.LE())
	return Plan{
		IndexUsed:  pi.Plan.IndexPos,
		Reason:     pi.Plan.Reason,
		Compatible: pi.Plan.Compatible,
		Stretch:    pi.Stretch,
		Cos:        pi.Cos,
		Accepted:   pi.Accepted,
		Verified:   pi.Verified,
		Rejected:   pi.Rejected,
		N:          pi.N,
		BoundsLo:   pi.BoundsLo,
		BoundsHi:   pi.BoundsHi,
	}, nil
}
