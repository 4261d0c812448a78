package exec

import (
	"fmt"
	"math"
	"time"

	"planar/internal/vecmath"
)

// Kind classifies how a plan answers its query.
type Kind int

const (
	// KindNone: no point can match; reject everything.
	KindNone Kind = iota
	// KindAll: every point matches; accept everything.
	KindAll
	// KindRange: three-interval execution on the chosen index.
	KindRange
	// KindScan: sequential scan (no compatible index, or the cost
	// model preferred it).
	KindScan
)

// Plan is the Plan stage's output: which index (if any) answers the
// query and where its interval thresholds lie. All estimates needed
// later by the Execute stage are already computed; Explain adds the
// exact interval cardinalities on top.
type Plan struct {
	// Kind selects the execution strategy.
	Kind Kind
	// IndexPos is the chosen index's position in Source.Indexes, or
	// −1 for scan plans.
	IndexPos int
	// Compatible counts octant-compatible candidate indexes.
	Compatible int
	// Tmin and Tmax delimit SI/II/LI in the tree's key frame (KindRange
	// only); Tmax may be +Inf when some coefficient is zero.
	Tmin, Tmax float64
	// BPrime is the translated query bound b′ (KindRange only), used
	// by the top-k lower-bound pruning rule; it is in Delta's frame.
	BPrime float64
	// Reason explains the choice in one sentence.
	Reason string
	// PlanNanos is the time the Plan stage took.
	PlanNanos int64
}

// intervals is the raw threshold computation for one index (the
// paper's Section 4.1 arithmetic, moved here verbatim from the old
// per-variant copies in internal/core).
type intervals struct {
	tmin, tmax, bPrime float64
	all, none          bool
}

// thresholds computes the interval boundaries for a normalized (≤)
// query against one index.
//
// Returned cases:
//   - all:   every point matches (all coefficients zero, B ≥ 0)
//   - none:  no point can match (all zero with B < 0, or b′ < 0)
//   - else tmin/tmax delimit SI/II/LI in the tree's key frame (computed
//     in Delta's, guard band included, then moved by Shift); tmax may
//     be +Inf when some coefficient is zero (rejection impossible).
func thresholds(info *IndexInfo, q Query) (intervals, error) {
	if !info.Signs.Matches(q.A) {
		return intervals{}, ErrIncompatibleOctant
	}
	iv := intervals{bPrime: q.B}
	nonZero := 0
	for i, a := range q.A {
		iv.bPrime += math.Abs(a) * info.Delta[i]
		if a != 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		if q.B >= 0 {
			iv.all = true
		} else {
			iv.none = true
		}
		return iv, nil
	}
	if iv.bPrime < 0 {
		iv.none = true
		return iv, nil
	}
	iv.tmin = math.Inf(1)
	iv.tmax = math.Inf(-1)
	for i, a := range q.A {
		if a == 0 {
			iv.tmax = math.Inf(1) // rejection impossible on ignored axes
			continue
		}
		t := info.C[i] * iv.bPrime / math.Abs(a)
		if t < iv.tmin {
			iv.tmin = t
		}
		if t > iv.tmax {
			iv.tmax = t
		}
	}
	// Conservative band: only ever widens the verified range.
	if info.Guard > 0 {
		g := info.Guard * (1 + math.Abs(iv.tmin))
		iv.tmin -= g
		if !math.IsInf(iv.tmax, 1) {
			iv.tmax += info.Guard * (1 + math.Abs(iv.tmax))
		}
	}
	iv.tmin -= info.Shift
	iv.tmax -= info.Shift // +Inf stays +Inf
	return iv, nil
}

// Stretch evaluates the paper's Problem 3 objective for one index
// against a normalized query: the maximum stretch of the intermediate
// interval along any axis, (tmax − tmin) / min_i c_i. Smaller is
// better; 0 means the index normal is parallel to the query
// hyperplane (Corollary 1). It returns +Inf for incompatible octants
// or degenerate queries. A width, it does not depend on Shift.
func Stretch(info *IndexInfo, q Query) float64 {
	iv, err := thresholds(info, q)
	if err != nil {
		return math.Inf(1)
	}
	if iv.all || iv.none {
		return 0 // trivially answered without any verification
	}
	if math.IsInf(iv.tmax, 1) {
		return math.Inf(1)
	}
	cmin := info.C[0]
	for _, v := range info.C[1:] {
		if v < cmin {
			cmin = v
		}
	}
	return (iv.tmax - iv.tmin) / cmin
}

// CosToQuery returns |cos| of the angle between the query hyperplane
// normal a and the index's effective normal — the angle-minimisation
// selection criterion of Section 5.1.2 (larger is better).
func CosToQuery(info *IndexInfo, a []float64) float64 {
	return math.Abs(vecmath.CosAngle(a, info.CS))
}

// Bounds returns guaranteed cardinality bounds lo ≤ |answer| ≤ hi for
// q on one index in O(d·log n): lo is the smaller interval's size, hi
// adds the intermediate interval.
func Bounds(info *IndexInfo, q Query) (lo, hi int, err error) {
	iv, err := thresholds(info, q)
	if err != nil {
		return 0, 0, err
	}
	n := info.Tree.Len()
	if iv.none {
		return 0, 0, nil
	}
	if iv.all {
		return n, n, nil
	}
	lo = info.Tree.RankLE(iv.tmin)
	hi = lo + info.Tree.CountRange(iv.tmin, iv.tmax)
	return lo, hi, nil
}

// intervalSizes returns the exact SI and II cardinalities implied by
// iv on info's key tree.
func intervalSizes(info *IndexInfo, iv intervals) (si, ii int) {
	n := info.Tree.Len()
	switch {
	case iv.none:
		return 0, 0
	case iv.all:
		return n, 0
	}
	si = info.Tree.RankLE(iv.tmin)
	if math.IsInf(iv.tmax, 1) {
		ii = n - si
	} else {
		ii = info.Tree.CountRange(iv.tmin, iv.tmax)
	}
	return si, ii
}

// PlanQuery runs the Plan stage: octant compatibility, best-index
// selection, interval thresholds and the cost-based scan choice. A
// plan is a pure function of the query and the source's state, so it
// is computed afresh — O(r·d′) arithmetic — on every query.
func PlanQuery(src *Source, q Query) (Plan, error) {
	start := time.Now()
	p, err := planScored(src, q)
	p.PlanNanos = time.Since(start).Nanoseconds()
	return p, err
}

// planScored is the one place an index is chosen: every candidate is
// octant-checked and the compatible ones are scored.
func planScored(src *Source, q Query) (Plan, error) {
	best, bestScore := -1, math.Inf(1)
	first, compatible := -1, 0
	for i := range src.Indexes {
		info := &src.Indexes[i]
		if !info.Signs.Matches(q.A) {
			continue
		}
		if compatible == 0 {
			first = i
		}
		compatible++
		if src.Single {
			// A standalone index is not competing with anything; its
			// score is irrelevant (and may legitimately be +Inf, e.g.
			// a zero coefficient axis making rejection impossible).
			best = i
			continue
		}
		var score float64
		switch src.Sel {
		case SelectAngle:
			score = -CosToQuery(info, q.A) // maximise |cos|
		default:
			score = Stretch(info, q)
		}
		if score < bestScore {
			bestScore, best = score, i
		}
	}
	if best < 0 && !src.Fallback {
		// Every compatible index tied at +Inf (a zero coefficient):
		// any of them answers exactly, and there is no scan to prefer.
		best = first
	}
	return finishPlan(src, q, best, compatible)
}

// finishPlan turns a selection outcome into an executable plan:
// no-compatible-index handling, exact thresholds for the chosen
// index, and the cost-based scan decision.
func finishPlan(src *Source, q Query, best, compatible int) (Plan, error) {
	if best < 0 {
		if !src.Fallback {
			// planScored settles for the first compatible index when
			// there is no scan to fall back on, so nothing matched.
			if src.Single {
				return Plan{}, ErrIncompatibleOctant
			}
			return Plan{}, ErrNoCompatibleIndex
		}
		reason := "no index serves the query's hyper-octant"
		if compatible > 0 {
			reason = "a zero coefficient leaves the intermediate interval unbounded on every compatible index"
		}
		return Plan{
			Kind:       KindScan,
			IndexPos:   -1,
			Compatible: compatible,
			Reason:     reason,
		}, nil
	}
	info := &src.Indexes[best]
	iv, err := thresholds(info, q)
	if err != nil {
		// Selection only returns compatible indexes, so this cannot
		// happen; surface it rather than mask a bug.
		return Plan{}, err
	}
	p := Plan{
		IndexPos:   best,
		Compatible: compatible,
		Tmin:       iv.tmin,
		Tmax:       iv.tmax,
		BPrime:     iv.bPrime,
	}
	switch {
	case iv.none:
		p.Kind = KindNone
	case iv.all:
		p.Kind = KindAll
	default:
		p.Kind = KindRange
		if src.CostPenalty > 0 {
			n := info.Tree.Len()
			si, ii := intervalSizes(info, iv)
			if float64(si)+src.CostPenalty*float64(ii) >= float64(n) {
				return Plan{
					Kind:       KindScan,
					IndexPos:   -1,
					Compatible: compatible,
					Reason: fmt.Sprintf("cost model prefers scan (accept %d + %.1f×verify %d ≥ n %d)",
						si, src.CostPenalty, ii, n),
				}, nil
			}
		}
	}
	// Constant strings, not fmt.Sprintf: Reason is built on every
	// range plan and a formatted string would be the only allocation
	// left on the steady-state query path.
	if src.Sel == SelectAngle {
		p.Reason = "best compatible index by angle minimisation"
	} else {
		p.Reason = "best compatible index by stretch minimisation"
	}
	return p, nil
}

// PlanInfo is the EXPLAIN view of a plan: the plan itself plus the
// exact interval cardinalities and guaranteed answer bounds, all
// computed in O(log n) per compatible index without visiting a single
// data point.
type PlanInfo struct {
	Plan Plan
	// Stretch and Cos are the chosen index's selection diagnostics.
	Stretch, Cos float64
	// Accepted, Verified and Rejected are the exact interval sizes
	// the plan would see. For a scan plan, Verified = N.
	Accepted, Verified, Rejected int
	// N is the number of live points.
	N int
	// BoundsLo and BoundsHi bracket the answer cardinality
	// (intersected across all compatible indexes).
	BoundsLo, BoundsHi int
}

// Explain runs the Plan stage and describes the outcome without
// executing anything. Unlike PlanQuery it never fails on a missing
// index — it reports the scan plan that would be used instead.
func Explain(src *Source, q Query) (PlanInfo, error) {
	plan, err := PlanQuery(src, q)
	if err != nil {
		forced := *src
		forced.Fallback = true
		if plan, err = PlanQuery(&forced, q); err != nil {
			return PlanInfo{}, err
		}
	}
	pi := PlanInfo{Plan: plan, N: src.N, BoundsLo: 0, BoundsHi: src.N}
	if plan.Kind == KindScan {
		pi.Verified = pi.N
	} else {
		info := &src.Indexes[plan.IndexPos]
		iv, terr := thresholds(info, q)
		if terr == nil {
			si, ii := intervalSizes(info, iv)
			pi.Accepted = si
			pi.Verified = ii
			pi.Rejected = info.Tree.Len() - si - ii
		}
		pi.Stretch = Stretch(info, q)
		pi.Cos = CosToQuery(info, q.A)
	}
	// Tightest guaranteed bounds across every compatible index.
	for i := range src.Indexes {
		info := &src.Indexes[i]
		if !info.Signs.Matches(q.A) {
			continue
		}
		lo, hi, err := Bounds(info, q)
		if err != nil {
			continue
		}
		if lo > pi.BoundsLo {
			pi.BoundsLo = lo
		}
		if hi < pi.BoundsHi {
			pi.BoundsHi = hi
		}
	}
	return pi, nil
}
