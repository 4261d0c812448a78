package exec

import (
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
	// KindScan: sequential scan (no compatible index bounds the
	// intermediate interval).
	KindScan
)

// guardBand is the relative width of the conservative band added
// around the interval thresholds, so floating-point rounding can only
// enlarge the verified range, never corrupt an accept/reject decision.
const guardBand = 1e-9

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
// query against one index whose octant matches q's signs (every
// caller checks Signs.Matches first).
//
// Returned cases:
//   - all:   every point matches (all coefficients zero, B ≥ 0)
//   - none:  no point can match (all zero with B < 0, or b′ < 0)
//   - else tmin/tmax delimit SI/II/LI in the tree's key frame (computed
//     in Delta's, guard band included, then moved by Shift); tmax may
//     be +Inf when some coefficient is zero (rejection impossible).
func thresholds(info *IndexInfo, q Query) intervals {
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
		return iv
	}
	if iv.bPrime < 0 {
		iv.none = true
		return iv
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
	iv.tmin -= guardBand * (1 + math.Abs(iv.tmin))
	if !math.IsInf(iv.tmax, 1) {
		iv.tmax += guardBand * (1 + math.Abs(iv.tmax))
	}
	iv.tmin -= info.Shift
	iv.tmax -= info.Shift // +Inf stays +Inf
	return iv
}

// Stretch evaluates the paper's Problem 3 objective for one index
// against a normalized query: the maximum stretch of the intermediate
// interval along any axis, (tmax − tmin) / min_i c_i. Smaller is
// better; 0 means the index normal is parallel to the query
// hyperplane (Corollary 1). It returns +Inf for incompatible octants
// or degenerate queries. A width, it does not depend on Shift.
func Stretch(info *IndexInfo, q Query) float64 {
	if !info.Signs.Matches(q.A) {
		return math.Inf(1)
	}
	iv := thresholds(info, q)
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
// adds the intermediate interval. An index whose octant does not match
// q bounds nothing and returns the trivial [0, n].
func Bounds(info *IndexInfo, q Query) (lo, hi int) {
	n := info.Tree.Len()
	if !info.Signs.Matches(q.A) {
		return 0, n
	}
	iv := thresholds(info, q)
	if iv.none {
		return 0, 0
	}
	if iv.all {
		return n, n
	}
	lo = info.Tree.RankLE(iv.tmin)
	hi = lo + info.Tree.CountRange(iv.tmin, iv.tmax)
	return lo, hi
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
// selection and interval thresholds. A plan is a pure function of the
// query and the source's state, so it is computed afresh — O(r·d′)
// arithmetic — on every query.
func PlanQuery(src *Source, q Query) Plan {
	start := time.Now()
	p := planScored(src, q)
	p.PlanNanos = time.Since(start).Nanoseconds()
	return p
}

// planScored is the one place an index is chosen: every candidate is
// octant-checked and the compatible ones are scored. The best finite
// score wins; with none, the query is scanned.
func planScored(src *Source, q Query) Plan {
	best, bestScore := -1, math.Inf(1)
	compatible := 0
	for i := range src.Indexes {
		info := &src.Indexes[i]
		if !info.Signs.Matches(q.A) {
			continue
		}
		compatible++
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
	return finishPlan(src, q, best, compatible)
}

// finishPlan turns a selection outcome into an executable plan: a
// scan when no index was chosen, else the chosen (octant-compatible)
// index's exact thresholds.
func finishPlan(src *Source, q Query, best, compatible int) Plan {
	if best < 0 {
		reason := "no index serves the query's hyper-octant"
		if compatible > 0 {
			reason = "a zero coefficient leaves the intermediate interval unbounded on every compatible index"
		}
		return Plan{
			Kind:       KindScan,
			IndexPos:   -1,
			Compatible: compatible,
			Reason:     reason,
		}
	}
	iv := thresholds(&src.Indexes[best], q)
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
	}
	// Constant strings, not fmt.Sprintf: Reason is built on every
	// range plan and a formatted string would be the only allocation
	// left on the steady-state query path.
	if src.Sel == SelectAngle {
		p.Reason = "best compatible index by angle minimisation"
	} else {
		p.Reason = "best compatible index by stretch minimisation"
	}
	return p
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
// executing anything.
func Explain(src *Source, q Query) PlanInfo {
	plan := PlanQuery(src, q)
	pi := PlanInfo{Plan: plan, N: src.N, BoundsLo: 0, BoundsHi: src.N}
	if plan.Kind == KindScan {
		pi.Verified = pi.N
	} else {
		info := &src.Indexes[plan.IndexPos]
		si, ii := intervalSizes(info, thresholds(info, q))
		pi.Accepted = si
		pi.Verified = ii
		pi.Rejected = info.Tree.Len() - si - ii
		pi.Stretch = Stretch(info, q)
		pi.Cos = CosToQuery(info, q.A)
	}
	// Tightest guaranteed bounds across every compatible index.
	for i := range src.Indexes {
		info := &src.Indexes[i]
		if !info.Signs.Matches(q.A) {
			continue
		}
		lo, hi := Bounds(info, q)
		if lo > pi.BoundsLo {
			pi.BoundsLo = lo
		}
		if hi < pi.BoundsHi {
			pi.BoundsHi = hi
		}
	}
	return pi
}
