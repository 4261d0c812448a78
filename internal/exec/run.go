package exec

import (
	"errors"
	"math"
	"runtime"
	"time"

	"planar/internal/kernel"
	"planar/internal/vecmath"
)

// ClampWorkers normalizes a worker count to [1, GOMAXPROCS]; it sizes
// core.Multi.AddNormals' parallel index build.
func ClampWorkers(workers int) int {
	if workers < 1 {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		return p
	}
	return workers
}

// Run is the whole pipeline for one query: Plan, then Execute into
// sink. It is the single entry point behind every query variant in
// internal/core.
func Run(src *Source, q Query, sink Sink) (Stats, error) {
	return Execute(src, q, PlanQuery(src, q), sink)
}

// Execute runs a previously planned query into sink, timing the stage
// and merging the plan's timing into the Stats.
func Execute(src *Source, q Query, plan Plan, sink Sink) (Stats, error) {
	start := time.Now()
	st, err := execute(src, q, plan, sink)
	st.ExecNanos = time.Since(start).Nanoseconds()
	st.PlanNanos = plan.PlanNanos
	return st, err
}

func execute(src *Source, q Query, plan Plan, sink Sink) (Stats, error) {
	if plan.Kind == KindScan {
		return executeScan(src, q, sink), nil
	}

	info := &src.Indexes[plan.IndexPos]
	st := Stats{N: info.Tree.Len(), IndexUsed: plan.IndexPos}

	switch plan.Kind {
	case KindNone:
		st.Rejected = st.N
		return st, nil

	case KindAll:
		if _, ok := sink.(Bounded); ok {
			// Cannot happen through the public API: all-zero
			// coefficient vectors are rejected before top-k planning.
			return Stats{}, errors.New("core: internal: degenerate thresholds")
		}
		st.Accepted = st.N
		if ac, ok := sink.(AcceptCounter); ok {
			ac.AcceptCount(st.N)
			return st, nil
		}
		// Every entry, a key that overflowed to −Inf included, from
		// the first leaf on.
		sink.Reserve(st.N)
		info.Tree.RankChunks(0, st.N, func(ids []uint32) bool {
			_, more := sink.AcceptChunk(ids)
			return more
		})
		return st, nil
	}

	// KindRange: the three-interval walk.
	if b, ok := sink.(Bounded); ok {
		return executeTopK(src, q, plan, info, sink, b, st)
	}

	return executeBatched(src, q, plan, info, sink, st)
}

// executeTopK is the range walk for Bounded (top-k) sinks: the
// intermediate interval is verified exhaustively, then the smaller
// interval is walked in descending key order and cut off by the
// lower-bound-distance pruning rule of Claim 3. Stats.Verified counts
// intermediate-interval points examined and Stats.Accepted counts
// smaller-interval points examined before the rule fired (the paper's
// k1).
func executeTopK(src *Source, q Query, plan Plan, info *IndexInfo, sink Sink, bounded Bounded, st Stats) (Stats, error) {
	tree := info.Tree
	acc := tree.RankLE(plan.Tmin)
	ver := max(tree.RankLE(plan.Tmax)-acc, 0)
	sc := getScratch(src.RowDim)
	defer putScratch(sc)
	tree.RankChunks(acc, acc+ver, func(ids []uint32) bool {
		return sc.verify(src, q, ids, ver < kernel.MinBatch, sink, &st)
	})
	st.Verified = ver

	// Lower-bound distance from a key to the query hyperplane
	// (Definition 5): min over nonzero axes of ||a_i|/c_i·key − b′|,
	// scaled by 1/|a|, with the tree key moved into b′'s frame.
	normA := vecmath.Norm(q.A)
	sc.invCoef = sc.invCoef[:0]
	for i, a := range q.A {
		if a != 0 {
			sc.invCoef = append(sc.invCoef, math.Abs(a)/info.C[i])
		}
	}
	// The cut-off is decided before every entry, so each leaf chunk
	// is read back to front and handed over one entry at a time.
	tree.DescendChunks(acc, func(keys []float64, ids []uint32) bool {
		for j := len(ids) - 1; j >= 0; j-- {
			if bound, full := bounded.Bound(); full {
				lbs := math.Inf(1)
				key := keys[j] + info.Shift
				for _, r := range sc.invCoef {
					if d := math.Abs(r*key - plan.BPrime); d < lbs {
						lbs = d
					}
				}
				lbs /= normA
				if lbs > bound {
					return false // Claim 3: no remaining point can improve
				}
			}
			taken, more := sink.AcceptChunk(ids[j : j+1 : j+1])
			st.Accepted += taken
			if !more {
				return false
			}
		}
		return true
	})
	st.Rejected = st.N - st.Accepted - st.Verified
	return st, nil
}

// RunBatch answers one query per entry of bs, all sharing the
// coefficient vector a: the Plan stage's octant checks and index
// selection run once, and only the interval thresholds are recomputed
// per threshold — the hot pattern of repeated queries that differ
// only in their bound. sinkFor supplies a fresh sink for each
// threshold; out[i] is the Stats for bs[i].
func RunBatch(src *Source, a []float64, bs []float64, sinkFor func(i int, b float64) Sink) ([]Stats, error) {
	out := make([]Stats, len(bs))
	if len(bs) == 0 {
		return out, nil
	}
	base := PlanQuery(src, Query{A: a, B: bs[0]})
	for i, b := range bs {
		q := Query{A: a, B: b}
		var p Plan
		switch {
		case i == 0:
			p = base
		case base.IndexPos >= 0:
			t0 := time.Now()
			p = finishPlan(src, q, base.IndexPos, base.Compatible)
			p.PlanNanos = time.Since(t0).Nanoseconds()
		default:
			// The shared plan is a scan; every threshold scans.
			p = Plan{Kind: KindScan, IndexPos: -1, Compatible: base.Compatible, Reason: base.Reason}
		}
		st, err := Execute(src, q, p, sinkFor(i, b))
		if err != nil {
			return nil, err
		}
		out[i] = st
	}
	return out, nil
}
