package exec

import (
	"sync"

	"planar/internal/btree"
	"planar/internal/kernel"
)

// This file is the execution engine: the KindRange and KindScan
// strategies expressed over contiguous arrays, and the per-chunk
// verifier that top-k's walk in run.go shares with them. Two rank
// queries on the index tree fix every interval size up front, and one
// walk of the leaf chain then serves both intervals that are read:
// the smaller interval's leaf id slices go to the sink as they are,
// and the intermediate interval, which follows it in key order, is
// verified block-by-block through the dimension-specialized kernels
// in internal/kernel. The id column is not copied anywhere on the
// way: the tree's leaf arena IS the packed column, and RankChunks
// (like top-k's DescendChunks) hands out slices that alias it
// directly. All scratch memory is pooled, so a steady-state query
// allocates nothing.

// One RankChunks chunk stays within one leaf, and one leaf is
// exactly one kernel block. The two uint conversions reject a drift
// in either direction at compile time.
const (
	_ = uint(kernel.BlockRows - btree.LeafCap)
	_ = uint(btree.LeafCap - kernel.BlockRows)
)

// scratch is the per-query working set of the engine: a gather buffer
// of one block of φ rows, a match-offset buffer, and top-k's per-axis
// ratios |a_i|/c_i of the Claim-3 lower bound.
type scratch struct {
	gather  []float64
	matches []uint32
	invCoef []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch(dim int) *scratch {
	sc := scratchPool.Get().(*scratch)
	if need := kernel.BlockRows * dim; cap(sc.gather) < need {
		sc.gather = make([]float64, need)
	}
	if cap(sc.matches) < kernel.BlockRows {
		sc.matches = make([]uint32, kernel.BlockRows)
	}
	return sc
}

func putScratch(sc *scratch) { scratchPool.Put(sc) }

// answerReserve is what a buffering sink is told to make room for:
// the accepted ids, which are certain, and the verified ones with
// them while that at most doubles the room — a selective query's
// large II must not size the buffer of its small answer.
func answerReserve(accepted, verified int) int {
	if verified <= accepted {
		return accepted + verified
	}
	return accepted
}

// executeBatched is the three-interval walk over the leaf arena: SI
// is positions [0, acc) of the key order and II the ver after it, so
// both are one pass of the leaf chain from its first leaf. A sink that
// stops inside SI leaves partial stats (Accepted = what it took, the
// larger interval unclassified); once SI has been delivered, Verified
// and Rejected are final even if the sink stops early.
func executeBatched(src *Source, q Query, plan Plan, info *IndexInfo, sink Sink, st Stats) (Stats, error) {
	tree := info.Tree
	acc := tree.RankLE(plan.Tmin)
	ver := max(tree.RankLE(plan.Tmax)-acc, 0)

	// A sink that only counts takes SI as a number and the walk
	// starts at II; any other is handed SI's leaf id slices.
	pos := 0
	if ac, ok := sink.(AcceptCounter); ok {
		ac.AcceptCount(acc)
		st.Accepted = acc
		pos = acc
	} else {
		sink.Reserve(answerReserve(acc, ver))
	}
	sc := getScratch(src.RowDim)
	defer putScratch(sc)
	stoppedInSI := false
	tree.RankChunks(pos, acc+ver, func(ids []uint32) bool {
		if pos < acc {
			si := ids[:min(len(ids), acc-pos)]
			taken, more := sink.AcceptChunk(si)
			st.Accepted += taken
			if !more {
				stoppedInSI = true
				return false
			}
			pos += len(si)
			if ids = ids[len(si):]; len(ids) == 0 {
				return true
			}
		}
		return sc.verify(src, q, ids, ver < kernel.MinBatch, sink, &st)
	})
	if stoppedInSI {
		// Legacy early-stop contract: partial stats, larger
		// interval unclassified.
		return st, nil
	}
	st.Verified = ver
	st.Rejected = st.N - acc - ver
	return st, nil
}

// verify checks one chunk of intermediate-interval ids against q and
// hands the matches to sink, counting them in st; it reports false
// when the sink stopped. A tiny interval (tiny = |II| < MinBatch)
// skips the gather and reads each id's row in place.
func (sc *scratch) verify(src *Source, q Query, ids []uint32, tiny bool, sink Sink, st *Stats) bool {
	d := src.RowDim
	if tiny {
		for _, id := range ids {
			if q.Satisfies(src.Rows[int(id)*d : (int(id)+1)*d]) {
				st.Matched++
				if !sink.Match(id) {
					return false
				}
			}
		}
		return true
	}
	kernel.Gather(src.Rows, d, ids, sc.gather)
	m := kernel.FilterLE(q.A, q.B, sc.gather[:len(ids)*d], sc.matches)
	for _, off := range sc.matches[:m] {
		st.Matched++
		if !sink.Match(ids[off]) {
			return false
		}
	}
	return true
}

// executeScan answers a scan plan with block kernels over the raw row
// array: every complete block of rows (live and dead) runs through
// FilterLE, and dead rows are dropped at delivery. Verified counts
// live points only: every live point has its scalar product computed.
func executeScan(src *Source, q Query, sink Sink) Stats {
	st := Stats{N: src.N, FellBack: true, IndexUsed: -1}
	st.Verified = st.N
	sc := getScratch(src.RowDim)
	defer putScratch(sc)
	d := src.RowDim
	rows := len(src.RowLive)
	for lo := 0; lo < rows; lo += kernel.BlockRows {
		end := lo + kernel.BlockRows
		if end > rows {
			end = rows
		}
		m := kernel.FilterLE(q.A, q.B, src.Rows[lo*d:end*d], sc.matches)
		for _, off := range sc.matches[:m] {
			id := uint32(lo) + off
			if !src.RowLive[id] {
				continue
			}
			st.Matched++
			if !sink.Match(id) {
				return st
			}
		}
	}
	return st
}
