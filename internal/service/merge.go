package service

import (
	"slices"
	"sort"

	"planar/internal/core"
)

// mergeStats rolls one query's per-shard pipeline stats up into a
// single Stats: interval counters and stage times sum (the totals are
// cumulative work across shards, not wall clock), FellBack reports
// any shard scanning, and IndexUsed survives only when all shards
// selected the same index position (the usual case — shards share one
// index configuration — but interval sizes are data-dependent, so
// they may legitimately disagree).
func mergeStats(sts []core.Stats) core.Stats {
	if len(sts) == 0 {
		return core.Stats{}
	}
	out := core.Stats{IndexUsed: sts[0].IndexUsed}
	for _, st := range sts {
		out.N += st.N
		out.Accepted += st.Accepted
		out.Verified += st.Verified
		out.Matched += st.Matched
		out.Rejected += st.Rejected
		out.PlanNanos += st.PlanNanos
		out.ExecNanos += st.ExecNanos
		if st.FellBack {
			out.FellBack = true
		}
		if st.IndexUsed != out.IndexUsed {
			out.IndexUsed = -1
		}
	}
	return out
}

// mergeIDs appends per-shard global id sets to dst as one
// ascending-id answer. Sorting makes the scatter-gather result
// deterministic regardless of shard count and gather order. An empty
// answer leaves dst as it came (nil stays nil).
func mergeIDs(dst []uint32, parts [][]uint32) []uint32 {
	total := 0
	for _, ids := range parts {
		total += len(ids)
	}
	from := len(dst)
	dst = slices.Grow(dst, total)
	for _, ids := range parts {
		dst = append(dst, ids...)
	}
	slices.Sort(dst[from:])
	return dst
}

// mergeTopK k-way merges per-shard top-k answers. Each shard already
// applied the Claim-3 cut-off to its own smaller interval, so each
// part is a correct local top-k; the global top-k is the k best of
// their union, ordered by (distance, id) — the same tie-break the
// single-store pipeline uses.
func mergeTopK(parts [][]core.Result, k int) []core.Result {
	total := 0
	for _, rs := range parts {
		total += len(rs)
	}
	if total == 0 {
		return nil
	}
	all := make([]core.Result, 0, total)
	for _, rs := range parts {
		all = append(all, rs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Distance != all[j].Distance { //nolint:floatkey // sort tie-break: tolerance would violate strict weak ordering
			return all[i].Distance < all[j].Distance
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
