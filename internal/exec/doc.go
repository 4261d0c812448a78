// Package exec is the unified query planner/executor pipeline every
// planar query variant runs on. It factors the paper's three-interval
// scheme (smaller interval accept / larger interval reject /
// intermediate interval verify, Section 4.3) into three explicit
// stages so batching and observability are implemented once instead
// of per query type:
//
//	Plan    octant compatibility, best-index selection (volume or
//	        angle minimisation, Section 5.1) with a scan when no
//	        compatible index bounds the query, and interval
//	        thresholds tmin/tmax with the conservative guard band.
//	        O(r·d′) arithmetic, run on every query; nothing is
//	        memoised.
//	Execute two rank queries, then one pass of the chosen index's
//	        leaf chain over the smaller interval (whole leaf id
//	        slices handed to the sink) and the intermediate interval
//	        after it (verified through the block kernels) — or a
//	        sequential block-kernel scan. Top-k verifies the
//	        intermediate interval the same way, then descends the
//	        smaller one leaf by leaf until Claim 3 cuts it off.
//	Sink    pluggable result collectors: raw ids (IDSink), exact
//	        counts in O(log n) (CountSink), top-k nearest to the
//	        query hyperplane with lower-bound pruning (TopKSink),
//	        and callback streaming (FuncSink).
//
// The package deliberately depends only on the btree, kernel, topk
// and vecmath primitives; internal/core builds its public query API on
// top of this pipeline, and internal/service, internal/httpapi and
// the CLIs inherit the per-stage Stats (planning time, interval
// sizes) uniformly.
package exec
