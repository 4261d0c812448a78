// Package core implements the Planar index of Khan et al., "Towards
// Indexing Functions: Answering Scalar Product Queries" (SIGMOD
// 2014).
//
// A scalar product query asks, over a set of data points x whose
// feature vectors φ(x) ∈ R^d' are known ahead of time, for all points
// satisfying ⟨a, φ(x)⟩ ≤ b (or ≥ b), where the parameters (a, b)
// arrive only at query time. The Planar index keys every point by its
// scalar product with a fixed normal vector c and keeps those keys
// sorted; at query time the sorted order yields three key ranges —
// the smaller interval (all points accepted without computing the
// product), the larger interval (all rejected), and the intermediate
// interval (verified exactly).
//
// The package provides:
//
//   - PointStore: shared, flat storage of φ vectors, so many indexes
//     over the same points cost O(n) each rather than O(n·d').
//   - Index: a single planar index — construction (with the paper's
//     octant translation, Section 4.5) and O(log n) dynamic updates
//     backed by a B+ tree.
//   - Multi: a budgeted collection of indexes and the one query
//     surface — inequality queries (Algorithm 1), top-k
//     nearest-neighbour queries (Algorithm 2), COUNT(*) and EXPLAIN —
//     with the paper's two best-index selection heuristics
//     (volume/stretch minimisation and angle minimisation, Section 5),
//     a sequential scan when no compatible index bounds a query, plus
//     uniform normal sampling from parameter domains and redundancy
//     elimination. A one-index Multi is the single-index case.
//
// All query answers are exact: the interval thresholds carry a small
// conservative guard band so that floating-point rounding can only
// move points from the accept/reject ranges into the verified range,
// never the other way.
package core
