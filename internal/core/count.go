package core

import (
	"planar/internal/exec"
)

// Count returns the exact number of points satisfying q. The counting
// sink's AcceptCount capability lets the pipeline resolve the smaller
// and larger intervals in O(log n) through the key tree's order
// statistics; only the intermediate interval is verified point by
// point, so a well-aligned index answers COUNT(*) queries in
// logarithmic time.
func (ix *Index) Count(q Query) (int, Stats, error) {
	if err := q.Validate(ix.store.Dim()); err != nil {
		return 0, Stats{}, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	src := ix.source()
	defer putSource(src)
	var sink exec.CountSink
	st, err := exec.Run(src, q.LE(), &sink, exec.Options{})
	if err != nil {
		return 0, Stats{}, err
	}
	return sink.N, st, nil
}

// SelectivityBounds returns guaranteed bounds lo <= |answer| <= hi
// in O(d'·log n) without computing a single scalar product: lo is
// the smaller interval's cardinality, hi adds the intermediate
// interval. A parallel index gives lo == hi — an exact COUNT in
// logarithmic time. Query optimisers can use this for cardinality
// estimation with hard guarantees.
func (ix *Index) SelectivityBounds(q Query) (lo, hi int, err error) {
	if err := q.Validate(ix.store.Dim()); err != nil {
		return 0, 0, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	info := ix.info()
	return exec.Bounds(&info, q.LE())
}

// Count answers an exact COUNT(*) through the best compatible index,
// falling back to a scan when none exists (if fallback is enabled).
// The cost model is not consulted: the counting plan touches the
// smaller interval in O(log n), so the indexed plan's cost estimate
// would be wrong for it.
func (m *Multi) Count(q Query) (int, Stats, error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return 0, Stats{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked(false)
	defer lease.Release()
	src := &lease.src
	var sink exec.CountSink
	st, err := exec.Run(src, q.LE(), &sink, exec.Options{})
	if err != nil {
		return 0, Stats{}, err
	}
	return sink.N, st, nil
}

// SelectivityBounds intersects the per-index bounds of every
// compatible index — each is individually guaranteed, so the
// tightest combination [max lo, min hi] is too. With no compatible
// index it returns the trivial bounds [0, n].
func (m *Multi) SelectivityBounds(q Query) (lo, hi int, err error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return 0, 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked(false)
	defer lease.Release()
	src := &lease.src
	nq := q.LE()
	lo, hi = 0, m.store.Len()
	for i := range src.Indexes {
		info := &src.Indexes[i]
		if !info.Signs.Matches(nq.A) {
			continue
		}
		ilo, ihi, err := exec.Bounds(info, nq)
		if err != nil {
			return 0, 0, err
		}
		if ilo > lo {
			lo = ilo
		}
		if ihi < hi {
			hi = ihi
		}
	}
	return lo, hi, nil
}
