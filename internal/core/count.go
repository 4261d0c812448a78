package core

import (
	"planar/internal/exec"
)

// Count returns the exact number of points satisfying q, through the
// best compatible index or a scan when none bounds the query. The
// counting sink's AcceptCounter capability lets the pipeline resolve
// the smaller and larger intervals in O(log n) through the key tree's
// order statistics; only the intermediate interval is verified point
// by point, so a well-aligned index answers COUNT(*) queries in
// logarithmic time.
func (m *Multi) Count(q Query) (int, Stats, error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return 0, Stats{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked()
	defer lease.Release()
	src := &lease.src
	var sink exec.CountSink
	st, err := exec.Run(src, q.LE(), &sink)
	if err != nil {
		return 0, Stats{}, err
	}
	return sink.N, st, nil
}

// SelectivityBounds returns guaranteed bounds lo <= |answer| <= hi
// in O(r·d'·log n) without computing a single scalar product. On one
// index, lo is the smaller interval's cardinality and hi adds the
// intermediate interval; a parallel index gives lo == hi. Each
// compatible index's bounds are individually guaranteed, so their
// intersection [max lo, min hi] is too. With no compatible index it
// returns the trivial bounds [0, n].
func (m *Multi) SelectivityBounds(q Query) (lo, hi int, err error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return 0, 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked()
	defer lease.Release()
	src := &lease.src
	nq := q.LE()
	lo, hi = 0, m.store.Len()
	for i := range src.Indexes {
		info := &src.Indexes[i]
		if !info.Signs.Matches(nq.A) {
			continue
		}
		ilo, ihi := exec.Bounds(info, nq)
		if ilo > lo {
			lo = ilo
		}
		if ihi < hi {
			hi = ihi
		}
	}
	return lo, hi, nil
}
