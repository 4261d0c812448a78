package core

import (
	"errors"
	"fmt"

	"planar/internal/vecmath"
)

// PointStore holds the φ(x) vectors of every data point in a flat,
// row-major []float64. It is shared between all planar indexes over
// the same points, so a budget of r indexes costs O(n·d' + r·n)
// memory (paper Section 5.2).
//
// Point identifiers are dense uint32 row numbers assigned by Append.
// Removed rows are recycled. PointStore itself is not synchronised;
// Multi serialises mutations across the store and its indexes.
type PointStore struct {
	dim  int
	data []float64
	live []bool
	free []uint32
	n    int // live count
	// dirty marks rows whose data changed since the last checkpoint
	// reset — the incremental checkpoint's delta set. Append and Set
	// mark; Remove does not (it only flips live/free, which travel in
	// the checkpoint header, so the row bytes on disk stay correct).
	dirty []bool
}

// ErrBadPoint reports an invalid point vector.
var ErrBadPoint = errors.New("core: invalid point")

// NewPointStore creates an empty store for dim-dimensional φ vectors.
func NewPointStore(dim int) (*PointStore, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("core: dimension must be positive, got %d", dim)
	}
	return &PointStore{dim: dim}, nil
}

// FromMatrix builds a store from a slice of equal-length rows.
func FromMatrix(rows [][]float64) (*PointStore, error) {
	if len(rows) == 0 {
		return nil, errors.New("core: FromMatrix needs at least one row")
	}
	s, err := NewPointStore(len(rows[0]))
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if _, err := s.Append(r); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	return s, nil
}

// Dim returns the dimensionality d' of the stored vectors.
func (s *PointStore) Dim() int { return s.dim }

// Len returns the number of live points.
func (s *PointStore) Len() int { return s.n }

// Cap returns the number of allocated rows (live + recycled).
func (s *PointStore) Cap() int { return len(s.live) }

// Append adds a point and returns its identifier.
func (s *PointStore) Append(v []float64) (uint32, error) {
	if err := s.check(v); err != nil {
		return 0, err
	}
	var id uint32
	if len(s.free) > 0 {
		id = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
		copy(s.data[int(id)*s.dim:], v)
		s.live[id] = true
	} else {
		id = uint32(len(s.live))
		s.data = append(s.data, v...)
		s.live = append(s.live, true)
		s.dirty = append(s.dirty, false)
	}
	s.dirty[id] = true
	s.n++
	return id, nil
}

// Set replaces the vector of an existing live point.
func (s *PointStore) Set(id uint32, v []float64) error {
	if err := s.check(v); err != nil {
		return err
	}
	if !s.Live(id) {
		return fmt.Errorf("core: point %d is not live", id)
	}
	copy(s.data[int(id)*s.dim:], v)
	s.dirty[id] = true
	return nil
}

// Remove frees a point's row. The identifier may be reused by a later
// Append.
func (s *PointStore) Remove(id uint32) error {
	if !s.Live(id) {
		return fmt.Errorf("core: point %d is not live", id)
	}
	s.live[id] = false
	s.free = append(s.free, id)
	s.n--
	return nil
}

// Live reports whether id names a live point.
func (s *PointStore) Live(id uint32) bool {
	return int(id) < len(s.live) && s.live[id]
}

// Vector returns a read-only view of the point's φ vector. The slice
// aliases internal storage and must not be modified or retained
// across mutations.
func (s *PointStore) Vector(id uint32) []float64 {
	off := int(id) * s.dim
	return s.data[off : off+s.dim : off+s.dim]
}

// Each calls fn for every live point until fn returns false.
func (s *PointStore) Each(fn func(id uint32, v []float64) bool) {
	for id := range s.live {
		if s.live[id] {
			if !fn(uint32(id), s.Vector(uint32(id))) {
				return
			}
		}
	}
}

// AxisRange returns the minimum and maximum of coordinate i over all
// live points. With no live points it returns (0, 0, false).
func (s *PointStore) AxisRange(i int) (lo, hi float64, ok bool) {
	first := true
	s.Each(func(_ uint32, v []float64) bool {
		if first {
			lo, hi = v[i], v[i]
			first = false
		} else {
			if v[i] < lo {
				lo = v[i]
			}
			if v[i] > hi {
				hi = v[i]
			}
		}
		return true
	})
	return lo, hi, !first
}

// RawRows returns the store's row-major backing array and live bitmap
// aliased, not copied — the zero-copy feed for the batched
// verification engine. Dead rows hold stale values; consumers filter
// on live. The slices are invalidated by any mutation; callers must
// hold the owning synchronisation (Multi's read lock) while using
// them.
func (s *PointStore) RawRows() (data []float64, live []bool) {
	return s.data, s.live
}

// FreeList returns a copy of the free list in recycling order.
func (s *PointStore) FreeList() []uint32 {
	return append([]uint32(nil), s.free...)
}

// EachDirtyRow calls fn for every row marked dirty since the last
// ResetDirty, in row order.
func (s *PointStore) EachDirtyRow(fn func(row int)) {
	for i, d := range s.dirty {
		if d {
			fn(i)
		}
	}
}

// DirtyRowCount returns the number of rows in the delta set.
func (s *PointStore) DirtyRowCount() int {
	n := 0
	for _, d := range s.dirty {
		if d {
			n++
		}
	}
	return n
}

// MarkAllDirty puts every row in the delta set, forcing the next
// checkpoint to rewrite the complete data-page set.
func (s *PointStore) MarkAllDirty() {
	for i := range s.dirty {
		s.dirty[i] = true
	}
}

// ResetDirty empties the delta set; a checkpoint calls it after its
// commit succeeds.
func (s *PointStore) ResetDirty() {
	for i := range s.dirty {
		s.dirty[i] = false
	}
}

// Raw exports the store's exact internal layout — row-major data
// (including dead rows), the live bitmap, and the free list in
// recycling order — so snapshots can preserve point identifiers
// across restarts. All returned slices are copies.
func (s *PointStore) Raw() (data []float64, live []bool, free []uint32) {
	return append([]float64(nil), s.data...),
		append([]bool(nil), s.live...),
		append([]uint32(nil), s.free...)
}

// NewPointStoreFromRaw reconstructs a store from the layout returned
// by Raw. Identifiers (row numbers and the recycling order of freed
// rows) are preserved exactly, which write-ahead-log replay depends
// on. The store takes ownership of data, live and free: it keeps and
// mutates them, so the caller must not use them afterwards.
func NewPointStoreFromRaw(dim int, data []float64, live []bool, free []uint32) (*PointStore, error) {
	s, err := NewPointStore(dim)
	if err != nil {
		return nil, err
	}
	if len(data) != len(live)*dim {
		return nil, fmt.Errorf("core: raw data has %d values for %d rows of dimension %d", len(data), len(live), dim)
	}
	seen := make([]bool, len(live))
	for _, id := range free {
		if int(id) >= len(live) {
			return nil, fmt.Errorf("core: free id %d out of range", id)
		}
		if live[id] {
			return nil, fmt.Errorf("core: free id %d marked live", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("core: free id %d repeated", id)
		}
		seen[id] = true
	}
	n := 0
	for i, lv := range live {
		if lv {
			n++
			if !vecmath.AllFinite(data[i*dim : (i+1)*dim]) {
				return nil, fmt.Errorf("core: raw row %d has non-finite coordinates", i)
			}
		} else if !seen[i] {
			return nil, fmt.Errorf("core: dead row %d missing from the free list", i)
		}
	}
	s.data, s.live, s.free = data, live, free
	s.dirty = make([]bool, len(live))
	s.n = n
	return s, nil
}

// MemoryBytes returns the approximate heap footprint of the store.
func (s *PointStore) MemoryBytes() int {
	return 8*cap(s.data) + cap(s.live) + 4*cap(s.free)
}

func (s *PointStore) check(v []float64) error {
	if len(v) != s.dim {
		return fmt.Errorf("core: point has dimension %d, want %d: %w", len(v), s.dim, ErrBadPoint)
	}
	if !vecmath.AllFinite(v) {
		return fmt.Errorf("core: point has non-finite coordinates: %w", ErrBadPoint)
	}
	return nil
}
