package core

import (
	"errors"
	"fmt"

	"planar/internal/btree"
	"planar/internal/exec"
	"planar/internal/vecmath"
)

// Index is a single Planar index: a family of parallel hyperplanes
// with normal c, one through each point's φ vector, realised as a B+
// tree over the keys ⟨c, z(x)⟩ where z is the octant translation of
// φ (Section 4.5). The tree keeps its build's key frame for life; a
// point outside the translation widens delta, which moves every key
// by one constant, so only the planner's thresholds move (by shift).
// Indexes live in a Multi, which answers every query and whose lock
// guards every mutable field of its indexes.
type Index struct {
	owner *Multi              // the Multi holding the index; its store and lock are the index's
	c     []float64           // normal in the translated frame; all entries > 0
	signs vecmath.SignPattern // octant the index serves
	cs    []float64           // cs[i] = c[i]*signs[i]: effective normal in φ space
	base  float64             // ⟨c, δ⟩ at the tree's build, so key = ⟨cs, φ⟩ + base
	// delta is the query-time translation (entries >= 0); it only widens.
	delta []float64   // guarded by Multi.mu
	shift float64     // guarded by Multi.mu; ⟨c, delta⟩ − base, 0 until delta widens
	tree  *btree.Tree // guarded by Multi.mu
}

// newIndexFrame validates an index's geometry against m's store — a
// strictly positive normal (it lives in the translated first-octant
// frame) and a ±1 sign pattern selecting the hyper-octant of query
// coefficient vectors served — and returns the index without a
// translation or a tree.
func newIndexFrame(m *Multi, normal []float64, signs vecmath.SignPattern) (*Index, error) {
	d := m.store.Dim()
	if err := vecmath.CheckDim("index normal", normal, d); err != nil {
		return nil, err
	}
	if !vecmath.AllFinite(normal) {
		return nil, errors.New("core: index normal must be finite")
	}
	for i, v := range normal {
		if v <= 0 {
			return nil, fmt.Errorf("core: index normal component %d is %v, must be > 0", i, v)
		}
	}
	if len(signs) != d {
		return nil, fmt.Errorf("core: sign pattern has dimension %d, want %d", len(signs), d)
	}
	for i, s := range signs {
		if s != 1 && s != -1 {
			return nil, fmt.Errorf("core: sign pattern component %d is %d, must be ±1", i, s)
		}
	}
	ix := &Index{
		owner: m,
		c:     vecmath.Clone(normal),
		signs: append(vecmath.SignPattern(nil), signs...),
		cs:    make([]float64, d),
	}
	for i := range ix.cs {
		ix.cs[i] = ix.c[i] * float64(ix.signs[i])
	}
	return ix, nil
}

// newIndex builds a planar index over every live point of m's store.
// Build time and memory are O(n): the paper's O(n log n) sort (Section
// 4.2) is a radix sort in btree.BulkLoad.
func newIndex(m *Multi, normal []float64, signs vecmath.SignPattern) (*Index, error) {
	ix, err := newIndexFrame(m, normal, signs)
	if err != nil {
		return nil, err
	}
	ix.build()
	return ix, nil
}

// build computes the translation offsets from the store's points,
// which fixes the key frame, and bulk-loads the key tree. It runs
// from newIndex before ix is shared, so it takes no lock.
//
//planar:locked
func (ix *Index) build() {
	store := ix.owner.store
	ix.delta = make([]float64, store.Dim())
	store.Each(func(_ uint32, v []float64) bool {
		ix.widen(v)
		return true
	})
	ix.base = vecmath.Dot(ix.c, ix.delta)

	entries := make([]btree.Entry, 0, store.Len())
	store.Each(func(id uint32, v []float64) bool {
		entries = append(entries, btree.Entry{Key: ix.key(v), ID: id})
		return true
	})
	ix.tree = btree.BulkLoad(entries)
}

// key returns v's key in the tree's frame, ⟨cs, v⟩ + base.
func (ix *Index) key(v []float64) float64 {
	return vecmath.Dot(ix.cs, v) + ix.base
}

// widen raises delta until v's translated coordinates are all
// non-negative, in O(d′), and reports whether any offset moved.
// Callers hold Multi.mu.
//
//planar:locked
func (ix *Index) widen(v []float64) bool {
	moved := false
	for i := range v {
		if z := float64(ix.signs[i]) * v[i]; -z > ix.delta[i] {
			ix.delta[i] = -z
			moved = true
		}
	}
	return moved
}

// Normal returns a copy of the index normal (translated frame).
func (ix *Index) Normal() []float64 { return vecmath.Clone(ix.c) }

// EffectiveNormal returns a copy of the index normal expressed in the
// original φ space (c_i·s_i); this is the vector used for angle
// comparisons with query hyperplanes.
func (ix *Index) EffectiveNormal() []float64 { return vecmath.Clone(ix.cs) }

// Signs returns a copy of the octant sign pattern.
func (ix *Index) Signs() vecmath.SignPattern {
	return append(vecmath.SignPattern(nil), ix.signs...)
}

// Shift returns how far the query-time translation has widened past
// the tree's key frame, ⟨c, δ⟩ − ⟨c, δ_build⟩ (0 if it never has).
func (ix *Index) Shift() float64 {
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	return ix.shift
}

// Len returns the number of indexed points.
func (ix *Index) Len() int {
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	return ix.tree.Len()
}

// MemoryBytes returns the approximate heap footprint of the index
// structure itself (excluding the shared point store).
func (ix *Index) MemoryBytes() int {
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	return ix.memoryBytes()
}

// memoryBytes is MemoryBytes for callers holding Multi.mu.
//
//planar:locked
func (ix *Index) memoryBytes() int {
	return ix.tree.Stats().Bytes + 8*(len(ix.c)+len(ix.delta)+len(ix.cs)) + len(ix.signs)
}

// add indexes a point already present in the store, widening the
// translation first if the point lies outside it: O(d′ + log n)
// either way. Callers hold Multi.mu exclusively.
//
//planar:locked
func (ix *Index) add(id uint32, v []float64) {
	if ix.widen(v) {
		ix.shift = vecmath.Dot(ix.c, ix.delta) - ix.base
	}
	ix.tree.Insert(ix.key(v), id)
}

// remove unindexes a point given the φ vector it was indexed under.
// Callers hold Multi.mu exclusively.
//
//planar:locked
func (ix *Index) remove(id uint32, old []float64) {
	ix.tree.Delete(ix.key(old), id)
}

// update re-keys a point whose φ vector changed from old to new.
// Callers hold Multi.mu exclusively. Per Section 4.4 this costs
// O(d' log n).
//
//planar:locked
func (ix *Index) update(id uint32, old, new []float64) {
	ix.tree.Delete(ix.key(old), id)
	ix.add(id, new)
}

// info returns the planner's view of this index. The slices are
// shared, not copied; callers hold Multi.mu for the lifetime of the
// returned value.
//
//planar:locked
func (ix *Index) info() exec.IndexInfo {
	return exec.IndexInfo{
		Tree:  ix.tree,
		C:     ix.c,
		Delta: ix.delta,
		Shift: ix.shift,
		CS:    ix.cs,
		Signs: ix.signs,
	}
}
