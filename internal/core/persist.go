package core

import (
	"errors"
	"fmt"
	"math"

	"planar/internal/btree"
	"planar/internal/pager"
	"planar/internal/vecmath"
)

// This file is the index side of the disk-paged checkpoint protocol
// (package codec owns the file format). Two flows meet here:
//
//   - Checkpoint: CheckpointIndexes turns every index into an
//     IndexPersist — geometry plus a btree.PagedMeta whose pages are
//     durable once the caller commits the pager file. An index's first
//     checkpoint adopts its tree onto those pages; later ones flush
//     only the epoch's delta.
//   - Restart: AttachPrebuilt installs indexes whose trees were opened
//     straight from those pages (btree.OpenPaged), skipping the
//     bulk load (a radix sort and a pack) that Snapshot.Restore pays.
//
// The key frame (base, fixed at the tree's build) and the translation
// (delta, widened since and never shrunk by deletes) both travel with
// the tree: recomputing either from the points would silently shift
// every key or threshold.

// PrebuiltIndex is the restart-path constructor input for one index:
// its geometry plus an already-materialised tree (typically paged).
type PrebuiltIndex struct {
	Normal []float64
	Signs  vecmath.SignPattern
	Delta  []float64
	Base   float64 // the tree's key frame, ⟨Normal, δ⟩ at its build
	Tree   *btree.Tree
}

// IndexPersist is the durable state of one index at a checkpoint.
// DeltaPages counts the pages this checkpoint wrote for the index: the
// whole tree at its first checkpoint, the epoch's delta after that.
type IndexPersist struct {
	Normal     []float64
	Signs      vecmath.SignPattern
	Delta      []float64
	Base       float64
	Meta       *btree.PagedMeta
	DeltaPages int
}

// newPrebuiltIndex validates a PrebuiltIndex against m's store and
// wires it up without rebuilding its tree.
func newPrebuiltIndex(m *Multi, p PrebuiltIndex) (*Index, error) {
	if p.Tree == nil {
		return nil, errors.New("core: prebuilt index has nil tree")
	}
	ix, err := newIndexFrame(m, p.Normal, p.Signs)
	if err != nil {
		return nil, err
	}
	if err := vecmath.CheckDim("index delta", p.Delta, m.store.Dim()); err != nil {
		return nil, err
	}
	if !vecmath.AllFinite(p.Delta) {
		return nil, errors.New("core: index delta must be finite")
	}
	for i, v := range p.Delta {
		if v < 0 {
			return nil, fmt.Errorf("core: index delta component %d is %v, must be >= 0", i, v)
		}
	}
	if math.IsNaN(p.Base) || math.IsInf(p.Base, 0) {
		return nil, fmt.Errorf("core: index key base is %v, must be finite", p.Base)
	}
	ix.attach(vecmath.Clone(p.Delta), p.Base, p.Tree)
	return ix, nil
}

// attach installs a restored translation, key frame and tree. It runs
// from newPrebuiltIndex before ix is shared, so it takes no lock.
//
//planar:locked
func (ix *Index) attach(delta []float64, base float64, tree *btree.Tree) {
	ix.delta, ix.base, ix.tree = delta, base, tree
	ix.shift = vecmath.Dot(ix.c, delta) - base
}

// AttachPrebuilt installs restored indexes without rebuilding their
// trees — the restart path mirroring Snapshot.Restore's AddNormals.
// No redundancy filtering is applied: a checkpoint records exactly the
// index set that was live, so it is reattached verbatim.
func (m *Multi) AttachPrebuilt(ps []PrebuiltIndex) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	built := make([]*Index, len(ps))
	for i, p := range ps {
		ix, err := newPrebuiltIndex(m, p)
		if err != nil {
			return fmt.Errorf("core: prebuilt index %d: %w", i, err)
		}
		built[i] = ix
	}
	m.indexes = append(m.indexes, built...)
	return nil
}

// Tree exposes the index's underlying key tree for inspection (e.g.
// checking paged mode after a checkpoint). Callers must not mutate it.
func (ix *Index) Tree() *btree.Tree {
	ix.owner.mu.RLock()
	defer ix.owner.mu.RUnlock()
	return ix.tree
}

// persist checkpoints one index's tree into file: a RAM tree is
// adopted first, then the paged tree flushes the dirty pages its
// copy-on-write already relocated. Callers hold Multi.mu exclusively.
//
//planar:locked
func (ix *Index) persist(file *pager.File, cache *pager.Cache) (IndexPersist, error) {
	written := 0
	if !ix.tree.Paged() {
		var err error
		if written, err = ix.adopt(file, cache); err != nil {
			return IndexPersist{}, err
		}
	}
	meta, delta, err := ix.tree.FlushPaged()
	if err != nil {
		return IndexPersist{}, err
	}
	return IndexPersist{
		Normal:     vecmath.Clone(ix.c),
		Signs:      append(vecmath.SignPattern(nil), ix.signs...),
		Delta:      vecmath.Clone(ix.delta),
		Base:       ix.base,
		Meta:       meta,
		DeltaPages: written + delta,
	}, nil
}

// adopt writes the index's RAM tree into file and swaps in the tree
// btree.OpenPaged opens over those pages, faulting through cache —
// the constructor a restart uses. It returns the pages written. This
// swap happens once per index, under Multi.mu held exclusively like
// every other write of the tree.
//
//planar:locked
func (ix *Index) adopt(file *pager.File, cache *pager.Cache) (int, error) {
	meta, err := ix.tree.WritePaged(file)
	if err != nil {
		return 0, err
	}
	tree, err := btree.OpenPaged(file, cache, meta)
	if err != nil {
		return 0, err
	}
	ix.tree = tree
	return len(meta.Lnum) - len(meta.FreeLeaf) + len(meta.Knum) - len(meta.FreeInner), nil
}

// WritebackIndexes is the background writer's flush callback target:
// it walks the indexes shadow-writing dirty tree pages until max
// pages are written or every index is clean. It holds Multi.mu only
// to collect the paged trees, and writes with it released, so a
// mutation never waits on its pwrites; each tree serializes with its
// own operations and checkpoint flush (Tree.WritebackPaged), and the
// pages being written are invisible to the durable superblock until
// the next commit. A paged tree stays its index's tree until the
// store closes, so the collected trees remain live.
func (m *Multi) WritebackIndexes(max int) (int, error) {
	m.mu.RLock()
	trees := make([]*btree.Tree, 0, len(m.indexes))
	for _, ix := range m.indexes {
		if ix.tree.Paged() {
			trees = append(trees, ix.tree)
		}
	}
	m.mu.RUnlock()
	total := 0
	for _, t := range trees {
		if total >= max {
			break
		}
		n, err := t.WritebackPaged(max - total)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// CheckpointIndexes flushes every index's tree into file, adopting
// RAM trees onto their pages (faulting through cache) on the way, and
// returns the persistent spec list in index order. It holds Multi.mu
// exclusively throughout, so queries, mutations and the background
// writer's tree collection wait for it. Pages written here are durable
// only after the caller's pager.Commit; on error the durable state is
// untouched (pages allocated by a failed pass leak in memory until the
// next reopen, never on disk).
func (m *Multi) CheckpointIndexes(file *pager.File, cache *pager.Cache) ([]IndexPersist, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]IndexPersist, len(m.indexes))
	for i, ix := range m.indexes {
		p, err := ix.persist(file, cache)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint index %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}
