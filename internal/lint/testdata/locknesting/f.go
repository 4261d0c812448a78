// Fixture for the locknesting analyzer, type-checked as
// planar/internal/replica so the local Replica type lands on the real
// rank table's leaf (Replica.mu=90). The service, core, replog, btree
// and pager imports exercise the cross-package acquisition table,
// which is how the partition lock (service.partition.mu=20, the
// outermost), the index-collection lock (core.Multi.mu=30, which an
// Index's accessors take, having no lock of their own) and the paged
// tier's locks (pagedArena.io=70 < pagedArena.mu=72 <
// cacheShard.mu=74, with pager.File.mu=95 the leaf above everything)
// are reached from here. Legal ranked nesting
// (partition → Multi → sequencer) is what the real tree does, and
// TestTreeClean holds it at zero findings.
package replica

import (
	"sync"

	"planar/internal/btree"
	"planar/internal/core"
	"planar/internal/pager"
	"planar/internal/replog"
	"planar/internal/service"
)

type Replica struct {
	mu sync.Mutex
}

func rightOrder(r *Replica, db *service.DB) {
	_ = db.Len() // partition lock taken and released inside the call
	r.mu.Lock()
	defer r.mu.Unlock()
}

func wrongOrder(r *Replica, db *service.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = db.Close() // want `wrongOrder calls Close which acquires planar/internal/service.partition.mu while holding planar/internal/replica.Replica.mu`
}

func storeUnderLeaf(r *Replica, db *service.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = db.Len() // want `storeUnderLeaf calls Len which acquires planar/internal/service.partition.mu while holding planar/internal/replica.Replica.mu`
}

func doubleAcquire(r *Replica) {
	r.mu.Lock()
	r.mu.Lock() // want `doubleAcquire acquires planar/internal/replica.Replica.mu while already holding it`
	r.mu.Unlock()
	r.mu.Unlock()
}

func unlockThenRelock(r *Replica) {
	r.mu.Lock()
	r.mu.Unlock()
	r.mu.Lock() // released above: not a double-acquire
	r.mu.Unlock()
}

func sequencerUnderLeaf(r *Replica, s *replog.Sequencer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = s.Next() // want `sequencerUnderLeaf calls Next which acquires planar/internal/replog.Sequencer.mu while holding planar/internal/replica.Replica.mu`
}

func lockFreeLastUnderLeaf(r *Replica, s *replog.Sequencer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = s.Last() // atomic mirror, takes no lock: fine under a leaf
}

func helper(db *service.DB) {
	_, _ = db.Append(nil)
}

func callsHelperUnderMu(r *Replica, db *service.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	helper(db) // want `callsHelperUnderMu calls helper which acquires planar/internal/service.partition.mu while holding planar/internal/replica.Replica.mu`
}

func goroutineIsolated(r *Replica, db *service.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	go func() {
		_ = db.Checkpoint() // fresh goroutine: the enclosing held set does not apply
	}()
}

// muA and muB are unranked, so only a consistent order is enforced.
var (
	muA sync.Mutex
	muB sync.Mutex
)

func lockAB() {
	muA.Lock()
	muB.Lock()
	muB.Unlock()
	muA.Unlock()
}

func lockBA() {
	muB.Lock()
	muA.Lock() // want `lock order cycle`
	muA.Unlock()
	muB.Unlock()
}

func suppressedWrongOrder(r *Replica, db *service.DB) {
	r.mu.Lock()
	defer r.mu.Unlock()
	//nolint:locknesting // fixture: documented startup-only exception
	_ = db.Checkpoint()
}

func pagedTierUnderLeaf(r *Replica, tr *btree.Tree, c *pager.Cache, f *pager.File) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, _ = tr.WritebackPaged(1) // want `pagedTierUnderLeaf calls WritebackPaged which acquires planar/internal/btree.pagedArena.io while holding planar/internal/replica.Replica.mu`
	_ = tr.Insert(1, 1)         // want `pagedTierUnderLeaf calls Insert which acquires planar/internal/btree.pagedArena.mu while holding planar/internal/replica.Replica.mu`
	c.Unpin(nil)                // want `pagedTierUnderLeaf calls Unpin which acquires planar/internal/pager.cacheShard.mu while holding planar/internal/replica.Replica.mu`
	_ = f.NumPages()            // the page allocator is the leaf ranked above every other lock
	_ = f.WritePage(2, 0, nil)  // page I/O is lock-free
}

func indexUnderLeaf(r *Replica, ix *core.Index) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = ix.Len()             // want `indexUnderLeaf calls Len which acquires planar/internal/core.Multi.mu while holding planar/internal/replica.Replica.mu`
	_ = ix.EffectiveNormal() // immutable geometry: takes no lock
}
