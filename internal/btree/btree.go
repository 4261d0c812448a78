// Package btree implements the ordered list L of the paper (Section
// 4.2) as an arena-backed, Structure-of-Arrays B+ tree over
// (key, id) pairs, where the key is the scalar product ⟨c, φ(x)⟩.
//
// Nodes are fixed-size slots in flat buffers: a leaf slot owns
// a LeafCap-wide window of the parallel `keys []float64` / `ids
// []uint32` columns, an inner slot owns windows of the separator and
// child-index columns. Child and leaf-chain references are int32 slot
// numbers, not pointers, so the whole tree is a handful of flat
// allocations with nothing for the GC to trace. Splits and merges are
// bulk copy calls within the arenas, and freed slots are recycled
// through per-arena free lists.
//
// The payoff is that the leaf arena IS the packed column the batched
// verification kernels consume: RankChunks and RangeChunks hand out
// contiguous id (and key) slices that alias the arena directly, so the
// engine no longer maintains a separate packed mirror of the tree.
//
// The tree is a set: each (Key, ID) pair appears at most once.
// Entries are ordered by Key first, then ID. The zero Tree is empty
// and ready to use, but most callers should use BulkLoad. A Tree
// holds at most 2^31-1 entries (slot counts are int32).
//
// The tree is not safe for concurrent mutation; package core guards
// it with a RWMutex.
package btree

import (
	"fmt"
	"math"
	"sort"
)

// Entry is one element of the tree: a sort key (the scalar product
// ⟨c, φ(x)⟩) plus the identifier of the data point it belongs to.
type Entry struct {
	Key float64
	ID  uint32
}

// Less reports whether e orders strictly before f (key-major,
// id-minor).
func (e Entry) Less(f Entry) bool {
	return less(e.Key, e.ID, f.Key, f.ID)
}

// less is the tree's total-order comparator over (key, id) pairs.
// The key comparison is deliberately exact: a tolerance would break
// the strict ordering invariant (this is why the package is
// floatkey-exempt).
func less(k1 float64, i1 uint32, k2 float64, i2 uint32) bool {
	if k1 != k2 {
		return k1 < k2
	}
	return i1 < i2
}

const (
	// LeafCap is the number of entries a leaf slot holds. It equals
	// kernel.BlockRows so one leaf chunk handed out by RangeChunks is
	// exactly one verification block; package exec asserts this at
	// compile time. 256 keys = 2KB per leaf key column, a comfortable
	// streaming unit.
	LeafCap = 256

	leafCap = LeafCap
	leafMin = leafCap / 2

	// innerCap is the inner fan-out (children per inner slot). 64
	// children per node keeps a 10M-entry tree at height 4.
	innerCap = 64
	innerMin = innerCap / 2
	sepCap   = innerCap - 1

	// nilSlot is the null slot reference for child/chain indices.
	nilSlot = int32(-1)
)

// Tree is a B+ tree set of Entry values, stored column-wise in two
// slot arenas. A node is identified by (slot, depth): slots at depth
// height-1 index the leaf arena, all shallower slots index the inner
// arena, so no per-node leaf flag is stored.
type Tree struct {
	// Leaf arena. Slot s owns keys[s*leafCap : (s+1)*leafCap] and the
	// matching ids window; lnum[s] entries are live. lnext/lprev
	// chain the leaves in key order for range scans.
	keys  []float64
	ids   []uint32
	lnum  []int32
	lnext []int32
	lprev []int32

	// Inner arena. Slot s owns sepKeys/sepIDs[s*sepCap : ...] (the
	// knum[s]-1 live separators) and kids[s*innerCap : ...] (the
	// knum[s] live children). counts[s] caches the number of entries
	// under the subtree for O(log n) rank queries.
	sepKeys []float64
	sepIDs  []uint32
	kids    []int32
	knum    []int32
	counts  []int32

	// Free lists recycle slots released by merges and root collapse.
	freeLeaf  []int32
	freeInner []int32

	root   int32
	size   int
	height int // 0 empty, 1 a single leaf

	// pg, when non-nil, puts the tree in paged-arena mode: the data
	// columns above are unused and slot contents are faulted from a
	// page file through a page cache instead (see paged.go). The
	// metadata columns (lnum/lnext/lprev, knum/counts, free lists)
	// stay resident either way.
	pg *pagedArena
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (0 for an empty tree, 1 for a
// single leaf).
func (t *Tree) Height() int { return t.height }

// Arena window accessors. Every view spans the slot's full window;
// callers bound reads by lnum/knum. Views are invalidated by slot
// allocation (the arena may move when it grows), so they are re-taken
// after allocLeaf/allocInner and after recursive inserts. In paged
// mode the views alias a pinned cache frame instead: frames never
// move, and pins last until the op bracket ends, so the same
// re-take-after-alloc code is valid for both representations.

func (t *Tree) lkeys(s int32) []float64 {
	if t.pg != nil {
		return t.pg.leafView(s).keys
	}
	off := int(s) * leafCap
	return t.keys[off : off+leafCap : off+leafCap]
}

func (t *Tree) lids(s int32) []uint32 {
	if t.pg != nil {
		return t.pg.leafView(s).ids
	}
	off := int(s) * leafCap
	return t.ids[off : off+leafCap : off+leafCap]
}

func (t *Tree) skeys(s int32) []float64 {
	if t.pg != nil {
		return t.pg.innerView(s).keys
	}
	off := int(s) * sepCap
	return t.sepKeys[off : off+sepCap : off+sepCap]
}

func (t *Tree) sids(s int32) []uint32 {
	if t.pg != nil {
		return t.pg.innerView(s).ids
	}
	off := int(s) * sepCap
	return t.sepIDs[off : off+sepCap : off+sepCap]
}

func (t *Tree) kidv(s int32) []int32 {
	if t.pg != nil {
		return t.pg.innerView(s).kids
	}
	off := int(s) * innerCap
	return t.kids[off : off+innerCap : off+innerCap]
}

// grown extends s by n elements, reusing spare capacity when the
// arena has it and growing it by a quarter otherwise —
// the runtime's own policy for large slices. A bulk-loaded tree's
// arenas are sized exactly and the first splits under updates
// reallocate them; random updates then settle the tree at about 1.4×
// its bulk-loaded slots, so quarter steps leave little capacity idle
// where one doubling would leave a third of the arena unused for the
// rest of the tree's life. The extension is not zeroed: slot metadata is initialised on allocation
// and the key/id columns are only read below the slot's live count.
func grown[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s[:len(s)+n]
	}
	out := make([]E, len(s)+n, cap(s)+cap(s)/4+n)
	copy(out, s)
	return out
}

// allocLeaf returns an empty leaf slot, recycling the free list
// before growing the arena.
func (t *Tree) allocLeaf() int32 {
	if n := len(t.freeLeaf); n > 0 {
		s := t.freeLeaf[n-1]
		t.freeLeaf = t.freeLeaf[:n-1]
		t.lnum[s], t.lnext[s], t.lprev[s] = 0, nilSlot, nilSlot
		if t.pg != nil {
			t.pg.materializeLeaf(s)
		}
		return s
	}
	s := int32(len(t.lnum))
	if t.pg != nil {
		t.pg.growLeaf()
	} else {
		t.keys = grown(t.keys, leafCap)
		t.ids = grown(t.ids, leafCap)
	}
	t.lnum = append(t.lnum, 0)
	t.lnext = append(t.lnext, nilSlot)
	t.lprev = append(t.lprev, nilSlot)
	if t.pg != nil {
		t.pg.materializeLeaf(s)
	}
	return s
}

// allocInner returns an empty inner slot.
func (t *Tree) allocInner() int32 {
	if n := len(t.freeInner); n > 0 {
		s := t.freeInner[n-1]
		t.freeInner = t.freeInner[:n-1]
		t.knum[s], t.counts[s] = 0, 0
		if t.pg != nil {
			t.pg.materializeInner(s)
		}
		return s
	}
	s := int32(len(t.knum))
	if t.pg != nil {
		t.pg.growInner()
	} else {
		t.sepKeys = grown(t.sepKeys, sepCap)
		t.sepIDs = grown(t.sepIDs, sepCap)
		t.kids = grown(t.kids, innerCap)
	}
	t.knum = append(t.knum, 0)
	t.counts = append(t.counts, 0)
	if t.pg != nil {
		t.pg.materializeInner(s)
	}
	return s
}

func (t *Tree) freeLeafSlot(s int32) {
	t.lnum[s], t.lnext[s], t.lprev[s] = 0, nilSlot, nilSlot
	if t.pg != nil {
		t.pg.dropLeaf(s)
	}
	t.freeLeaf = append(t.freeLeaf, s)
}

func (t *Tree) freeInnerSlot(s int32) {
	t.knum[s], t.counts[s] = 0, 0
	if t.pg != nil {
		t.pg.dropInner(s)
	}
	t.freeInner = append(t.freeInner, s)
}

// subtree returns the number of entries under slot s, which is a
// leaf slot iff leaf is true.
func (t *Tree) subtree(s int32, leaf bool) int {
	if leaf {
		return int(t.lnum[s])
	}
	return int(t.counts[s])
}

// recount recomputes an inner slot's cached count from its children
// (childLeaf reports whether they are leaf slots).
func (t *Tree) recount(s int32, childLeaf bool) {
	kv := t.kidv(s)
	c := 0
	for _, k := range kv[:t.knum[s]] {
		c += t.subtree(k, childLeaf)
	}
	t.counts[s] = int32(c)
}

// childIndex returns the index of the child of inner slot s that may
// contain (key, id): the first separator strictly greater than it.
func (t *Tree) childIndex(s int32, key float64, id uint32) int {
	n := int(t.knum[s]) - 1
	sk, si := t.skeys(s), t.sids(s)
	return sort.Search(n, func(i int) bool { return less(key, id, sk[i], si[i]) })
}

// firstLeaf returns the leftmost leaf slot, or nilSlot when empty.
func (t *Tree) firstLeaf() int32 {
	if t.height == 0 {
		return nilSlot
	}
	s := t.root
	for d := 0; d < t.height-1; d++ {
		s = t.kidv(s)[0]
	}
	return s
}

// lastLeaf returns the rightmost leaf slot, or nilSlot when empty.
func (t *Tree) lastLeaf() int32 {
	if t.height == 0 {
		return nilSlot
	}
	s := t.root
	for d := 0; d < t.height-1; d++ {
		s = t.kidv(s)[t.knum[s]-1]
	}
	return s
}

// BulkLoad builds a tree from entries. The input slice is sorted in
// place, by sortEntries in O(n); input already in (key, id) order costs
// one check. Duplicate (Key, ID) pairs are collapsed.
func BulkLoad(entries []Entry) *Tree {
	if len(entries) == 0 {
		return &Tree{}
	}

	// Pack leaves at ~87% fill so immediate inserts do not split.
	const fill = leafCap - leafCap/8

	// Pre-size the arenas so the build never regrows them: at most one
	// chunk per fill-target stride plus a split tail per level, and the
	// inner levels shrink geometrically by at least innerMin.
	nl := len(entries)/fill + 2
	ni := nl/innerMin + 2*8
	t := &Tree{
		keys:    make([]float64, 0, nl*leafCap),
		ids:     make([]uint32, 0, nl*leafCap),
		lnum:    make([]int32, 0, nl),
		lnext:   make([]int32, 0, nl),
		lprev:   make([]int32, 0, nl),
		sepKeys: make([]float64, 0, ni*sepCap),
		sepIDs:  make([]uint32, 0, ni*sepCap),
		kids:    make([]int32, 0, ni*innerCap),
		knum:    make([]int32, 0, ni),
		counts:  make([]int32, 0, ni),
	}
	// The leaf arena is the sort's scratch until the leaves are packed.
	sortEntries(entries, t.keys[:len(entries)], t.ids[:len(entries)])
	// Collapse duplicates.
	dedup := entries[:0]
	for i, e := range entries {
		if i > 0 && !dedup[len(dedup)-1].Less(e) {
			continue
		}
		dedup = append(dedup, e)
	}
	entries = dedup

	var level []int32
	var mins []Entry
	for off := 0; off < len(entries); {
		n := chunkWidth(len(entries)-off, fill, leafMin, leafCap)
		s := t.allocLeaf()
		lk, li := t.lkeys(s), t.lids(s)
		for j, e := range entries[off : off+n] {
			lk[j], li[j] = e.Key, e.ID
		}
		// Zero what the sort left past the live count, as a fresh
		// arena would be: WritePaged copies whole leaf columns.
		clear(lk[n:])
		clear(li[n:])
		t.lnum[s] = int32(n)
		if len(level) > 0 {
			p := level[len(level)-1]
			t.lnext[p] = s
			t.lprev[s] = p
		}
		level = append(level, s)
		mins = append(mins, entries[off])
		off += n
	}
	t.size = len(entries)
	t.height = 1

	childLeaf := true
	for len(level) > 1 {
		var parents []int32
		var pmins []Entry
		for off := 0; off < len(level); {
			n := chunkWidth(len(level)-off, innerCap, innerMin, innerCap)
			s := t.allocInner()
			sk, si, kv := t.skeys(s), t.sids(s), t.kidv(s)
			c := 0
			for j := 0; j < n; j++ {
				kv[j] = level[off+j]
				c += t.subtree(level[off+j], childLeaf)
				if j > 0 {
					sk[j-1], si[j-1] = mins[off+j].Key, mins[off+j].ID
				}
			}
			t.knum[s] = int32(n)
			t.counts[s] = int32(c)
			parents = append(parents, s)
			pmins = append(pmins, mins[off])
			off += n
		}
		level, mins = parents, pmins
		childLeaf = false
		t.height++
	}
	t.root = level[0]
	return t
}

// radixKey maps a key to a uint64 whose unsigned order is the key's
// order under less: the sign bit is flipped on positives and every
// bit on negatives, and −0 is folded into +0 first, since less holds
// them equal.
func radixKey(k float64) uint64 {
	b := math.Float64bits(k)
	if b == 1<<63 {
		b = 0
	}
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortEntries sorts entries into (key, id) order with a stable LSD
// radix sort, one byte a pass: the id's four bytes, then the key's
// eight. The passes move the entries between entries and the scratch
// columns keys and ids, which must be at least as long. A pass whose
// byte is the same in every entry is skipped, and so are the id passes
// when the ids already ascend (Index.build hands them over in id
// order), since a stable sort by key then leaves equal keys in id
// order. Entries already in order return after one check, without
// touching the scratch.
func sortEntries(entries []Entry, keys []float64, ids []uint32) {
	sorted := true
	for i := 1; i < len(entries) && sorted; i++ {
		sorted = !less(entries[i].Key, entries[i].ID, entries[i-1].Key, entries[i-1].ID)
	}
	if sorted {
		return
	}
	idsAscend := true
	for i := 1; i < len(entries) && idsAscend; i++ {
		idsAscend = entries[i].ID >= entries[i-1].ID
	}
	// counts[p] is the histogram of the byte pass p sorts on: passes
	// 0–3 are the id's bytes, 4–11 the key's, least significant first.
	var counts [12][256]int
	for _, e := range entries {
		if !idsAscend {
			for p := 0; p < 4; p++ {
				counts[p][byte(e.ID>>(8*p))]++
			}
		}
		k := radixKey(e.Key)
		for p := 0; p < 8; p++ {
			counts[4+p][byte(k>>(8*p))]++
		}
	}
	keys, ids = keys[:len(entries)], ids[:len(entries)]
	inScratch := false // whether the entries sit in keys/ids
	for p := range counts {
		if p < 4 && idsAscend {
			continue
		}
		d0 := radixDigit(p, entries[0].Key, entries[0].ID)
		if inScratch {
			d0 = radixDigit(p, keys[0], ids[0])
		}
		if counts[p][d0] == len(entries) {
			continue
		}
		var at [256]int
		for d, sum := 0, 0; d < 256; d++ {
			at[d] = sum
			sum += counts[p][d]
		}
		if inScratch {
			for j, k := range keys {
				d := radixDigit(p, k, ids[j])
				entries[at[d]] = Entry{Key: k, ID: ids[j]}
				at[d]++
			}
		} else {
			for _, e := range entries {
				d := radixDigit(p, e.Key, e.ID)
				keys[at[d]], ids[at[d]] = e.Key, e.ID
				at[d]++
			}
		}
		inScratch = !inScratch
	}
	if inScratch {
		for j := range entries {
			entries[j] = Entry{Key: keys[j], ID: ids[j]}
		}
	}
}

// radixDigit is the byte of (k, id) that sortEntries' pass p sorts on.
func radixDigit(p int, k float64, id uint32) byte {
	if p < 4 {
		return byte(id >> (8 * p))
	}
	return byte(radixKey(k) >> (8 * (p - 4)))
}

// chunkWidth picks how many of rem items the next bulk-load node
// takes: the fill target, adjusted so the final node of the level
// never lands below min. A short tail is either absorbed whole (it
// still fits: cap = 2*min) or the remainder is split into two halves
// that both clear the floor.
func chunkWidth(rem, fill, min, max int) int {
	n := fill
	if rem < n {
		n = rem
	}
	if tail := rem - n; tail > 0 && tail < min {
		if rem <= max {
			n = rem
		} else {
			n = (rem + 1) / 2
		}
	}
	return n
}

// Contains reports whether the (key, id) pair is present.
func (t *Tree) Contains(key float64, id uint32) bool {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	if t.height == 0 {
		return false
	}
	s := t.root
	for d := 0; d < t.height-1; d++ {
		s = t.kidv(s)[t.childIndex(s, key, id)]
	}
	n := int(t.lnum[s])
	lk, li := t.lkeys(s), t.lids(s)
	i := sort.Search(n, func(i int) bool { return !less(lk[i], li[i], key, id) })
	return i < n && !less(key, id, lk[i], li[i])
}

// Insert adds the pair, returning false if it was already present.
func (t *Tree) Insert(key float64, id uint32) bool {
	if t.beginOp(true) {
		defer t.pg.end()
	}
	if t.height == 0 {
		s := t.allocLeaf()
		t.lkeys(s)[0], t.lids(s)[0] = key, id
		t.lnum[s] = 1
		t.root = s
		t.size = 1
		t.height = 1
		return true
	}
	right, sepK, sepI, added := t.insert(t.root, 0, key, id)
	if !added {
		return false
	}
	t.size++
	if right != nilSlot {
		r := t.allocInner()
		sk, si, kv := t.skeys(r), t.sids(r), t.kidv(r)
		sk[0], si[0] = sepK, sepI
		kv[0], kv[1] = t.root, right
		t.knum[r] = 2
		t.counts[r] = int32(t.size)
		t.root = r
		t.height++
	}
	return true
}

// insert adds (key, id) under slot s at the given depth. If the slot
// splits it returns the new right sibling and the separator (the
// smallest entry of the right subtree). Slots have fixed capacity,
// so a full slot splits BEFORE the insert and the entry is routed
// into the correct half.
func (t *Tree) insert(s int32, depth int, key float64, id uint32) (right int32, sepK float64, sepI uint32, added bool) {
	if depth == t.height-1 {
		n := int(t.lnum[s])
		lk, li := t.lkeys(s), t.lids(s)
		i := sort.Search(n, func(i int) bool { return !less(lk[i], li[i], key, id) })
		if i < n && !less(key, id, lk[i], li[i]) {
			return nilSlot, 0, 0, false
		}
		if n < leafCap {
			t.leafInsertAt(s, i, key, id)
			return nilSlot, 0, 0, true
		}
		r := t.allocLeaf()
		lk, li = t.lkeys(s), t.lids(s) // re-take: alloc may move the arena
		rk, ri := t.lkeys(r), t.lids(r)
		const mid = leafCap / 2
		copy(rk, lk[mid:])
		copy(ri, li[mid:])
		t.lnum[s], t.lnum[r] = mid, leafCap-mid
		t.lnext[r] = t.lnext[s]
		if t.lnext[r] != nilSlot {
			t.lprev[t.lnext[r]] = r
		}
		t.lprev[r] = s
		t.lnext[s] = r
		sepK, sepI = rk[0], ri[0]
		if less(key, id, sepK, sepI) {
			t.leafInsertAt(s, i, key, id)
		} else {
			t.leafInsertAt(r, i-mid, key, id)
		}
		return r, sepK, sepI, true
	}

	ci := t.childIndex(s, key, id)
	childRight, csK, csI, ok := t.insert(t.kidv(s)[ci], depth+1, key, id)
	if !ok {
		return nilSlot, 0, 0, false
	}
	t.counts[s]++
	if childRight == nilSlot {
		return nilSlot, 0, 0, true
	}
	if int(t.knum[s]) < innerCap {
		t.innerInsertAt(s, ci, csK, csI, childRight)
		return nilSlot, 0, 0, true
	}
	r := t.allocInner()
	sk, si, kv := t.skeys(s), t.sids(s), t.kidv(s) // re-take after alloc
	rk, ri, rv := t.skeys(r), t.sids(r), t.kidv(r)
	const midKid = innerCap / 2
	sepK, sepI = sk[midKid-1], si[midKid-1]
	copy(rk, sk[midKid:])
	copy(ri, si[midKid:])
	copy(rv, kv[midKid:])
	t.knum[s], t.knum[r] = midKid, innerCap-midKid
	if ci < midKid {
		t.innerInsertAt(s, ci, csK, csI, childRight)
	} else {
		t.innerInsertAt(r, ci-midKid, csK, csI, childRight)
	}
	childLeaf := depth+1 == t.height-1
	t.recount(s, childLeaf)
	t.recount(r, childLeaf)
	return r, sepK, sepI, true
}

// leafInsertAt shifts the tail of leaf s right by one and writes the
// entry at position i. The caller guarantees lnum[s] < leafCap.
func (t *Tree) leafInsertAt(s int32, i int, key float64, id uint32) {
	n := int(t.lnum[s])
	lk, li := t.lkeys(s), t.lids(s)
	copy(lk[i+1:n+1], lk[i:n])
	copy(li[i+1:n+1], li[i:n])
	lk[i], li[i] = key, id
	t.lnum[s] = int32(n + 1)
}

// innerInsertAt inserts separator (sepK, sepI) at position ci and
// kid at position ci+1 in inner slot s. The caller guarantees
// knum[s] < innerCap.
func (t *Tree) innerInsertAt(s int32, ci int, sepK float64, sepI uint32, kid int32) {
	n := int(t.knum[s])
	sk, si, kv := t.skeys(s), t.sids(s), t.kidv(s)
	copy(sk[ci+1:n], sk[ci:n-1])
	copy(si[ci+1:n], si[ci:n-1])
	sk[ci], si[ci] = sepK, sepI
	copy(kv[ci+2:n+1], kv[ci+1:n])
	kv[ci+1] = kid
	t.knum[s] = int32(n + 1)
}

// Delete removes the pair, returning false if it was not present.
func (t *Tree) Delete(key float64, id uint32) bool {
	if t.beginOp(true) {
		defer t.pg.end()
	}
	if t.height == 0 {
		return false
	}
	if !t.del(t.root, 0, key, id) {
		return false
	}
	t.size--
	// Collapse a root that lost all separators.
	for t.height > 1 && t.knum[t.root] == 1 {
		old := t.root
		t.root = t.kidv(old)[0]
		t.freeInnerSlot(old)
		t.height--
	}
	if t.height == 1 && t.lnum[t.root] == 0 {
		t.freeLeafSlot(t.root)
		t.root = 0
		t.height = 0
	}
	return true
}

func (t *Tree) del(s int32, depth int, key float64, id uint32) bool {
	if depth == t.height-1 {
		n := int(t.lnum[s])
		lk, li := t.lkeys(s), t.lids(s)
		i := sort.Search(n, func(i int) bool { return !less(lk[i], li[i], key, id) })
		if i >= n || less(key, id, lk[i], li[i]) {
			return false
		}
		copy(lk[i:n-1], lk[i+1:n])
		copy(li[i:n-1], li[i+1:n])
		t.lnum[s] = int32(n - 1)
		return true
	}
	ci := t.childIndex(s, key, id)
	child := t.kidv(s)[ci]
	if !t.del(child, depth+1, key, id) {
		return false
	}
	t.counts[s]--
	var under bool
	if depth+1 == t.height-1 {
		under = int(t.lnum[child]) < leafMin
	} else {
		under = int(t.knum[child]) < innerMin
	}
	if under {
		t.fixChild(s, ci, depth)
	}
	return true
}

// fixChild restores the fill invariant for child ci of inner slot s
// (at the given depth) by borrowing from a sibling or merging with
// one.
func (t *Tree) fixChild(s int32, ci int, depth int) {
	childLeaf := depth+1 == t.height-1
	nk := int(t.knum[s])
	kv := t.kidv(s)
	if ci > 0 {
		l := kv[ci-1]
		if (childLeaf && int(t.lnum[l]) > leafMin) || (!childLeaf && int(t.knum[l]) > innerMin) {
			if childLeaf {
				t.borrowLeafLeft(s, ci)
			} else {
				t.borrowInnerLeft(s, ci, depth)
			}
			return
		}
	}
	if ci < nk-1 {
		r := kv[ci+1]
		if (childLeaf && int(t.lnum[r]) > leafMin) || (!childLeaf && int(t.knum[r]) > innerMin) {
			if childLeaf {
				t.borrowLeafRight(s, ci)
			} else {
				t.borrowInnerRight(s, ci, depth)
			}
			return
		}
	}
	// Merge with a sibling. Prefer merging child into its left
	// sibling; otherwise merge the right sibling into child.
	if ci > 0 {
		t.mergeChildren(s, ci-1, childLeaf)
	} else {
		t.mergeChildren(s, ci, childLeaf)
	}
}

// borrowLeafLeft moves the last entry of leaf ci-1 to the front of
// leaf ci and refreshes the separator between them.
func (t *Tree) borrowLeafLeft(s int32, ci int) {
	kv := t.kidv(s)
	l, c := kv[ci-1], kv[ci]
	ln, cn := int(t.lnum[l]), int(t.lnum[c])
	lk, li := t.lkeys(l), t.lids(l)
	ck, cd := t.lkeys(c), t.lids(c)
	copy(ck[1:cn+1], ck[:cn])
	copy(cd[1:cn+1], cd[:cn])
	ck[0], cd[0] = lk[ln-1], li[ln-1]
	t.lnum[l], t.lnum[c] = int32(ln-1), int32(cn+1)
	sk, si := t.skeys(s), t.sids(s)
	sk[ci-1], si[ci-1] = ck[0], cd[0]
}

// borrowLeafRight moves the first entry of leaf ci+1 to the end of
// leaf ci and refreshes the separator between them.
func (t *Tree) borrowLeafRight(s int32, ci int) {
	kv := t.kidv(s)
	c, r := kv[ci], kv[ci+1]
	cn, rn := int(t.lnum[c]), int(t.lnum[r])
	ck, cd := t.lkeys(c), t.lids(c)
	rk, ri := t.lkeys(r), t.lids(r)
	ck[cn], cd[cn] = rk[0], ri[0]
	copy(rk[:rn-1], rk[1:rn])
	copy(ri[:rn-1], ri[1:rn])
	t.lnum[c], t.lnum[r] = int32(cn+1), int32(rn-1)
	sk, si := t.skeys(s), t.sids(s)
	sk[ci], si[ci] = rk[0], ri[0]
}

// borrowInnerLeft rotates the last child of inner slot ci-1 through
// the parent separator into the front of inner slot ci.
func (t *Tree) borrowInnerLeft(s int32, ci int, depth int) {
	kv := t.kidv(s)
	l, c := kv[ci-1], kv[ci]
	ln, cn := int(t.knum[l]), int(t.knum[c])
	sk, si := t.skeys(s), t.sids(s)
	lsk, lsi, lkv := t.skeys(l), t.sids(l), t.kidv(l)
	csk, csi, ckv := t.skeys(c), t.sids(c), t.kidv(c)
	copy(csk[1:cn], csk[:cn-1])
	copy(csi[1:cn], csi[:cn-1])
	copy(ckv[1:cn+1], ckv[:cn])
	csk[0], csi[0] = sk[ci-1], si[ci-1]
	ckv[0] = lkv[ln-1]
	sk[ci-1], si[ci-1] = lsk[ln-2], lsi[ln-2]
	t.knum[l], t.knum[c] = int32(ln-1), int32(cn+1)
	moved := int32(t.subtree(ckv[0], depth+2 == t.height-1))
	t.counts[l] -= moved
	t.counts[c] += moved
}

// borrowInnerRight rotates the first child of inner slot ci+1
// through the parent separator onto the end of inner slot ci.
func (t *Tree) borrowInnerRight(s int32, ci int, depth int) {
	kv := t.kidv(s)
	c, r := kv[ci], kv[ci+1]
	cn, rn := int(t.knum[c]), int(t.knum[r])
	sk, si := t.skeys(s), t.sids(s)
	csk, csi, ckv := t.skeys(c), t.sids(c), t.kidv(c)
	rsk, rsi, rkv := t.skeys(r), t.sids(r), t.kidv(r)
	csk[cn-1], csi[cn-1] = sk[ci], si[ci]
	ckv[cn] = rkv[0]
	sk[ci], si[ci] = rsk[0], rsi[0]
	copy(rsk[:rn-2], rsk[1:rn-1])
	copy(rsi[:rn-2], rsi[1:rn-1])
	copy(rkv[:rn-1], rkv[1:rn])
	t.knum[c], t.knum[r] = int32(cn+1), int32(rn-1)
	moved := int32(t.subtree(ckv[cn], depth+2 == t.height-1))
	t.counts[r] -= moved
	t.counts[c] += moved
}

// mergeChildren merges child li+1 into child li of inner slot s and
// removes the separator between them. The fill invariants guarantee
// the combined node fits its slot.
func (t *Tree) mergeChildren(s int32, li int, childLeaf bool) {
	kv := t.kidv(s)
	l, r := kv[li], kv[li+1]
	if childLeaf {
		ln, rn := int(t.lnum[l]), int(t.lnum[r])
		lk, lid := t.lkeys(l), t.lids(l)
		rk, rid := t.lkeys(r), t.lids(r)
		copy(lk[ln:ln+rn], rk[:rn])
		copy(lid[ln:ln+rn], rid[:rn])
		t.lnum[l] = int32(ln + rn)
		t.lnext[l] = t.lnext[r]
		if t.lnext[r] != nilSlot {
			t.lprev[t.lnext[r]] = l
		}
		t.freeLeafSlot(r)
	} else {
		ln, rn := int(t.knum[l]), int(t.knum[r])
		sk, si := t.skeys(s), t.sids(s)
		lsk, lsi, lkv := t.skeys(l), t.sids(l), t.kidv(l)
		rsk, rsi, rkv := t.skeys(r), t.sids(r), t.kidv(r)
		lsk[ln-1], lsi[ln-1] = sk[li], si[li]
		copy(lsk[ln:ln+rn-1], rsk[:rn-1])
		copy(lsi[ln:ln+rn-1], rsi[:rn-1])
		copy(lkv[ln:ln+rn], rkv[:rn])
		t.knum[l] = int32(ln + rn)
		t.counts[l] += t.counts[r]
		t.freeInnerSlot(r)
	}
	n := int(t.knum[s])
	sk, si := t.skeys(s), t.sids(s)
	copy(sk[li:n-2], sk[li+1:n-1])
	copy(si[li:n-2], si[li+1:n-1])
	copy(kv[li+1:n-1], kv[li+2:n])
	t.knum[s] = int32(n - 1)
}

// Min returns the smallest entry.
func (t *Tree) Min() (Entry, bool) {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	s := t.firstLeaf()
	if s == nilSlot {
		return Entry{}, false
	}
	return Entry{Key: t.lkeys(s)[0], ID: t.lids(s)[0]}, true
}

// Max returns the largest entry.
func (t *Tree) Max() (Entry, bool) {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	s := t.lastLeaf()
	if s == nilSlot {
		return Entry{}, false
	}
	n := t.lnum[s] - 1
	return Entry{Key: t.lkeys(s)[n], ID: t.lids(s)[n]}, true
}

// seekGT returns the leaf slot and index of the first entry strictly
// greater than (key, id), or (nilSlot, 0) if no such entry exists.
func (t *Tree) seekGT(key float64, id uint32) (int32, int) {
	if t.height == 0 {
		return nilSlot, 0
	}
	s := t.root
	for d := 0; d < t.height-1; d++ {
		s = t.kidv(s)[t.childIndex(s, key, id)]
	}
	n := int(t.lnum[s])
	lk, li := t.lkeys(s), t.lids(s)
	i := sort.Search(n, func(i int) bool { return less(key, id, lk[i], li[i]) })
	if i == n {
		if next := t.lnext[s]; next != nilSlot {
			return next, 0
		}
		return nilSlot, 0
	}
	return s, i
}

// AscendLE calls fn for every entry with Key <= maxKey in ascending
// order until fn returns false.
func (t *Tree) AscendLE(maxKey float64, fn func(Entry) bool) {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	for s := t.firstLeaf(); s != nilSlot; {
		n := int(t.lnum[s])
		lk, li := t.lkeys(s), t.lids(s)
		for i := 0; i < n; i++ {
			if lk[i] > maxKey {
				return
			}
			if !fn(Entry{Key: lk[i], ID: li[i]}) {
				return
			}
		}
		t.releaseLeaf(s)
		s = t.lnext[s]
	}
}

// seekRank returns the leaf slot and index of the entry at position r
// of the key order, 0 <= r < Len, descending by the per-slot subtree
// counts: no key is compared.
func (t *Tree) seekRank(r int) (int32, int) {
	s := t.root
	for d := 0; d < t.height-1; d++ {
		childLeaf := d+1 == t.height-1
		for _, k := range t.kidv(s)[:t.knum[s]] {
			c := t.subtree(k, childLeaf)
			if r < c {
				s = k
				break
			}
			r -= c
		}
	}
	return s, r
}

// RankChunks calls fn with contiguous id chunks covering exactly the
// entries at positions [lo, hi) of the key order (position 0 is the
// smallest entry; the range is clamped to [0, Len)), in ascending
// order, until fn returns false. Positions come from RankLE, so one
// walk of the leaf chain serves a run of adjacent key intervals. A
// chunk aliases the arena: it is valid only until fn returns — the
// paged tier unpins the leaf right after — and must not be modified.
// Each chunk stays within one leaf (at most LeafCap entries).
func (t *Tree) RankChunks(lo, hi int, fn func(ids []uint32) bool) {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	lo, hi = max(lo, 0), min(hi, t.size)
	if lo >= hi {
		return
	}
	s, i := t.seekRank(lo)
	for left := hi - lo; left > 0; {
		n := min(int(t.lnum[s])-i, left)
		if !fn(t.lids(s)[i : i+n : i+n]) {
			return
		}
		left -= n
		t.releaseLeaf(s)
		s = t.lnext[s]
		i = 0
	}
}

// DescendChunks calls fn with contiguous key/id chunks covering
// exactly the entries at positions [0, hi) of the key order (hi is
// clamped to Len), from the top down, until fn returns false: the
// first chunk ends at position hi-1, and each next one is the whole
// leaf before. Within a chunk the entries are in ascending order, so
// a descending walk reads it back to front. Like RankChunks, the
// slices alias the arena, are valid only until fn returns, and stay
// within one leaf.
func (t *Tree) DescendChunks(hi int, fn func(keys []float64, ids []uint32) bool) {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	if hi = min(hi, t.size); hi <= 0 {
		return
	}
	s, i := t.seekRank(hi - 1)
	for n := i + 1; ; n = int(t.lnum[s]) {
		if !fn(t.lkeys(s)[:n:n], t.lids(s)[:n:n]) {
			return
		}
		t.releaseLeaf(s)
		if s = t.lprev[s]; s == nilSlot {
			return
		}
	}
}

// RangeChunks calls fn with contiguous key/id chunks covering
// exactly the entries with loKeyExcl < Key <= hiKeyIncl, in
// ascending order, until fn returns false. Like RankChunks, the
// slices alias the arena and each chunk stays within one leaf (at
// most LeafCap entries).
func (t *Tree) RangeChunks(loKeyExcl, hiKeyIncl float64, fn func(keys []float64, ids []uint32) bool) {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	t.rangeChunks(loKeyExcl, hiKeyIncl, fn)
}

func (t *Tree) rangeChunks(loKeyExcl, hiKeyIncl float64, fn func(keys []float64, ids []uint32) bool) {
	if loKeyExcl > hiKeyIncl {
		return
	}
	s, i := t.seekGT(loKeyExcl, ^uint32(0))
	for s != nilSlot {
		n := int(t.lnum[s])
		lk, li := t.lkeys(s), t.lids(s)
		if lk[n-1] > hiKeyIncl {
			// The range ends inside this leaf.
			j := i + sort.Search(n-i, func(k int) bool { return lk[i+k] > hiKeyIncl })
			if j > i {
				fn(lk[i:j], li[i:j])
			}
			return
		}
		if !fn(lk[i:n], li[i:n]) {
			return
		}
		t.releaseLeaf(s)
		s = t.lnext[s]
		i = 0
	}
}

// CollectRange appends the ids of every entry with loKeyExcl < Key
// <= hiKeyIncl to buf in ascending key order and returns it.
func (t *Tree) CollectRange(loKeyExcl, hiKeyIncl float64, buf []uint32) []uint32 {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	t.rangeChunks(loKeyExcl, hiKeyIncl, func(_ []float64, ids []uint32) bool {
		buf = append(buf, ids...)
		return true
	})
	return buf
}

// RankLE returns the number of entries with Key <= maxKey in
// O(log n), using the per-slot subtree counts (order statistics).
// This powers count-only queries and selectivity bounds without
// scanning any interval.
func (t *Tree) RankLE(maxKey float64) int {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	return t.rankLE(maxKey)
}

func (t *Tree) rankLE(maxKey float64) int {
	if t.height == 0 {
		return 0
	}
	id := ^uint32(0)
	s := t.root
	rank := 0
	for d := 0; d < t.height-1; d++ {
		ci := t.childIndex(s, maxKey, id)
		childLeaf := d+1 == t.height-1
		kv := t.kidv(s)
		for _, k := range kv[:ci] {
			rank += t.subtree(k, childLeaf)
		}
		s = kv[ci]
	}
	n := int(t.lnum[s])
	lk, li := t.lkeys(s), t.lids(s)
	rank += sort.Search(n, func(i int) bool { return less(maxKey, id, lk[i], li[i]) })
	return rank
}

// CountRange returns the number of entries with
// loKeyExcl < Key <= hiKeyIncl in O(log n).
func (t *Tree) CountRange(loKeyExcl, hiKeyIncl float64) int {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	if loKeyExcl > hiKeyIncl {
		return 0
	}
	c := t.rankLE(hiKeyIncl) - t.rankLE(loKeyExcl)
	if c < 0 {
		return 0
	}
	return c
}

// Stats describes the tree's shape and memory footprint.
type Stats struct {
	Entries int
	Leaves  int
	Inner   int
	Height  int
	Bytes   int // arena bytes held, including free slots and spare capacity
}

// Stats returns shape statistics. Unlike a pointer tree this is
// O(1): the footprint is the arena capacities, not a node walk.
func (t *Tree) Stats() Stats {
	s := Stats{Entries: t.size, Height: t.height}
	if t.height > 0 {
		s.Leaves = len(t.lnum) - len(t.freeLeaf)
		s.Inner = len(t.knum) - len(t.freeInner)
	}
	s.Bytes = 8*(cap(t.keys)+cap(t.sepKeys)) +
		4*(cap(t.ids)+cap(t.sepIDs)+cap(t.kids)) +
		4*(cap(t.lnum)+cap(t.lnext)+cap(t.lprev)+cap(t.knum)+cap(t.counts)) +
		4*(cap(t.freeLeaf)+cap(t.freeInner))
	return s
}

// Validate checks structural invariants (ordering, fill factors,
// leaf chain consistency, separator correctness, arena slot
// accounting) and returns a descriptive error on the first
// violation. It is used by tests and costs O(n).
func (t *Tree) Validate() error {
	if t.beginOp(false) {
		defer t.pg.end()
	}
	freeL := make(map[int32]bool, len(t.freeLeaf))
	for _, s := range t.freeLeaf {
		if freeL[s] {
			return fmt.Errorf("btree: leaf slot %d freed twice", s)
		}
		freeL[s] = true
	}
	freeI := make(map[int32]bool, len(t.freeInner))
	for _, s := range t.freeInner {
		if freeI[s] {
			return fmt.Errorf("btree: inner slot %d freed twice", s)
		}
		freeI[s] = true
	}
	if t.height == 0 {
		if t.size != 0 {
			return fmt.Errorf("btree: empty tree but size %d", t.size)
		}
		if len(freeL) != len(t.lnum) || len(freeI) != len(t.knum) {
			return fmt.Errorf("btree: empty tree leaks slots (%d/%d leaves free, %d/%d inner free)",
				len(freeL), len(t.lnum), len(freeI), len(t.knum))
		}
		return nil
	}

	liveL := make(map[int32]bool)
	liveI := make(map[int32]bool)
	count := 0
	var prev *Entry
	first := nilSlot
	var check func(s int32, depth int, lo, hi *Entry) error
	check = func(s int32, depth int, lo, hi *Entry) error {
		if depth == t.height-1 {
			if s < 0 || int(s) >= len(t.lnum) {
				return fmt.Errorf("btree: leaf slot %d out of arena (have %d)", s, len(t.lnum))
			}
			if freeL[s] {
				return fmt.Errorf("btree: reachable leaf slot %d is on the free list", s)
			}
			if liveL[s] {
				return fmt.Errorf("btree: leaf slot %d reachable twice", s)
			}
			liveL[s] = true
			if first == nilSlot {
				first = s
			}
			n := int(t.lnum[s])
			if s != t.root && n < leafMin {
				return fmt.Errorf("btree: underfull leaf (%d entries)", n)
			}
			if n > leafCap {
				return fmt.Errorf("btree: overfull leaf (%d entries)", n)
			}
			lk, li := t.lkeys(s), t.lids(s)
			for i := 0; i < n; i++ {
				e := Entry{Key: lk[i], ID: li[i]}
				if prev != nil && !prev.Less(e) {
					return fmt.Errorf("btree: leaf order violation at %v", e)
				}
				if lo != nil && e.Less(*lo) {
					return fmt.Errorf("btree: entry %v below lower bound %v", e, *lo)
				}
				if hi != nil && !e.Less(*hi) {
					return fmt.Errorf("btree: entry %v not below upper bound %v", e, *hi)
				}
				ec := e
				prev = &ec
				count++
			}
			return nil
		}
		if s < 0 || int(s) >= len(t.knum) {
			return fmt.Errorf("btree: inner slot %d out of arena (have %d)", s, len(t.knum))
		}
		if freeI[s] {
			return fmt.Errorf("btree: reachable inner slot %d is on the free list", s)
		}
		if liveI[s] {
			return fmt.Errorf("btree: inner slot %d reachable twice", s)
		}
		liveI[s] = true
		nk := int(t.knum[s])
		if nk < 2 || nk > innerCap {
			return fmt.Errorf("btree: inner slot with %d kids", nk)
		}
		if s != t.root && nk < innerMin {
			return fmt.Errorf("btree: underfull inner slot (%d kids)", nk)
		}
		childLeaf := depth+1 == t.height-1
		kv := t.kidv(s)
		sub := 0
		for _, k := range kv[:nk] {
			sub += t.subtree(k, childLeaf)
		}
		if int(t.counts[s]) != sub {
			return fmt.Errorf("btree: inner count %d, children hold %d", t.counts[s], sub)
		}
		sk, si := t.skeys(s), t.sids(s)
		for i := 0; i < nk; i++ {
			klo, khi := lo, hi
			var slo, shi Entry
			if i > 0 {
				slo = Entry{Key: sk[i-1], ID: si[i-1]}
				klo = &slo
			}
			if i < nk-1 {
				shi = Entry{Key: sk[i], ID: si[i]}
				khi = &shi
			}
			if err := check(kv[i], depth+1, klo, khi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root, 0, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: walked %d entries, size says %d", count, t.size)
	}
	if len(liveL)+len(freeL) != len(t.lnum) {
		return fmt.Errorf("btree: leaked leaf slots (%d live + %d free, %d allocated)",
			len(liveL), len(freeL), len(t.lnum))
	}
	if len(liveI)+len(freeI) != len(t.knum) {
		return fmt.Errorf("btree: leaked inner slots (%d live + %d free, %d allocated)",
			len(liveI), len(freeI), len(t.knum))
	}
	// The leaf chain must visit exactly the live leaves in order.
	if t.lprev[first] != nilSlot {
		return fmt.Errorf("btree: first leaf %d has a prev pointer", first)
	}
	chain, chained := 0, 0
	for s := first; s != nilSlot; s = t.lnext[s] {
		if !liveL[s] {
			return fmt.Errorf("btree: leaf chain visits unreachable slot %d", s)
		}
		chain += int(t.lnum[s])
		chained++
		if next := t.lnext[s]; next != nilSlot && t.lprev[next] != s {
			return fmt.Errorf("btree: broken prev pointer in leaf chain at slot %d", s)
		}
	}
	if chain != t.size {
		return fmt.Errorf("btree: leaf chain has %d entries, size says %d", chain, t.size)
	}
	if chained != len(liveL) {
		return fmt.Errorf("btree: leaf chain visits %d slots, %d reachable", chained, len(liveL))
	}
	return nil
}
