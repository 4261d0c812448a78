// Package reftree preserves the pointer-based B+ tree that backed the
// planar index before the arena (Structure-of-Arrays) rewrite of
// package btree. It exists as a reference implementation only: the
// btree differential tests replay random workloads against both trees
// and assert identical answers. Engine code must not import it.
//
// The tree is a set: each (Key, ID) pair appears at most once.
// Entries are ordered by Key first, then ID. The zero Tree is empty
// and ready to use, but most callers should use BulkLoad.
package reftree

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
	if e.Key != f.Key { //nolint:floatkey // total-order comparator: tolerance would break the tree's strict ordering invariant
		return e.Key < f.Key
	}
	return e.ID < f.ID
}

const (
	// maxEntries is the fan-out: maximum entries per leaf and maximum
	// children per inner node. 64 keeps nodes near a cache line
	// multiple and the tree shallow (1M entries in 4 levels).
	maxEntries = 64
	minEntries = maxEntries / 2
)

type node struct {
	leaf bool
	// ents holds data entries in a leaf; in an inner node it holds the
	// separators (len(ents) == len(kids)-1). Child i contains entries
	// e with ents[i-1] <= e < ents[i].
	ents []Entry
	kids []*node
	// count caches the number of entries under an inner node, giving
	// O(log n) rank queries (order statistics). Leaves use len(ents).
	count int
	// Leaf chain for range scans.
	next, prev *node
}

// subtree returns the number of entries under n.
func (n *node) subtree() int {
	if n.leaf {
		return len(n.ents)
	}
	return n.count
}

// recount recomputes an inner node's cached count from its children.
func (n *node) recount() {
	if n.leaf {
		return
	}
	c := 0
	for _, k := range n.kids {
		c += k.subtree()
	}
	n.count = c
}

// Tree is a B+ tree set of Entry values.
type Tree struct {
	root   *node
	size   int
	height int
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Height returns the number of levels (0 for an empty tree, 1 for a
// single leaf).
func (t *Tree) Height() int { return t.height }

// BulkLoad builds a tree from entries in O(n log n). The input slice
// is sorted in place. Duplicate (Key, ID) pairs are collapsed.
func BulkLoad(entries []Entry) *Tree {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Less(entries[j]) })
	// Collapse duplicates.
	dedup := entries[:0]
	for i, e := range entries {
		if i > 0 && !dedup[len(dedup)-1].Less(e) {
			continue
		}
		dedup = append(dedup, e)
	}
	entries = dedup

	t := &Tree{}
	if len(entries) == 0 {
		return t
	}
	// Pack leaves at ~87% fill so immediate inserts do not split.
	const fill = maxEntries - maxEntries/8
	var leaves []*node
	for off := 0; off < len(entries); {
		n := fill
		if rem := len(entries) - off; rem < n {
			n = rem
		}
		// Avoid an underfull final leaf by stealing from this one.
		if rem := len(entries) - off - n; rem > 0 && rem < minEntries {
			n = (n + rem + 1) / 2
		}
		lf := &node{leaf: true, ents: append([]Entry(nil), entries[off:off+n]...)}
		if len(leaves) > 0 {
			prev := leaves[len(leaves)-1]
			prev.next = lf
			lf.prev = prev
		}
		leaves = append(leaves, lf)
		off += n
	}
	t.size = len(entries)
	t.height = 1

	level := leaves
	for len(level) > 1 {
		var parents []*node
		for off := 0; off < len(level); {
			n := maxEntries
			if rem := len(level) - off; rem < n {
				n = rem
			}
			if rem := len(level) - off - n; rem > 0 && rem < minEntries {
				n = (n + rem + 1) / 2
			}
			in := &node{kids: append([]*node(nil), level[off:off+n]...)}
			for i := 1; i < len(in.kids); i++ {
				in.ents = append(in.ents, minOf(in.kids[i]))
			}
			in.recount()
			parents = append(parents, in)
			off += n
		}
		level = parents
		t.height++
	}
	t.root = level[0]
	return t
}

// minOf returns the smallest entry in the subtree rooted at n.
func minOf(n *node) Entry {
	for !n.leaf {
		n = n.kids[0]
	}
	return n.ents[0]
}

// childIndex returns the index of the child that may contain e.
func (n *node) childIndex(e Entry) int {
	// First separator strictly greater than e.
	return sort.Search(len(n.ents), func(i int) bool { return e.Less(n.ents[i]) })
}

// leafIndex returns the position of e in the leaf, and whether it is
// present.
func (n *node) leafIndex(e Entry) (int, bool) {
	i := sort.Search(len(n.ents), func(i int) bool { return !n.ents[i].Less(e) })
	return i, i < len(n.ents) && !e.Less(n.ents[i])
}

// Contains reports whether the (key, id) pair is present.
func (t *Tree) Contains(key float64, id uint32) bool {
	if t.root == nil {
		return false
	}
	e := Entry{Key: key, ID: id}
	n := t.root
	for !n.leaf {
		n = n.kids[n.childIndex(e)]
	}
	_, ok := n.leafIndex(e)
	return ok
}

// Insert adds the pair, returning false if it was already present.
func (t *Tree) Insert(key float64, id uint32) bool {
	e := Entry{Key: key, ID: id}
	if t.root == nil {
		t.root = &node{leaf: true, ents: []Entry{e}}
		t.size = 1
		t.height = 1
		return true
	}
	right, sep, added := t.insert(t.root, e)
	if !added {
		return false
	}
	t.size++
	if right != nil {
		t.root = &node{ents: []Entry{sep}, kids: []*node{t.root, right}}
		t.root.recount()
		t.height++
	}
	return true
}

// insert adds e under n. If n splits, it returns the new right
// sibling and the separator (smallest entry of the right subtree).
func (t *Tree) insert(n *node, e Entry) (right *node, sep Entry, added bool) {
	if n.leaf {
		i, ok := n.leafIndex(e)
		if ok {
			return nil, Entry{}, false
		}
		n.ents = append(n.ents, Entry{})
		copy(n.ents[i+1:], n.ents[i:])
		n.ents[i] = e
		if len(n.ents) <= maxEntries {
			return nil, Entry{}, true
		}
		mid := len(n.ents) / 2
		r := &node{leaf: true, ents: append([]Entry(nil), n.ents[mid:]...)}
		n.ents = n.ents[:mid:mid]
		r.next = n.next
		if r.next != nil {
			r.next.prev = r
		}
		r.prev = n
		n.next = r
		return r, r.ents[0], true
	}

	ci := n.childIndex(e)
	childRight, childSep, added := t.insert(n.kids[ci], e)
	if !added {
		return nil, Entry{}, false
	}
	n.count++
	if childRight == nil {
		return nil, Entry{}, true
	}
	// Insert childSep at position ci and childRight at ci+1.
	n.ents = append(n.ents, Entry{})
	copy(n.ents[ci+1:], n.ents[ci:])
	n.ents[ci] = childSep
	n.kids = append(n.kids, nil)
	copy(n.kids[ci+2:], n.kids[ci+1:])
	n.kids[ci+1] = childRight
	if len(n.kids) <= maxEntries {
		return nil, Entry{}, true
	}
	midKid := len(n.kids) / 2
	sep = n.ents[midKid-1]
	r := &node{
		ents: append([]Entry(nil), n.ents[midKid:]...),
		kids: append([]*node(nil), n.kids[midKid:]...),
	}
	n.ents = n.ents[: midKid-1 : midKid-1]
	n.kids = n.kids[:midKid:midKid]
	n.recount()
	r.recount()
	return r, sep, true
}

// Delete removes the pair, returning false if it was not present.
func (t *Tree) Delete(key float64, id uint32) bool {
	if t.root == nil {
		return false
	}
	e := Entry{Key: key, ID: id}
	if !t.delete(t.root, e) {
		return false
	}
	t.size--
	// Collapse a root that lost all separators.
	for t.root != nil && !t.root.leaf && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
		t.height--
	}
	if t.root != nil && t.root.leaf && len(t.root.ents) == 0 {
		t.root = nil
		t.height = 0
	}
	return true
}

func (t *Tree) delete(n *node, e Entry) bool {
	if n.leaf {
		i, ok := n.leafIndex(e)
		if !ok {
			return false
		}
		n.ents = append(n.ents[:i], n.ents[i+1:]...)
		return true
	}
	ci := n.childIndex(e)
	child := n.kids[ci]
	if !t.delete(child, e) {
		return false
	}
	n.count--
	if underflow(child) {
		n.fixChild(ci)
	}
	return true
}

func underflow(n *node) bool {
	if n.leaf {
		return len(n.ents) < minEntries
	}
	return len(n.kids) < minEntries
}

// fixChild restores the invariant for child ci by borrowing from a
// sibling or merging with one.
func (n *node) fixChild(ci int) {
	child := n.kids[ci]
	// Try borrowing from the left sibling.
	if ci > 0 {
		left := n.kids[ci-1]
		if spare(left) {
			if child.leaf {
				last := left.ents[len(left.ents)-1]
				left.ents = left.ents[:len(left.ents)-1]
				child.ents = append([]Entry{last}, child.ents...)
				n.ents[ci-1] = child.ents[0]
			} else {
				// Rotate through the parent separator.
				lastKid := left.kids[len(left.kids)-1]
				lastSep := left.ents[len(left.ents)-1]
				left.kids = left.kids[:len(left.kids)-1]
				left.ents = left.ents[:len(left.ents)-1]
				child.kids = append([]*node{lastKid}, child.kids...)
				child.ents = append([]Entry{n.ents[ci-1]}, child.ents...)
				n.ents[ci-1] = lastSep
				left.recount()
				child.recount()
			}
			return
		}
	}
	// Try borrowing from the right sibling.
	if ci < len(n.kids)-1 {
		right := n.kids[ci+1]
		if spare(right) {
			if child.leaf {
				first := right.ents[0]
				right.ents = right.ents[1:]
				child.ents = append(child.ents, first)
				n.ents[ci] = right.ents[0]
			} else {
				firstKid := right.kids[0]
				firstSep := right.ents[0]
				right.kids = right.kids[1:]
				right.ents = right.ents[1:]
				child.kids = append(child.kids, firstKid)
				child.ents = append(child.ents, n.ents[ci])
				n.ents[ci] = firstSep
				right.recount()
				child.recount()
			}
			return
		}
	}
	// Merge with a sibling. Prefer merging child into its left
	// sibling; otherwise merge the right sibling into child.
	if ci > 0 {
		n.mergeChildren(ci - 1)
	} else {
		n.mergeChildren(ci)
	}
}

func spare(n *node) bool {
	if n.leaf {
		return len(n.ents) > minEntries
	}
	return len(n.kids) > minEntries
}

// mergeChildren merges child ci+1 into child ci and removes the
// separator between them.
func (n *node) mergeChildren(ci int) {
	left, right := n.kids[ci], n.kids[ci+1]
	if left.leaf {
		left.ents = append(left.ents, right.ents...)
		left.next = right.next
		if left.next != nil {
			left.next.prev = left
		}
	} else {
		left.ents = append(left.ents, n.ents[ci])
		left.ents = append(left.ents, right.ents...)
		left.kids = append(left.kids, right.kids...)
		left.recount()
	}
	n.ents = append(n.ents[:ci], n.ents[ci+1:]...)
	n.kids = append(n.kids[:ci+1], n.kids[ci+2:]...)
}

// Min returns the smallest entry.
func (t *Tree) Min() (Entry, bool) {
	if t.root == nil {
		return Entry{}, false
	}
	return minOf(t.root), true
}

// Max returns the largest entry.
func (t *Tree) Max() (Entry, bool) {
	if t.root == nil {
		return Entry{}, false
	}
	n := t.root
	for !n.leaf {
		n = n.kids[len(n.kids)-1]
	}
	return n.ents[len(n.ents)-1], true
}

// seekGE returns the leaf and index of the first entry >= e, or
// (nil, 0) if no such entry exists.
func (t *Tree) seekGE(e Entry) (*node, int) {
	if t.root == nil {
		return nil, 0
	}
	n := t.root
	for !n.leaf {
		n = n.kids[n.childIndex(e)]
	}
	i := sort.Search(len(n.ents), func(i int) bool { return !n.ents[i].Less(e) })
	if i == len(n.ents) {
		if n.next == nil {
			return nil, 0
		}
		return n.next, 0
	}
	return n, i
}

// seekLE returns the leaf and index of the last entry <= e, or
// (nil, 0) if no such entry exists.
func (t *Tree) seekLE(e Entry) (*node, int) {
	if t.root == nil {
		return nil, 0
	}
	n := t.root
	for !n.leaf {
		n = n.kids[n.childIndex(e)]
	}
	// Last index with ents[i] <= e: one before the first entry > e.
	i := sort.Search(len(n.ents), func(i int) bool { return e.Less(n.ents[i]) })
	if i == 0 {
		if n.prev == nil {
			return nil, 0
		}
		p := n.prev
		return p, len(p.ents) - 1
	}
	return n, i - 1
}

// Ascend calls fn for every entry in ascending order until fn
// returns false.
func (t *Tree) Ascend(fn func(Entry) bool) {
	if t.root == nil {
		return
	}
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	for ; n != nil; n = n.next {
		for _, e := range n.ents {
			if !fn(e) {
				return
			}
		}
	}
}

// AscendLE calls fn for every entry with Key <= maxKey in ascending
// order until fn returns false.
func (t *Tree) AscendLE(maxKey float64, fn func(Entry) bool) {
	if t.root == nil {
		return
	}
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	for ; n != nil; n = n.next {
		for _, e := range n.ents {
			if e.Key > maxKey {
				return
			}
			if !fn(e) {
				return
			}
		}
	}
}

// AscendRange calls fn for every entry with loKeyExcl < Key <=
// hiKeyIncl in ascending order until fn returns false. This is the
// intermediate-interval scan.
func (t *Tree) AscendRange(loKeyExcl, hiKeyIncl float64, fn func(Entry) bool) {
	if loKeyExcl > hiKeyIncl {
		return
	}
	// First entry with key strictly greater than loKeyExcl: seek
	// (loKeyExcl, MaxUint32) then step once if equal.
	start, i := t.seekGE(Entry{Key: loKeyExcl, ID: ^uint32(0)})
	if start == nil {
		return
	}
	if start.ents[i].Key == loKeyExcl { //nolint:floatkey // boundary identity against the exact seek key, not a computed value
		// The boundary pair (loKeyExcl, MaxUint32) itself: skip it.
		i++
		if i == len(start.ents) {
			start = start.next
			i = 0
		}
	}
	for n := start; n != nil; n = n.next {
		for ; i < len(n.ents); i++ {
			e := n.ents[i]
			if e.Key > hiKeyIncl {
				return
			}
			if !fn(e) {
				return
			}
		}
		i = 0
	}
}

// AscendGT calls fn for every entry with Key > minKeyExcl in
// ascending order until fn returns false. This is the
// larger-interval scan.
func (t *Tree) AscendGT(minKeyExcl float64, fn func(Entry) bool) {
	t.AscendRange(minKeyExcl, math.Inf(1), fn)
}

// DescendLE calls fn for every entry with Key <= maxKey in descending
// order until fn returns false. This drives the top-k walk over the
// smaller interval (Algorithm 2, lines 8-14).
func (t *Tree) DescendLE(maxKey float64, fn func(Entry) bool) {
	n, i := t.seekLE(Entry{Key: maxKey, ID: ^uint32(0)})
	if n == nil {
		return
	}
	for ; n != nil; n = n.prev {
		for ; i >= 0; i-- {
			if !fn(n.ents[i]) {
				return
			}
		}
		if n.prev != nil {
			i = len(n.prev.ents) - 1
		}
	}
}

// RankLE returns the number of entries with Key <= maxKey in
// O(log n), using the per-node subtree counts (order statistics).
// This powers count-only queries and selectivity bounds without
// scanning any interval.
func (t *Tree) RankLE(maxKey float64) int {
	if t.root == nil {
		return 0
	}
	e := Entry{Key: maxKey, ID: ^uint32(0)}
	n := t.root
	rank := 0
	for !n.leaf {
		ci := n.childIndex(e)
		for _, k := range n.kids[:ci] {
			rank += k.subtree()
		}
		n = n.kids[ci]
	}
	rank += sort.Search(len(n.ents), func(i int) bool { return e.Less(n.ents[i]) })
	return rank
}

// CountRange returns the number of entries with
// loKeyExcl < Key <= hiKeyIncl in O(log n).
func (t *Tree) CountRange(loKeyExcl, hiKeyIncl float64) int {
	if loKeyExcl > hiKeyIncl {
		return 0
	}
	c := t.RankLE(hiKeyIncl) - t.RankLE(loKeyExcl)
	if c < 0 {
		return 0
	}
	return c
}

// Stats describes the tree's shape and approximate memory footprint.
type Stats struct {
	Entries int
	Leaves  int
	Inner   int
	Height  int
	Bytes   int // approximate heap bytes
}

// Stats walks the tree and returns shape statistics.
func (t *Tree) Stats() Stats {
	s := Stats{Entries: t.size, Height: t.height}
	var walk func(n *node)
	walk = func(n *node) {
		const nodeOverhead = 96 // struct + slice headers, approximate
		s.Bytes += nodeOverhead + 12*cap(n.ents) + 8*cap(n.kids)
		if n.leaf {
			s.Leaves++
			return
		}
		s.Inner++
		for _, k := range n.kids {
			walk(k)
		}
	}
	if t.root != nil {
		walk(t.root)
	}
	return s
}

// Validate checks structural invariants (ordering, fill factors, leaf
// chain consistency, separator correctness) and returns a descriptive
// error on the first violation. It is used by tests and costs O(n).
func (t *Tree) Validate() error {
	if t.root == nil {
		if t.size != 0 {
			return fmt.Errorf("reftree: empty root but size %d", t.size)
		}
		return nil
	}
	count := 0
	var prev *Entry
	var firstLeaf *node
	var check func(n *node, depth int, lo, hi *Entry) error
	check = func(n *node, depth int, lo, hi *Entry) error {
		if n.leaf {
			if depth != t.height-1 {
				return fmt.Errorf("reftree: leaf at depth %d, height %d", depth, t.height)
			}
			if firstLeaf == nil {
				firstLeaf = n
			}
			if n != t.root && len(n.ents) < minEntries {
				return fmt.Errorf("reftree: underfull leaf (%d entries)", len(n.ents))
			}
			for _, e := range n.ents {
				if prev != nil && !prev.Less(e) {
					return fmt.Errorf("reftree: leaf order violation at %v", e)
				}
				if lo != nil && e.Less(*lo) {
					return fmt.Errorf("reftree: entry %v below lower bound %v", e, *lo)
				}
				if hi != nil && !e.Less(*hi) {
					return fmt.Errorf("reftree: entry %v not below upper bound %v", e, *hi)
				}
				ec := e
				prev = &ec
				count++
			}
			return nil
		}
		if len(n.kids) != len(n.ents)+1 {
			return fmt.Errorf("reftree: inner node with %d kids, %d separators", len(n.kids), len(n.ents))
		}
		sub := 0
		for _, k := range n.kids {
			sub += k.subtree()
		}
		if n.count != sub {
			return fmt.Errorf("reftree: inner count %d, children hold %d", n.count, sub)
		}
		if n != t.root && len(n.kids) < minEntries {
			return fmt.Errorf("reftree: underfull inner node (%d kids)", len(n.kids))
		}
		for i, k := range n.kids {
			klo, khi := lo, hi
			if i > 0 {
				klo = &n.ents[i-1]
			}
			if i < len(n.ents) {
				khi = &n.ents[i]
			}
			if err := check(k, depth+1, klo, khi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root, 0, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("reftree: walked %d entries, size says %d", count, t.size)
	}
	// Leaf chain must visit exactly the leaves in order.
	chain := 0
	for n := firstLeaf; n != nil; n = n.next {
		chain += len(n.ents)
		if n.next != nil && n.next.prev != n {
			return fmt.Errorf("reftree: broken prev pointer in leaf chain")
		}
	}
	if chain != t.size {
		return fmt.Errorf("reftree: leaf chain has %d entries, size says %d", chain, t.size)
	}
	return nil
}
