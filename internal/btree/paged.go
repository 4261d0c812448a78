package btree

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"planar/internal/pager"
)

// Paged-arena mode. A tree opened with OpenPaged keeps only its slot
// *metadata* (lnum/lnext/lprev, knum/counts, free lists — a few bytes
// per slot) in RAM; the data columns (keys/ids for leaves,
// sepKeys/sepIDs/kids for inner slots) live in one page per slot
// inside a pager.File and are faulted through a shared pager.Cache on
// first touch. The arena accessors hand out slices aliasing the
// pinned cache frame, so every algorithm above them — including the
// zero-copy RankChunks/RangeChunks chunk APIs the verification kernels
// consume — runs unchanged on either representation.
//
// Concurrency: a paged tree serializes its operations on an internal
// mutex (the op bracket beginOp/endOp), trading the RAM tier's
// concurrent readers for a single shared pin set. Pins taken during
// an operation are released when it ends; the long scans additionally
// release each leaf's pin as soon as its callback returns, so a full
// scan holds O(height) pins, not O(n), and works with a cache far
// smaller than the tree.
//
// Durability is copy-on-write against the file's checkpoint: the
// first write to a slot since the last checkpoint moves it to a
// freshly allocated page (the frame is rekeyed in place — same bytes,
// new home — and the old page is freed into the pager's pending
// list). Because the relocated page is never referenced by the
// durable superblock, its bytes may be written to disk at any moment
// before the commit: WritebackPaged does exactly that from the
// background writer, marking flushed frames clean (hence evictable)
// while the slot stays in the epoch's dirty set. A slot touched again
// after its writeback re-marks its frame dirty and rejoins the
// to-flush set — same page, still unreferenced, still safe. The
// writeback copies frames out under the arena mutex and writes the
// copies holding only its own io mutex, so a foreground operation
// never waits on a pwrite.
// FlushPaged writes the remaining unflushed slots out and the
// caller's pager.Commit publishes the new epoch atomically. A crash
// at any moment therefore leaves the previous checkpoint intact.
//
// I/O errors inside an accessor have no error channel to ~50 call
// sites, so a failed fault panics with a wrapped pager error:
// fail-stop on a corrupt or unreadable page rather than silently
// wrong query results. The pager-level APIs used by tests and
// recovery return errors normally.

// Per-slot page payload layout. One leaf slot or one inner slot maps
// to exactly one page. Offsets keep every column 8- or 4-byte aligned
// relative to the frame base (which the cache 8-aligns).
const (
	leafKeysOff  = 0
	leafIDsOff   = leafCap * 8            // 2048
	leafPayload  = leafIDsOff + leafCap*4 // 3072
	innerSepOff  = 0
	innerSIDsOff = sepCap * 8                // 504
	innerKidsOff = innerSIDsOff + sepCap*4   // 756
	innerPayload = innerKidsOff + innerCap*4 // 1012
)

// Compile-time: both node payloads must fit one pager page, and an
// inner payload fits a leaf-sized staging slot.
var (
	_ [pager.PayloadSize - leafPayload]byte
	_ [pager.PayloadSize - innerPayload]byte
	_ [leafPayload - innerPayload]byte
)

// stageChunk is how many dirty frames one writeback chunk copies out
// under the arena mutex: the hold is a few µs, and io is released
// between chunks so a checkpoint waits for at most one chunk's writes.
const stageChunk = 16

// leafColumns reinterprets a frame payload as the leaf key/id columns.
func leafColumns(buf []byte) ([]float64, []uint32) {
	keys := unsafe.Slice((*float64)(unsafe.Pointer(&buf[leafKeysOff])), leafCap)
	ids := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[leafIDsOff])), leafCap)
	return keys, ids
}

// innerColumns reinterprets a frame payload as the separator/kid
// columns.
func innerColumns(buf []byte) ([]float64, []uint32, []int32) {
	sk := unsafe.Slice((*float64)(unsafe.Pointer(&buf[innerSepOff])), sepCap)
	si := unsafe.Slice((*uint32)(unsafe.Pointer(&buf[innerSIDsOff])), sepCap)
	kv := unsafe.Slice((*int32)(unsafe.Pointer(&buf[innerKidsOff])), innerCap)
	return sk, si, kv
}

// pagedView caches the pinned frame and derived column slices for one
// slot for the duration of an operation.
type pagedView struct {
	f    *pager.Frame
	keys []float64 // leaf keys, or inner sepKeys
	ids  []uint32  // leaf ids, or inner sepIDs
	kids []int32   // inner only
}

// stagedPage is one frame a writeback chunk copied out for its write
// phase. The frame stays pinned until the chunk completes.
type stagedPage struct {
	f     *pager.Frame
	page  int64
	slot  int32
	inner bool
}

// pagedArena is the paged tree's extra state.
type pagedArena struct {
	// io is held by a writeback chunk from stage through complete, and
	// taken first by FlushPaged (lock order io → mu): a checkpoint never
	// counts a staged-but-unwritten slot as flushed. No foreground
	// operation takes it.
	io    sync.Mutex
	mu    sync.Mutex
	file  *pager.File
	cache *pager.Cache

	// stageBuf holds a chunk's staged payloads, one leafPayload-sized
	// slot per staged page, and staged describes them.
	// guarded by io
	stageBuf []byte
	// guarded by io
	staged []stagedPage
	// writeHook, when set (tests only, before the tree is shared), runs
	// at the start of a chunk's write phase — with only io held on the
	// writeback route; a non-nil return fails the phase as a pwrite
	// error would.
	writeHook func() error

	leafPage  []int64 // page per leaf slot, -1 for free slots
	innerPage []int64
	// ldirty/idirty mark slots modified since the last checkpoint (the
	// epoch's delta set).
	// guarded by mu
	ldirty []bool
	// guarded by mu
	idirty []bool
	// lflushed/iflushed mark dirty slots whose frame the background
	// writer has already shadow-written this epoch: the frame is
	// clean/evictable but the slot stays in the epoch's delta. A later
	// write in the same epoch re-marks the frame and clears the bit
	// (the page is still unreferenced by the durable superblock, so
	// rewriting it is as safe as the first shadow write was).
	// guarded by mu
	lflushed []bool
	// guarded by mu
	iflushed []bool

	lview   []pagedView
	iview   []pagedView
	pinnedL []int32
	pinnedI []int32
	writeOp bool
}

func (pg *pagedArena) begin(write bool) {
	pg.mu.Lock()
	pg.writeOp = write
}

func (pg *pagedArena) end() {
	for _, s := range pg.pinnedL {
		if v := &pg.lview[s]; v.f != nil {
			pg.cache.Unpin(v.f)
			*v = pagedView{}
		}
	}
	pg.pinnedL = pg.pinnedL[:0]
	for _, s := range pg.pinnedI {
		if v := &pg.iview[s]; v.f != nil {
			pg.cache.Unpin(v.f)
			*v = pagedView{}
		}
	}
	pg.pinnedI = pg.pinnedI[:0]
	pg.writeOp = false
	pg.mu.Unlock()
}

// beginOp starts the op bracket on a paged tree and reports whether
// endOp must run; RAM trees skip both. Public Tree methods use it as
//
//	if t.beginOp(write) { defer t.pg.end() }
func (t *Tree) beginOp(write bool) bool {
	if t.pg == nil {
		return false
	}
	t.pg.begin(write)
	return true
}

// leafView returns the slot's pinned view, faulting the page in on
// first touch and performing the copy-on-write page move when the
// current operation is a mutation. A slot already shadow-written by
// the background writer this epoch needs no new page — the current
// one is still invisible to the durable superblock — but its frame
// must be re-marked dirty so the next flush rewrites it.
//
//planar:locked
func (pg *pagedArena) leafView(s int32) *pagedView {
	v := &pg.lview[s]
	if v.f == nil {
		pg.faultLeaf(s, v)
	}
	if pg.writeOp {
		if !pg.ldirty[s] {
			pg.cowLeaf(s, v)
		} else if pg.lflushed[s] {
			pg.cache.MarkDirty(v.f)
			pg.lflushed[s] = false
		}
	}
	return v
}

//planar:locked
func (pg *pagedArena) innerView(s int32) *pagedView {
	v := &pg.iview[s]
	if v.f == nil {
		pg.faultInner(s, v)
	}
	if pg.writeOp {
		if !pg.idirty[s] {
			pg.cowInner(s, v)
		} else if pg.iflushed[s] {
			pg.cache.MarkDirty(v.f)
			pg.iflushed[s] = false
		}
	}
	return v
}

func (pg *pagedArena) faultLeaf(s int32, v *pagedView) {
	page := pg.leafPage[s]
	if page < 0 {
		panic(fmt.Sprintf("btree: paged fault on free leaf slot %d", s))
	}
	f, err := pg.cache.Get(uint64(page), func(buf []byte) error {
		typ, err := pg.file.ReadPage(page, buf)
		if err == nil && typ != pager.PageLeaf {
			err = fmt.Errorf("btree: leaf slot %d page %d has page type %d", s, page, typ)
		}
		return err
	})
	if err != nil {
		panic(fmt.Sprintf("btree: paged leaf fault failed: %v", err))
	}
	v.f = f
	v.keys, v.ids = leafColumns(f.Bytes())
	pg.pinnedL = append(pg.pinnedL, s)
}

func (pg *pagedArena) faultInner(s int32, v *pagedView) {
	page := pg.innerPage[s]
	if page < 0 {
		panic(fmt.Sprintf("btree: paged fault on free inner slot %d", s))
	}
	f, err := pg.cache.Get(uint64(page), func(buf []byte) error {
		typ, err := pg.file.ReadPage(page, buf)
		if err == nil && typ != pager.PageInner {
			err = fmt.Errorf("btree: inner slot %d page %d has page type %d", s, page, typ)
		}
		return err
	})
	if err != nil {
		panic(fmt.Sprintf("btree: paged inner fault failed: %v", err))
	}
	v.f = f
	v.keys, v.ids, v.kids = innerColumns(f.Bytes())
	pg.pinnedI = append(pg.pinnedI, s)
}

// cowLeaf moves a clean slot to a fresh page before its first write
// of the epoch, preserving the durable checkpoint's copy.
//
//planar:locked
func (pg *pagedArena) cowLeaf(s int32, v *pagedView) {
	old := pg.leafPage[s]
	np := pg.file.Alloc()
	pg.cache.Rekey(v.f, uint64(np))
	pg.cache.MarkDirty(v.f)
	pg.file.Free(old)
	pg.leafPage[s] = np
	pg.ldirty[s] = true
}

//planar:locked
func (pg *pagedArena) cowInner(s int32, v *pagedView) {
	old := pg.innerPage[s]
	np := pg.file.Alloc()
	pg.cache.Rekey(v.f, uint64(np))
	pg.cache.MarkDirty(v.f)
	pg.file.Free(old)
	pg.innerPage[s] = np
	pg.idirty[s] = true
}

// materializeLeaf backs a newly allocated slot with a fresh zeroed
// page (pinned and dirty: it exists only in the cache until the
// writer or the next checkpoint flush writes it).
//
//planar:locked
func (pg *pagedArena) materializeLeaf(s int32) {
	np := pg.file.Alloc()
	f := pg.cache.NewFrame(uint64(np))
	pg.leafPage[s] = np
	pg.ldirty[s] = true
	pg.lflushed[s] = false
	v := &pg.lview[s]
	v.f = f
	v.keys, v.ids = leafColumns(f.Bytes())
	pg.pinnedL = append(pg.pinnedL, s)
}

//planar:locked
func (pg *pagedArena) materializeInner(s int32) {
	np := pg.file.Alloc()
	f := pg.cache.NewFrame(uint64(np))
	pg.innerPage[s] = np
	pg.idirty[s] = true
	pg.iflushed[s] = false
	v := &pg.iview[s]
	v.f = f
	v.keys, v.ids, v.kids = innerColumns(f.Bytes())
	pg.pinnedI = append(pg.pinnedI, s)
}

// growLeaf extends the per-slot bookkeeping for one fresh leaf slot.
//
//planar:locked
func (pg *pagedArena) growLeaf() {
	pg.leafPage = append(pg.leafPage, -1)
	pg.ldirty = append(pg.ldirty, false)
	pg.lflushed = append(pg.lflushed, false)
	pg.lview = append(pg.lview, pagedView{})
}

//planar:locked
func (pg *pagedArena) growInner() {
	pg.innerPage = append(pg.innerPage, -1)
	pg.idirty = append(pg.idirty, false)
	pg.iflushed = append(pg.iflushed, false)
	pg.iview = append(pg.iview, pagedView{})
}

// dropLeaf releases a freed slot's page: the frame (pinned or not) is
// discarded and the page joins the pager's pending free list.
//
//planar:locked
func (pg *pagedArena) dropLeaf(s int32) {
	if page := pg.leafPage[s]; page >= 0 {
		if v := &pg.lview[s]; v.f != nil {
			// The pin dies with the frame; endOp skips cleared views.
			*v = pagedView{}
		}
		pg.cache.Drop(uint64(page))
		pg.file.Free(page)
		pg.leafPage[s] = -1
		pg.ldirty[s] = false
		pg.lflushed[s] = false
	}
}

//planar:locked
func (pg *pagedArena) dropInner(s int32) {
	if page := pg.innerPage[s]; page >= 0 {
		if v := &pg.iview[s]; v.f != nil {
			*v = pagedView{}
		}
		pg.cache.Drop(uint64(page))
		pg.file.Free(page)
		pg.innerPage[s] = -1
		pg.idirty[s] = false
		pg.iflushed[s] = false
	}
}

// releaseLeaf drops the pin a long scan holds on a finished leaf so
// the cache can evict behind the scan front.
func (t *Tree) releaseLeaf(s int32) {
	if t.pg == nil {
		return
	}
	if v := &t.pg.lview[s]; v.f != nil {
		t.pg.cache.Unpin(v.f)
		*v = pagedView{}
	}
}

// PagedMeta is the serializable description of a paged tree: the RAM
// metadata columns plus the slot→page mapping. It is what a
// checkpoint stores and OpenPaged consumes.
type PagedMeta struct {
	Root   int32
	Height int32
	Size   int64

	Lnum, Lnext, Lprev  []int32
	Knum, Counts        []int32
	FreeLeaf, FreeInner []int32
	LeafPage, InnerPage []int64
}

const pagedMetaVersion = 1

// AppendTo serializes the meta, appending to buf.
func (m *PagedMeta) AppendTo(buf []byte) []byte {
	buf = append(buf, pagedMetaVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Root))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Height))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Size))
	app32 := func(s []int32) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		for _, v := range s {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
	}
	app64 := func(s []int64) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		for _, v := range s {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	app32(m.Lnum)
	app32(m.Lnext)
	app32(m.Lprev)
	app32(m.Knum)
	app32(m.Counts)
	app32(m.FreeLeaf)
	app32(m.FreeInner)
	app64(m.LeafPage)
	app64(m.InnerPage)
	return buf
}

// DecodePagedMeta parses a meta blob produced by AppendTo.
func DecodePagedMeta(buf []byte) (*PagedMeta, error) {
	if len(buf) < 17 {
		return nil, fmt.Errorf("btree: paged meta truncated (%d bytes)", len(buf))
	}
	if buf[0] != pagedMetaVersion {
		return nil, fmt.Errorf("btree: paged meta version %d, want %d", buf[0], pagedMetaVersion)
	}
	m := &PagedMeta{
		Root:   int32(binary.LittleEndian.Uint32(buf[1:])),
		Height: int32(binary.LittleEndian.Uint32(buf[5:])),
		Size:   int64(binary.LittleEndian.Uint64(buf[9:])),
	}
	rest := buf[17:]
	var derr error
	take32 := func() []int32 {
		if derr != nil {
			return nil
		}
		if len(rest) < 4 {
			derr = fmt.Errorf("btree: paged meta truncated")
			return nil
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n < 0 || len(rest) < 4*n {
			derr = fmt.Errorf("btree: paged meta slice of %d entries overruns blob", n)
			return nil
		}
		s := make([]int32, n)
		for i := range s {
			s[i] = int32(binary.LittleEndian.Uint32(rest[4*i:]))
		}
		rest = rest[4*n:]
		return s
	}
	take64 := func() []int64 {
		if derr != nil {
			return nil
		}
		if len(rest) < 4 {
			derr = fmt.Errorf("btree: paged meta truncated")
			return nil
		}
		n := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if n < 0 || len(rest) < 8*n {
			derr = fmt.Errorf("btree: paged meta slice of %d entries overruns blob", n)
			return nil
		}
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
		}
		rest = rest[8*n:]
		return s
	}
	m.Lnum = take32()
	m.Lnext = take32()
	m.Lprev = take32()
	m.Knum = take32()
	m.Counts = take32()
	m.FreeLeaf = take32()
	m.FreeInner = take32()
	m.LeafPage = take64()
	m.InnerPage = take64()
	if derr != nil {
		return nil, derr
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("btree: paged meta has %d trailing bytes", len(rest))
	}
	return m, nil
}

// validate sanity-checks a decoded meta before trusting its slot
// references.
func (m *PagedMeta) validate() error {
	nl, ni := len(m.Lnum), len(m.Knum)
	if len(m.Lnext) != nl || len(m.Lprev) != nl || len(m.LeafPage) != nl {
		return fmt.Errorf("btree: paged meta leaf columns disagree (%d/%d/%d/%d)", nl, len(m.Lnext), len(m.Lprev), len(m.LeafPage))
	}
	if len(m.Counts) != ni || len(m.InnerPage) != ni {
		return fmt.Errorf("btree: paged meta inner columns disagree (%d/%d/%d)", ni, len(m.Counts), len(m.InnerPage))
	}
	if m.Height < 0 || m.Size < 0 {
		return fmt.Errorf("btree: paged meta has negative height/size")
	}
	if m.Height > 0 {
		rootMax := int32(nl)
		if m.Height > 1 {
			rootMax = int32(ni)
		}
		if m.Root < 0 || m.Root >= rootMax {
			return fmt.Errorf("btree: paged meta root %d out of range", m.Root)
		}
	}
	for _, s := range m.FreeLeaf {
		if s < 0 || int(s) >= nl {
			return fmt.Errorf("btree: paged meta free leaf %d out of range", s)
		}
	}
	for _, s := range m.FreeInner {
		if s < 0 || int(s) >= ni {
			return fmt.Errorf("btree: paged meta free inner %d out of range", s)
		}
	}
	return nil
}

// OpenPaged materializes a tree from a checkpointed PagedMeta. Slot
// metadata is loaded eagerly (a few bytes per slot); the data columns
// stay on disk and fault through cache on first touch. The returned
// tree owns its pages from then on: copy-on-write and slot frees
// hand superseded pages back to the file.
func OpenPaged(file *pager.File, cache *pager.Cache, m *PagedMeta) (*Tree, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	t := &Tree{
		lnum:      append([]int32(nil), m.Lnum...),
		lnext:     append([]int32(nil), m.Lnext...),
		lprev:     append([]int32(nil), m.Lprev...),
		knum:      append([]int32(nil), m.Knum...),
		counts:    append([]int32(nil), m.Counts...),
		freeLeaf:  append([]int32(nil), m.FreeLeaf...),
		freeInner: append([]int32(nil), m.FreeInner...),
		root:      m.Root,
		size:      int(m.Size),
		height:    int(m.Height),
	}
	t.pg = &pagedArena{
		file:      file,
		cache:     cache,
		leafPage:  append([]int64(nil), m.LeafPage...),
		innerPage: append([]int64(nil), m.InnerPage...),
		ldirty:    make([]bool, len(m.LeafPage)),
		idirty:    make([]bool, len(m.InnerPage)),
		lflushed:  make([]bool, len(m.LeafPage)),
		iflushed:  make([]bool, len(m.InnerPage)),
		lview:     make([]pagedView, len(m.LeafPage)),
		iview:     make([]pagedView, len(m.InnerPage)),
	}
	return t, nil
}

// Paged reports whether the tree runs in paged-arena mode.
func (t *Tree) Paged() bool { return t.pg != nil }

// pagedMeta snapshots the tree's current metadata (cloned slices).
// For RAM trees the page maps are left empty; WritePaged fills them.
func (t *Tree) pagedMeta() *PagedMeta {
	m := &PagedMeta{
		Root:      t.root,
		Height:    int32(t.height),
		Size:      int64(t.size),
		Lnum:      append([]int32(nil), t.lnum...),
		Lnext:     append([]int32(nil), t.lnext...),
		Lprev:     append([]int32(nil), t.lprev...),
		Knum:      append([]int32(nil), t.knum...),
		Counts:    append([]int32(nil), t.counts...),
		FreeLeaf:  append([]int32(nil), t.freeLeaf...),
		FreeInner: append([]int32(nil), t.freeInner...),
	}
	if t.pg != nil {
		m.LeafPage = append([]int64(nil), t.pg.leafPage...)
		m.InnerPage = append([]int64(nil), t.pg.innerPage...)
	}
	return m
}

// WritebackPaged shadow-writes up to max dirty slots and marks their
// frames clean, making them evictable. The slots stay in the epoch's
// delta set (lflushed/iflushed remember the disk copy is current) so
// the checkpoint still accounts for them; a slot re-touched by a
// later write op rejoins the to-flush set via the leafView re-mark
// hook. Safe at any moment: every dirty slot's page is unreferenced
// by the durable superblock until pager.Commit flips it. Returns the
// number of pages written.
//
// The work runs in chunks of stageChunk pages, each in three phases
// so that no lock a foreground operation takes is held across a
// pwrite: stage copies the frames out under the arena mutex, the
// write phase writes the copies holding only io, and complete marks
// clean, again under the arena mutex, the frames no write touched
// meanwhile.
func (t *Tree) WritebackPaged(max int) (int, error) {
	pg := t.pg
	if pg == nil {
		return 0, nil
	}
	n := 0
	var leafAt, innerAt int // each chunk resumes the scan where the last stopped
	for n < max {
		k := min(stageChunk, max-n)
		w, err := pg.writebackChunk(k, &leafAt, &innerAt)
		n += w
		if err != nil || w < k {
			return n, err
		}
	}
	return n, nil
}

// writebackChunk stages up to k dirty, unflushed slots from the scan
// cursors, writes them, and completes them. It returns the number of
// pages written; fewer than k without an error means the scan is
// exhausted.
func (pg *pagedArena) writebackChunk(k int, leafAt, innerAt *int) (int, error) {
	pg.io.Lock()
	defer pg.io.Unlock()
	pg.mu.Lock()
	serr := pg.stage(k, leafAt, innerAt)
	pg.mu.Unlock()
	if len(pg.staged) == 0 {
		return 0, serr
	}
	written, werr := pg.writeStaged()
	pg.mu.Lock()
	pg.complete(written)
	pg.mu.Unlock()
	if werr != nil {
		return written, werr
	}
	return written, serr
}

// stage copies up to k dirty, unflushed frames into stageBuf, pins
// them, and sets each slot's flushed bit tentatively: a write that
// touches the slot before complete clears the bit again through the
// leafView/innerView re-mark hook, which is how complete learns the
// copy is stale. Runs with io and mu held.
//
//planar:locked
func (pg *pagedArena) stage(k int, leafAt, innerAt *int) error {
	if pg.stageBuf == nil {
		pg.stageBuf = make([]byte, stageChunk*leafPayload)
	}
	for ; *leafAt < len(pg.ldirty) && len(pg.staged) < k; *leafAt++ {
		s := *leafAt
		if !pg.ldirty[s] || pg.lflushed[s] {
			continue
		}
		if err := pg.stageFrame(int32(s), pg.leafPage[s], false); err != nil {
			return err
		}
		pg.lflushed[s] = true
	}
	for ; *innerAt < len(pg.idirty) && len(pg.staged) < k; *innerAt++ {
		s := *innerAt
		if !pg.idirty[s] || pg.iflushed[s] {
			continue
		}
		if err := pg.stageFrame(int32(s), pg.innerPage[s], true); err != nil {
			return err
		}
		pg.iflushed[s] = true
	}
	return nil
}

// stageFrame pins one dirty slot's frame and copies it into the next
// staging slot.
//
//planar:locked
func (pg *pagedArena) stageFrame(s int32, page int64, inner bool) error {
	f, ok := pg.cache.Lookup(uint64(page))
	if !ok {
		kind := "leaf"
		if inner {
			kind = "inner"
		}
		return fmt.Errorf("btree: dirty %s slot %d not resident", kind, s)
	}
	copy(pg.stageBuf[len(pg.staged)*leafPayload:], f.Bytes()[:leafPayload])
	pg.staged = append(pg.staged, stagedPage{f: f, page: page, slot: s, inner: inner})
	return nil
}

// writeStaged is a chunk's write phase. On the writeback route it
// holds io only — not the arena mutex, not pager.File's. It returns
// how many staged pages it wrote before the first error.
//
//planar:locked
func (pg *pagedArena) writeStaged() (int, error) {
	if pg.writeHook != nil {
		if err := pg.writeHook(); err != nil {
			return 0, err
		}
	}
	for i, st := range pg.staged {
		typ, size := pager.PageLeaf, leafPayload
		if st.inner {
			typ, size = pager.PageInner, innerPayload
		}
		if err := pg.file.WritePage(st.page, typ, pg.stageBuf[i*leafPayload:][:size]); err != nil {
			return i, err
		}
	}
	return len(pg.staged), nil
}

// complete ends a chunk: a staged frame is marked clean only if its
// slot still maps to the staged page and the flushed bit stage set
// survived — no write touched the slot and no delete freed it since.
// A slot whose write failed has the bit cleared so the next writeback
// or FlushPaged writes it. Every staged pin is released. Runs with io
// and mu held.
//
//planar:locked
func (pg *pagedArena) complete(written int) {
	for i, st := range pg.staged {
		pages, flushed := pg.leafPage, pg.lflushed
		if st.inner {
			pages, flushed = pg.innerPage, pg.iflushed
		}
		if pages[st.slot] == st.page && flushed[st.slot] {
			if i < written {
				pg.cache.MarkClean(st.f)
			} else {
				flushed[st.slot] = false
			}
		}
		pg.cache.Unpin(st.f)
	}
	clear(pg.staged)
	pg.staged = pg.staged[:0]
}

// FlushPaged writes every still-unflushed dirty slot back to its
// (already copy-on-write-relocated) page, ends the epoch's delta set,
// and returns the metadata to store in the checkpoint plus the number
// of pages the epoch touched (the checkpoint's incremental cost).
// Slots the background writer already shadow-wrote are skipped — their
// frames may have been evicted, but their disk copy is current. The
// caller is responsible for pager.Commit; until then the previous
// checkpoint remains the durable state. It waits for an in-flight
// writeback chunk, so every flushed bit it trusts is a finished write.
func (t *Tree) FlushPaged() (*PagedMeta, int, error) {
	pg := t.pg
	if pg == nil {
		return nil, 0, fmt.Errorf("btree: FlushPaged on a non-paged tree")
	}
	pg.io.Lock()
	defer pg.io.Unlock()
	pg.mu.Lock()
	defer pg.mu.Unlock()
	// The writeback's chunks, with the arena mutex held throughout: the
	// checkpoint caller excludes tree operations anyway, and holding it
	// keeps a slot from turning dirty between the last chunk and the
	// reset below.
	var leafAt, innerAt int
	for {
		serr := pg.stage(stageChunk, &leafAt, &innerAt)
		if len(pg.staged) == 0 {
			if serr != nil {
				return nil, 0, serr
			}
			break
		}
		written, werr := pg.writeStaged()
		pg.complete(written)
		if werr != nil {
			return nil, 0, werr
		}
		if serr != nil {
			return nil, 0, serr
		}
	}
	delta := 0
	for s, dirty := range pg.ldirty {
		if dirty {
			delta++
			pg.ldirty[s], pg.lflushed[s] = false, false
		}
	}
	for s, dirty := range pg.idirty {
		if dirty {
			delta++
			pg.idirty[s], pg.iflushed[s] = false, false
		}
	}
	return t.pagedMeta(), delta, nil
}

// WritePaged writes a RAM tree's full contents into the file as one
// page per live slot and returns the metadata describing it. The RAM
// tree is left as it was; the pages belong to whichever tree
// OpenPaged opens over the meta (an index's first checkpoint swaps
// that tree in for the RAM one).
func (t *Tree) WritePaged(file *pager.File) (*PagedMeta, error) {
	if t.pg != nil {
		return nil, fmt.Errorf("btree: WritePaged on an already-paged tree")
	}
	freeL := make(map[int32]bool, len(t.freeLeaf))
	for _, s := range t.freeLeaf {
		freeL[s] = true
	}
	freeI := make(map[int32]bool, len(t.freeInner))
	for _, s := range t.freeInner {
		freeI[s] = true
	}
	var page [pager.PayloadSize]byte
	pk, pi := leafColumns(page[:])
	m := t.pagedMeta()
	m.LeafPage = make([]int64, len(t.lnum))
	m.InnerPage = make([]int64, len(t.knum))
	for s := range t.lnum {
		if freeL[int32(s)] {
			m.LeafPage[s] = -1
			continue
		}
		p := file.Alloc()
		copy(pk, t.lkeys(int32(s)))
		copy(pi, t.lids(int32(s)))
		if err := file.WritePage(p, pager.PageLeaf, page[:leafPayload]); err != nil {
			return nil, err
		}
		m.LeafPage[s] = p
	}
	sk, si, kv := innerColumns(page[:])
	for s := range t.knum {
		if freeI[int32(s)] {
			m.InnerPage[s] = -1
			continue
		}
		p := file.Alloc()
		copy(sk, t.skeys(int32(s)))
		copy(si, t.sids(int32(s)))
		copy(kv, t.kidv(int32(s)))
		if err := file.WritePage(p, pager.PageInner, page[:innerPayload]); err != nil {
			return nil, err
		}
		m.InnerPage[s] = p
	}
	return m, nil
}
