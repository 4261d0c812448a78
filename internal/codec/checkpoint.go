package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"planar/internal/btree"
	"planar/internal/core"
	"planar/internal/pager"
	"planar/internal/vecmath"
)

// Paged checkpoints. Where Snapshot rewrites the whole state as one
// flat file and rebuilds every index tree on load, a PagedStore keeps
// the state inside a pager.File: the point store travels as fixed-size
// data pages plus a small header chain (read eagerly on open — the
// verification kernels need the rows resident), and each index tree is
// checkpointed as one page per node plus a btree.PagedMeta. Opening is
// therefore pread-lazy for the dominant cost: trees come back in
// paged-arena mode with only their slot metadata in RAM, and node
// pages fault through a shared cache on first touch instead of being
// rebuilt with a bulk load.
//
// Checkpoints are incremental. The row array is chunked into fixed
// 510-float data pages tracked by a manifest in the superblock meta;
// the store marks rows dirty as they are appended or overwritten, and
// Checkpoint copy-on-writes only the data pages those rows touch —
// allocate and write the new page first, free the superseded one
// after, so a failed attempt retried later can never free the same
// page twice. The header (live bitmap + free list, ~1 byte/row) is
// small and rewritten every checkpoint as a fresh chain. Index trees
// are delta-flushed: paged trees relocate mutated nodes copy-on-write
// and FlushPaged writes just the epoch's dirty set. A tree built in
// RAM (a fresh store, or an index added since the last checkpoint) is
// written out once at its first checkpoint and from then on lives on
// those pages. Checkpoint cost is therefore proportional to what
// changed, not to the store; marking every row dirty first
// (PointStore.MarkAllDirty) makes it the v1-equivalent full rewrite
// the tests use as oracle.
//
// Page ownership is split three ways. Data pages are owned through
// the manifest and freed individually as they are superseded. Tree
// pages are owned by their tree. Header pages live in the owned list,
// freed when the next checkpoint supersedes them.
//
// Crash safety comes from the pager: nothing here overwrites a page
// reachable from the durable superblock, and Commit publishes the new
// page set atomically. A failed checkpoint leaves the previous one
// bit-identical on disk. The same argument covers the background
// writer a PagedStore can host (StartWriter): it shadow-writes dirty
// tree frames between checkpoints so they become clean and evictable,
// and those pages too are invisible until the superblock flip.

const (
	pagedMagic = uint32(0x504c4e43) // "PLNC"
	// pagedVersion 3 stores each index's key frame (base) after its
	// delta; a version 2 meta has none, and its trees were keyed in
	// the frame of the delta it stores.
	pagedVersion = byte(3)

	// valsPerPage is the float64 capacity of one store data page.
	valsPerPage = pager.PayloadSize / 8
)

// PagedStore is an open paged checkpoint file plus the page cache its
// trees fault through and, optionally, the background writer that
// shadow-flushes dirty tree pages between checkpoints.
//
// Checkpoint/DrainWriteback/Close and the field set
// below are serialised by the owner (service.DB holds its write lock
// or calls before publishing the store); Stats and the writer's flush
// callback are safe concurrently.
type PagedStore struct {
	file  *pager.File
	cache *pager.Cache
	dim   int
	// owned is the header-chain page set of the last committed
	// checkpoint; the next Checkpoint frees it.
	owned []int64
	// dataPages maps data-page index → page number (-1 transiently for
	// pages not yet written). Entry i holds rows' floats
	// [i*valsPerPage, (i+1)*valsPerPage).
	dataPages []int64
	// writer is the optional background page writer; set once by
	// StartWriter before the store is shared.
	writer *pager.Writer

	incrPages atomic.Int64 // pages written by the last checkpoint
	lastCpUs  atomic.Int64 // duration of the last checkpoint, µs
}

// CreatePaged creates a fresh paged checkpoint file for an empty
// dim-dimensional store. cacheBytes sizes the shared page cache (a
// small floor is enforced).
func CreatePaged(path string, dim int, cacheBytes int) (*PagedStore, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("codec: dimension must be positive, got %d", dim)
	}
	meta := encodePagedUserMeta(dim, 0, nil, 0, nil, nil)
	f, err := pager.Create(path, meta, 0)
	if err != nil {
		return nil, err
	}
	return &PagedStore{
		file:  f,
		cache: pager.NewCache(cacheBytes, pager.PayloadSize),
		dim:   dim,
	}, nil
}

// OpenPaged opens an existing paged checkpoint and materialises its
// Multi: the point store is read into RAM, every index is reattached
// with its tree in paged-arena mode. On success the caller owns both
// the returned store (Close it last) and the Multi.
func OpenPaged(path string, cacheBytes int) (*PagedStore, *core.Multi, error) {
	f, err := pager.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ps, m, err := openPagedFile(f, cacheBytes)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return ps, m, nil
}

func openPagedFile(f *pager.File, cacheBytes int) (*PagedStore, *core.Multi, error) {
	dec, err := decodePagedUserMeta(f.Meta())
	if err != nil {
		return nil, nil, err
	}
	store, err := dec.buildStore(f)
	if err != nil {
		return nil, nil, err
	}
	m, err := core.NewMulti(store)
	if err != nil {
		return nil, nil, err
	}
	ps := &PagedStore{
		file:      f,
		cache:     pager.NewCache(cacheBytes, pager.PayloadSize),
		dim:       dec.dim,
		owned:     append([]int64(nil), dec.headerPages...),
		dataPages: append([]int64(nil), dec.dataPages...),
	}
	prebuilt := make([]core.PrebuiltIndex, len(dec.indexes))
	for i, ix := range dec.indexes {
		tree, err := btree.OpenPaged(f, ps.cache, ix.meta)
		if err != nil {
			return nil, nil, fmt.Errorf("codec: index %d: %w", i, err)
		}
		prebuilt[i] = core.PrebuiltIndex{
			Normal: ix.normal,
			Signs:  ix.signs,
			Delta:  ix.delta,
			Base:   ix.base,
			Tree:   tree,
		}
	}
	if err := m.AttachPrebuilt(prebuilt); err != nil {
		return nil, nil, err
	}
	return ps, m, nil
}

// StartWriter attaches a background page writer to the store: flush
// is invoked off the writer goroutine to shadow-write up to maxPages
// dirty frames (service wires it to Multi.WritebackIndexes), both on
// an interval and whenever the cache's dirty-frame count crosses the
// writer's high-water mark. Call once, before the store is shared;
// Close (or the next Close of the owning service) joins the
// goroutine.
func (ps *PagedStore) StartWriter(opts pager.WriterOptions, flush func(maxPages int) (int, error)) {
	o := opts.Resolved()
	ps.writer = pager.NewWriter(o, flush)
	ps.cache.SetPressure(o.HighWater, ps.writer.Kick)
}

// DrainWriteback synchronously flushes every currently dirty tree
// page through the background writer. Checkpoint callers run it
// *before* taking their write lock so the locked section only handles
// the residual dirtied since. No-op without a writer.
func (ps *PagedStore) DrainWriteback() error {
	if ps.writer == nil {
		return nil
	}
	return ps.writer.Drain()
}

// Checkpoint writes m's changes since the previous checkpoint as the
// file's next durable epoch: data pages touched by dirty rows are
// copy-on-written, the header chain is rewritten, every index tree is
// delta-flushed (a RAM tree is first written out and adopted as a
// paged tree over the store's cache), the superseded pages freed, and
// one atomic pager.Commit carrying lsn publishes it all. From then on
// m's trees live on this store's file, so m must not outlive Close. The
// caller must exclude concurrent mutations of m for the duration; on
// error the previous checkpoint remains the durable state and nothing
// is unmarked, so a retry covers the same delta.
func (ps *PagedStore) Checkpoint(m *core.Multi, lsn uint64) error {
	start := time.Now()
	store := m.Store()
	if store.Dim() != ps.dim {
		return fmt.Errorf("codec: checkpoint dimension %d into a %d-dimensional paged store", store.Dim(), ps.dim)
	}
	dataWritten, err := ps.flushDataPages(store)
	if err != nil {
		return err
	}
	persists, err := m.CheckpointIndexes(ps.file, ps.cache)
	if err != nil {
		return err
	}
	header := encodeStoreHeader(store)
	headerPages, err := ps.writeChain(header)
	if err != nil {
		return err
	}
	data, _ := store.RawRows()
	meta := encodePagedUserMeta(ps.dim, int64(len(data)), ps.dataPages, int64(len(header)), headerPages, persists)

	// Free the superseded page set exactly once: ps.owned is cleared
	// before Commit so a failed commit retried later cannot double-free
	// (the freed pages only become allocatable after a commit succeeds,
	// which also publishes the meta that no longer references them).
	olds := ps.owned
	ps.owned = nil
	for _, p := range olds {
		ps.file.Free(p)
	}
	if err := ps.file.Commit(meta, lsn); err != nil {
		return err
	}
	ps.owned = headerPages
	store.ResetDirty()
	pages := dataWritten + len(headerPages)
	for _, p := range persists {
		pages += p.DeltaPages
	}
	ps.incrPages.Store(int64(pages))
	ps.lastCpUs.Store(time.Since(start).Microseconds())
	return nil
}

// flushDataPages copy-on-writes every data page touched by a dirty
// row (and writes pages the manifest does not cover yet, from store
// growth). New page first, free the old one after: a failed write
// leaves the manifest on the old page and leaks only the fresh
// allocation until reopen, never a double free.
func (ps *PagedStore) flushDataPages(store *core.PointStore) (int, error) {
	data, _ := store.RawRows()
	need := (len(data) + valsPerPage - 1) / valsPerPage
	for len(ps.dataPages) < need {
		ps.dataPages = append(ps.dataPages, -1)
	}
	mark := make([]bool, need)
	dim := ps.dim
	store.EachDirtyRow(func(row int) {
		lo := row * dim / valsPerPage
		hi := ((row+1)*dim - 1) / valsPerPage
		for i := lo; i <= hi && i < need; i++ {
			mark[i] = true
		}
	})
	for i := 0; i < need; i++ {
		if ps.dataPages[i] < 0 {
			mark[i] = true
		}
	}
	written := 0
	var buf [pager.PageSize]byte
	for i := 0; i < need; i++ {
		if !mark[i] {
			continue
		}
		lo := i * valsPerPage
		hi := lo + valsPerPage
		if hi > len(data) {
			hi = len(data)
		}
		b := buf[:8*(hi-lo)]
		for j, v := range data[lo:hi] {
			binary.LittleEndian.PutUint64(b[8*j:], math.Float64bits(v))
		}
		np := ps.file.Alloc()
		if err := ps.file.WritePage(np, pager.PageBlob, b); err != nil {
			return written, err
		}
		if old := ps.dataPages[i]; old >= 0 {
			ps.file.Free(old)
		}
		ps.dataPages[i] = np
		written++
	}
	return written, nil
}

// writeChain chunks blob into freshly allocated PageBlob pages.
func (ps *PagedStore) writeChain(blob []byte) ([]int64, error) {
	var pages []int64
	for off := 0; off < len(blob); off += pager.PayloadSize {
		end := off + pager.PayloadSize
		if end > len(blob) {
			end = len(blob)
		}
		p := ps.file.Alloc()
		if err := ps.file.WritePage(p, pager.PageBlob, blob[off:end]); err != nil {
			return nil, err
		}
		pages = append(pages, p)
	}
	return pages, nil
}

// PageTierStats is the observable state of one paged store: cache and
// writer counters plus file size and the durable checkpoint position.
// Sharded deployments aggregate one per partition with Add.
type PageTierStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Resident      int // frames currently resident
	Target        int // soft cache capacity in frames
	DirtyFrames   int // resident frames awaiting writeback
	DirtySkips    uint64
	SoftOverflows uint64
	Pages         int64
	CheckpointLSN uint64

	WritebackPages   uint64  // pages shadow-written by the background writer
	WritebackBytes   uint64  // bytes ditto
	WritebackErrors  uint64  // writer flush rounds that failed
	IncrementalPages int64   // pages the last checkpoint wrote
	LastCheckpointMs float64 // duration of the last checkpoint
}

// HitRatio returns hits/(hits+misses), or 0 before any access.
func (s PageTierStats) HitRatio() float64 {
	if total := s.Hits + s.Misses; total > 0 {
		return float64(s.Hits) / float64(total)
	}
	return 0
}

// Add merges another store's counters (sizes sum; the checkpoint LSN
// and last-checkpoint duration keep the maximum).
func (s PageTierStats) Add(o PageTierStats) PageTierStats {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Resident += o.Resident
	s.Target += o.Target
	s.DirtyFrames += o.DirtyFrames
	s.DirtySkips += o.DirtySkips
	s.SoftOverflows += o.SoftOverflows
	s.Pages += o.Pages
	if o.CheckpointLSN > s.CheckpointLSN {
		s.CheckpointLSN = o.CheckpointLSN
	}
	s.WritebackPages += o.WritebackPages
	s.WritebackBytes += o.WritebackBytes
	s.WritebackErrors += o.WritebackErrors
	s.IncrementalPages += o.IncrementalPages
	if o.LastCheckpointMs > s.LastCheckpointMs {
		s.LastCheckpointMs = o.LastCheckpointMs
	}
	return s
}

// Stats snapshots the store's page-tier counters.
func (ps *PagedStore) Stats() PageTierStats {
	cs := ps.cache.Stats()
	st := PageTierStats{
		Hits:             cs.Hits,
		Misses:           cs.Misses,
		Evictions:        cs.Evictions,
		Resident:         cs.Resident,
		Target:           cs.Target,
		DirtyFrames:      cs.DirtyFrames,
		DirtySkips:       cs.DirtySkips,
		SoftOverflows:    cs.SoftOverflows,
		Pages:            ps.file.NumPages(),
		CheckpointLSN:    ps.file.CheckpointLSN(),
		IncrementalPages: ps.incrPages.Load(),
		LastCheckpointMs: float64(ps.lastCpUs.Load()) / 1000,
	}
	if ps.writer != nil {
		ws := ps.writer.Stats()
		st.WritebackPages = ws.Pages
		st.WritebackBytes = ws.Bytes
		st.WritebackErrors = ws.Errors
	}
	return st
}

// Cache returns the shared page cache (trees opened from this store
// fault through it).
func (ps *PagedStore) Cache() *pager.Cache { return ps.cache }

// CacheStats returns the page cache counters.
func (ps *PagedStore) CacheStats() pager.CacheStats { return ps.cache.Stats() }

// CheckpointLSN returns the WAL LSN the durable checkpoint covers;
// replay resumes after it.
func (ps *PagedStore) CheckpointLSN() uint64 { return ps.file.CheckpointLSN() }

// NumPages returns the page-file length in pages.
func (ps *PagedStore) NumPages() int64 { return ps.file.NumPages() }

// Path returns the page file's path.
func (ps *PagedStore) Path() string { return ps.file.Path() }

// Dim returns the store dimensionality recorded in the file.
func (ps *PagedStore) Dim() int { return ps.dim }

// Close stops the background writer (if any), waiting out a
// DrainWriteback in progress, and closes the underlying page file.
// Trees opened from this store, or adopted by its checkpoints, must
// not be used afterwards; a DrainWriteback after Close writes nothing.
func (ps *PagedStore) Close() error {
	if ps.writer != nil {
		ps.writer.Close()
	}
	return ps.file.Close()
}

// ---- store header ----

// encodeStoreHeader serialises everything about the point store
// except the row data (which lives in the data pages): dim, row/free
// counts, live bitmap, free list. Integrity is the pager's per-page
// CRC; the header carries no extra checksum.
func encodeStoreHeader(store *core.PointStore) []byte {
	_, live := store.RawRows()
	free := store.FreeList()
	buf := make([]byte, 0, 12+len(live)+4*len(free))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(store.Dim()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(live)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(free)))
	for _, lv := range live {
		b := byte(0)
		if lv {
			b = 1
		}
		buf = append(buf, b)
	}
	for _, id := range free {
		buf = binary.LittleEndian.AppendUint32(buf, id)
	}
	return buf
}

func decodeStoreHeader(blob []byte, wantDim int) (live []bool, free []uint32, err error) {
	if len(blob) < 12 {
		return nil, nil, fmt.Errorf("%w: store header truncated (%d bytes)", ErrCorrupt, len(blob))
	}
	dim := int(binary.LittleEndian.Uint32(blob[0:]))
	nRows := int(binary.LittleEndian.Uint32(blob[4:]))
	nFree := int(binary.LittleEndian.Uint32(blob[8:]))
	if dim != wantDim {
		return nil, nil, fmt.Errorf("%w: store header dimension %d, meta says %d", ErrCorrupt, dim, wantDim)
	}
	need := 12 + nRows + 4*nFree
	if nRows < 0 || nFree < 0 || len(blob) != need {
		return nil, nil, fmt.Errorf("%w: store header is %d bytes, counts imply %d", ErrCorrupt, len(blob), need)
	}
	live = make([]bool, nRows)
	off := 12
	for i := range live {
		live[i] = blob[off+i] != 0
	}
	off += nRows
	free = make([]uint32, nFree)
	for i := range free {
		free[i] = binary.LittleEndian.Uint32(blob[off:])
		off += 4
	}
	return live, free, nil
}

// ---- user meta ----

type pagedIndexMeta struct {
	normal []float64
	signs  vecmath.SignPattern
	delta  []float64
	base   float64
	meta   *btree.PagedMeta
}

type pagedUserMeta struct {
	dim         int
	dataLen     int64 // float64 count across all data pages
	dataPages   []int64
	headerLen   int64
	headerPages []int64
	indexes     []pagedIndexMeta
}

// readChain reads a page chain written by writeChain back into one
// blob of the given length.
func readChain(f *pager.File, pages []int64, length int64, what string) ([]byte, error) {
	blob := make([]byte, 0, length)
	buf := make([]byte, pager.PayloadSize)
	remaining := length
	for _, p := range pages {
		typ, err := f.ReadPage(p, buf)
		if err != nil {
			return nil, fmt.Errorf("codec: %s page %d: %w", what, p, err)
		}
		if typ != pager.PageBlob {
			return nil, fmt.Errorf("%w: %s page %d has type %d", ErrCorrupt, what, p, typ)
		}
		n := int64(pager.PayloadSize)
		if n > remaining {
			n = remaining
		}
		blob = append(blob, buf[:n]...)
		remaining -= n
	}
	if remaining != 0 {
		return nil, fmt.Errorf("%w: %s pages cover %d of %d bytes", ErrCorrupt, what, length-remaining, length)
	}
	return blob, nil
}

// buildStore reads the header chain and data pages and reconstructs
// the point store.
func (d *pagedUserMeta) buildStore(f *pager.File) (*core.PointStore, error) {
	if len(d.headerPages) == 0 && d.headerLen == 0 && d.dataLen == 0 {
		return core.NewPointStore(d.dim)
	}
	header, err := readChain(f, d.headerPages, d.headerLen, "store header")
	if err != nil {
		return nil, err
	}
	live, free, err := decodeStoreHeader(header, d.dim)
	if err != nil {
		return nil, err
	}
	if d.dataLen != int64(len(live))*int64(d.dim) {
		return nil, fmt.Errorf("%w: data length %d does not match %d rows of dimension %d", ErrCorrupt, d.dataLen, len(live), d.dim)
	}
	wantPages := int((d.dataLen + valsPerPage - 1) / valsPerPage)
	if len(d.dataPages) != wantPages {
		return nil, fmt.Errorf("%w: manifest has %d data pages, %d floats need %d", ErrCorrupt, len(d.dataPages), d.dataLen, wantPages)
	}
	data := make([]float64, d.dataLen)
	buf := make([]byte, pager.PayloadSize)
	for i, p := range d.dataPages {
		typ, err := f.ReadPage(p, buf)
		if err != nil {
			return nil, fmt.Errorf("codec: store data page %d (#%d): %w", p, i, err)
		}
		if typ != pager.PageBlob {
			return nil, fmt.Errorf("%w: store data page %d has type %d", ErrCorrupt, p, typ)
		}
		lo := i * valsPerPage
		hi := lo + valsPerPage
		if hi > len(data) {
			hi = len(data)
		}
		for j := lo; j < hi; j++ {
			data[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*(j-lo):]))
		}
	}
	store, err := core.NewPointStoreFromRaw(d.dim, data, live, free)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return store, nil
}

func encodePagedUserMeta(dim int, dataLen int64, dataPages []int64, headerLen int64, headerPages []int64, persists []core.IndexPersist) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, pagedMagic)
	buf = append(buf, pagedVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(dim))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(dataLen))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(headerLen))
	app64 := func(s []int64) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		for _, p := range s {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p))
		}
	}
	app64(dataPages)
	app64(headerPages)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(persists)))
	for _, ix := range persists {
		for _, v := range ix.Normal {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		for _, s := range ix.Signs {
			buf = append(buf, byte(s))
		}
		for _, v := range ix.Delta {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ix.Base))
		mb := ix.Meta.AppendTo(nil)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(mb)))
		buf = append(buf, mb...)
	}
	return buf
}

func decodePagedUserMeta(buf []byte) (*pagedUserMeta, error) {
	if len(buf) < 25 {
		return nil, fmt.Errorf("%w: paged meta truncated (%d bytes)", ErrCorrupt, len(buf))
	}
	if m := binary.LittleEndian.Uint32(buf); m != pagedMagic {
		return nil, fmt.Errorf("%w: bad paged meta magic %08x", ErrCorrupt, m)
	}
	version := buf[4]
	if version != 2 && version != pagedVersion {
		return nil, fmt.Errorf("codec: unsupported paged meta version %d", version)
	}
	d := &pagedUserMeta{
		dim:       int(binary.LittleEndian.Uint32(buf[5:])),
		dataLen:   int64(binary.LittleEndian.Uint64(buf[9:])),
		headerLen: int64(binary.LittleEndian.Uint64(buf[17:])),
	}
	if d.dim <= 0 || d.dim > 1<<16 || d.dataLen < 0 || d.headerLen < 0 {
		return nil, fmt.Errorf("%w: implausible paged meta (dim=%d dataLen=%d headerLen=%d)", ErrCorrupt, d.dim, d.dataLen, d.headerLen)
	}
	rest := buf[25:]
	take := func(n int, what string) ([]byte, error) {
		if n < 0 || len(rest) < n {
			return nil, fmt.Errorf("%w: paged meta %s overruns blob", ErrCorrupt, what)
		}
		b := rest[:n]
		rest = rest[n:]
		return b, nil
	}
	take64 := func(what string) ([]int64, error) {
		b, err := take(4, what+" count")
		if err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint32(b))
		if b, err = take(8*n, what+" list"); err != nil {
			return nil, err
		}
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
		return s, nil
	}
	var err error
	if d.dataPages, err = take64("data page"); err != nil {
		return nil, err
	}
	if d.headerPages, err = take64("header page"); err != nil {
		return nil, err
	}
	b, err := take(4, "index count")
	if err != nil {
		return nil, err
	}
	nIdx := int(binary.LittleEndian.Uint32(b))
	if nIdx > 1<<16 {
		return nil, fmt.Errorf("%w: implausible index count %d", ErrCorrupt, nIdx)
	}
	d.indexes = make([]pagedIndexMeta, nIdx)
	for i := range d.indexes {
		ix := &d.indexes[i]
		if b, err = take(8*d.dim, "index normal"); err != nil {
			return nil, err
		}
		ix.normal = make([]float64, d.dim)
		for j := range ix.normal {
			ix.normal[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		if b, err = take(d.dim, "index signs"); err != nil {
			return nil, err
		}
		ix.signs = make(vecmath.SignPattern, d.dim)
		for j := range ix.signs {
			ix.signs[j] = int8(b[j])
		}
		if b, err = take(8*d.dim, "index delta"); err != nil {
			return nil, err
		}
		ix.delta = make([]float64, d.dim)
		for j := range ix.delta {
			ix.delta[j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
		}
		if version == 2 {
			ix.base = vecmath.Dot(ix.normal, ix.delta)
		} else {
			if b, err = take(8, "index base"); err != nil {
				return nil, err
			}
			ix.base = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		if b, err = take(4, "index meta length"); err != nil {
			return nil, err
		}
		mlen := int(binary.LittleEndian.Uint32(b))
		if b, err = take(mlen, "index tree meta"); err != nil {
			return nil, err
		}
		if ix.meta, err = btree.DecodePagedMeta(b); err != nil {
			return nil, fmt.Errorf("%w: index %d: %v", ErrCorrupt, i, err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: paged meta has %d trailing bytes", ErrCorrupt, len(rest))
	}
	return d, nil
}
