// Package pager implements the on-disk half of the disk-paged storage
// tier: a checksummed page file with shadow-paging checkpoints, plus a
// sharded pinning page cache (cache.go) that the upper layers fault
// pages through.
//
// # Page file
//
// The file is an array of fixed 4 KiB pages. Pages 0 and 1 hold two
// superblock generations; every other page carries a 16-byte header
// (CRC32C over the rest of the page, a type tag, and a chain pointer
// used by the metadata chain) followed by 4080 payload bytes.
//
// Durability is shadow-paged: between checkpoints nothing referenced
// by the last durable superblock is ever overwritten. Mutators
// allocate replacement pages (Alloc), write them, and Free the old
// ones; Free parks the page in a pending list that becomes
// allocatable only after the next Commit. Commit writes the metadata
// chain (free list + caller metadata) to fresh pages, fsyncs, then
// publishes the new epoch by writing the *inactive* superblock slot
// and fsyncing again. A crash at any byte offset therefore leaves the
// previous superblock — and every page it references — bit-identical
// on disk; Open falls back across the two superblock generations and
// fails loudly (ErrCorrupt/ErrChecksum) when neither verifies. The
// crash property test exercises this at every file offset.
//
// Page payloads are written in native byte order (the file is a
// single-machine store, not an interchange format); the CRC detects
// torn or corrupted pages regardless of endianness.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

const (
	// PageSize is the fixed on-disk page size.
	PageSize = 4096
	// headerSize is the per-page header: crc32c u32, type u8, three
	// reserved bytes, and an int64 chain pointer.
	headerSize = 16
	// PayloadSize is the usable payload per page.
	PayloadSize = PageSize - headerSize

	pagerMagic   = "PLNRPAGE"
	pagerVersion = 1

	// superblockSize is the encoded superblock prefix (the rest of
	// its two pages is zero padding).
	superblockSize = 60
)

// Page type tags. The pager reserves PageMeta for its metadata chain;
// the remaining tags classify caller payloads so a misdirected read
// fails loudly instead of decoding garbage.
const (
	PageMeta  byte = 1
	PageLeaf  byte = 2
	PageInner byte = 3
	PageBlob  byte = 4
)

// Sentinel errors. ErrCorrupt means the file has no recoverable
// superblock/metadata; ErrChecksum means a specific page failed its
// CRC. Both are wrapped with positional detail.
var (
	ErrCorrupt  = errors.New("pager: no valid superblock")
	ErrChecksum = errors.New("pager: page checksum mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is an open page file. Alloc/Free/Commit are guarded by an
// internal mutex; ReadPage and WritePage are lock-free (positional
// I/O on a caller buffer touches none of the mutex-guarded state), so
// concurrent faults from several trees do not serialize on the
// allocator, and a background writeback's page writes never make a
// copy-on-write Alloc or Free wait.
type File struct {
	mu sync.Mutex

	// f is fixed from Open/Create until the File is dropped; Close
	// flips closed instead of clearing it, so the lock-free ReadPage
	// and WritePage never race with Close.
	f      *os.File
	closed atomic.Bool
	path   string

	epoch    uint64  // guarded by mu
	slot     int     // guarded by mu; superblock slot holding the current epoch (0 or 1)
	nPages   int64   // guarded by mu; allocation high-water mark, including the 2 superblocks
	cpLSN    uint64  // guarded by mu
	meta     []byte  // guarded by mu; caller metadata from the last commit
	metaPage []int64 // guarded by mu

	freeList    []int64 // guarded by mu; unreferenced by the durable checkpoint: writable now
	pendingFree []int64 // guarded by mu; freed this epoch but still referenced: writable after Commit
}

type superblock struct {
	epoch    uint64
	nPages   int64
	metaRoot int64
	metaLen  uint32
	cpLSN    uint64
}

func encodeSuperblock(buf []byte, sb superblock) {
	for i := range buf {
		buf[i] = 0
	}
	copy(buf[0:8], pagerMagic)
	binary.LittleEndian.PutUint32(buf[8:12], pagerVersion)
	binary.LittleEndian.PutUint32(buf[12:16], PageSize)
	binary.LittleEndian.PutUint64(buf[16:24], sb.epoch)
	binary.LittleEndian.PutUint64(buf[24:32], uint64(sb.nPages))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(sb.metaRoot))
	binary.LittleEndian.PutUint32(buf[40:44], sb.metaLen)
	binary.LittleEndian.PutUint64(buf[44:52], sb.cpLSN)
	crc := crc32.Checksum(buf[0:superblockSize-8], castagnoli)
	binary.LittleEndian.PutUint32(buf[superblockSize-8:superblockSize-4], crc)
}

func decodeSuperblock(buf []byte) (superblock, bool) {
	var sb superblock
	if len(buf) < superblockSize {
		return sb, false
	}
	if string(buf[0:8]) != pagerMagic {
		return sb, false
	}
	if binary.LittleEndian.Uint32(buf[8:12]) != pagerVersion {
		return sb, false
	}
	if binary.LittleEndian.Uint32(buf[12:16]) != PageSize {
		return sb, false
	}
	crc := crc32.Checksum(buf[0:superblockSize-8], castagnoli)
	if crc != binary.LittleEndian.Uint32(buf[superblockSize-8:superblockSize-4]) {
		return sb, false
	}
	sb.epoch = binary.LittleEndian.Uint64(buf[16:24])
	sb.nPages = int64(binary.LittleEndian.Uint64(buf[24:32]))
	sb.metaRoot = int64(binary.LittleEndian.Uint64(buf[32:40]))
	sb.metaLen = binary.LittleEndian.Uint32(buf[40:44])
	sb.cpLSN = binary.LittleEndian.Uint64(buf[44:52])
	if sb.nPages < 2 {
		return sb, false
	}
	return sb, true
}

// Create builds a fresh page file at path whose first checkpoint
// (epoch 1, the given metadata and LSN) is already durable. The file
// is assembled under a temporary name and renamed into place with a
// directory fsync, so a crash mid-create leaves either no file or a
// complete one — never a torn superblock at the live path.
func Create(path string, userMeta []byte, cpLSN uint64) (*File, error) {
	tmp := path + ".tmp"
	osf, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	f := &File{
		f:      osf,
		path:   path,
		epoch:  0,
		slot:   1, // first Commit writes slot 0
		nPages: 2,
	}
	if err := f.commitLocked(userMeta, cpLSN); err != nil {
		err = errors.Join(err, osf.Close(), os.Remove(tmp))
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, errors.Join(err, osf.Close())
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return nil, errors.Join(err, osf.Close())
	}
	return f, nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	return errors.Join(err, d.Close())
}

// Open opens an existing page file, picking the newest superblock
// whose metadata chain verifies and falling back to the older
// generation otherwise. It returns ErrCorrupt (wrapped) when neither
// generation is recoverable.
func Open(path string) (*File, error) {
	osf, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	f := &File{f: osf, path: path}
	if err := f.recover(); err != nil {
		return nil, errors.Join(err, osf.Close())
	}
	return f, nil
}

// recover runs from Open before the File is published to any other
// goroutine, so it initialises mu-guarded fields without the lock.
//
//planar:locked
func (f *File) recover() error {
	var buf [2 * PageSize]byte
	n, err := f.f.ReadAt(buf[:], 0)
	if err != nil && n < 2*PageSize {
		return fmt.Errorf("%w: short superblock region (%d bytes): %v", ErrCorrupt, n, err)
	}
	type cand struct {
		sb   superblock
		slot int
	}
	var cands []cand
	for slot := 0; slot < 2; slot++ {
		if sb, ok := decodeSuperblock(buf[slot*PageSize:]); ok {
			cands = append(cands, cand{sb, slot})
		}
	}
	if len(cands) == 2 && cands[0].sb.epoch < cands[1].sb.epoch {
		cands[0], cands[1] = cands[1], cands[0]
	}
	var firstErr error
	for _, c := range cands {
		meta, pages, err := f.readMetaChain(c.sb)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		free, user, err := decodeMetaBlob(meta)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		f.epoch = c.sb.epoch
		f.slot = c.slot
		f.nPages = c.sb.nPages
		f.cpLSN = c.sb.cpLSN
		f.meta = user
		f.metaPage = pages
		f.freeList = free
		f.pendingFree = nil
		return nil
	}
	if firstErr != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, firstErr)
	}
	return ErrCorrupt
}

// readMetaChain walks the metadata chain rooted at sb.metaRoot and
// returns the concatenated blob plus the chain's page numbers.
func (f *File) readMetaChain(sb superblock) ([]byte, []int64, error) {
	if sb.metaRoot < 0 {
		if sb.metaLen != 0 {
			return nil, nil, fmt.Errorf("pager: superblock epoch %d has no meta root but %d meta bytes", sb.epoch, sb.metaLen)
		}
		return nil, nil, nil
	}
	// Walk to the chain terminator, not just to metaLen: a chain can
	// carry zero-padding tail pages (the commit sizes it before the
	// final free list is known) and those must be tracked so the next
	// commit retires them.
	blob := make([]byte, 0, sb.metaLen+PayloadSize)
	var pages []int64
	var buf [PageSize]byte
	for page := sb.metaRoot; page != -1; {
		if page < 2 || page >= sb.nPages {
			return nil, nil, fmt.Errorf("pager: meta chain page %d out of range [2,%d)", page, sb.nPages)
		}
		if int64(len(pages)) >= sb.nPages {
			return nil, nil, fmt.Errorf("pager: meta chain cycle at page %d", page)
		}
		typ, next, err := f.readPageInto(page, buf[:])
		if err != nil {
			return nil, nil, err
		}
		if typ != PageMeta {
			return nil, nil, fmt.Errorf("pager: meta chain page %d has type %d", page, typ)
		}
		pages = append(pages, page)
		blob = append(blob, buf[headerSize:]...)
		page = next
	}
	if len(blob) < int(sb.metaLen) {
		return nil, nil, fmt.Errorf("pager: meta chain holds %d bytes, superblock says %d", len(blob), sb.metaLen)
	}
	return blob[:sb.metaLen], pages, nil
}

// encodeMetaBlob serializes the post-commit free list plus the caller
// metadata.
func encodeMetaBlob(free []int64, user []byte) []byte {
	blob := make([]byte, 0, 4+8*len(free)+4+len(user))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(free)))
	for _, p := range free {
		blob = binary.LittleEndian.AppendUint64(blob, uint64(p))
	}
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(user)))
	blob = append(blob, user...)
	return blob
}

func decodeMetaBlob(blob []byte) (free []int64, user []byte, err error) {
	if len(blob) == 0 {
		return nil, nil, nil
	}
	if len(blob) < 4 {
		return nil, nil, fmt.Errorf("pager: meta blob truncated (%d bytes)", len(blob))
	}
	nf := int(binary.LittleEndian.Uint32(blob))
	blob = blob[4:]
	if len(blob) < 8*nf+4 {
		return nil, nil, fmt.Errorf("pager: meta blob truncated (free list wants %d entries)", nf)
	}
	free = make([]int64, nf)
	for i := range free {
		free[i] = int64(binary.LittleEndian.Uint64(blob[8*i:]))
	}
	blob = blob[8*nf:]
	nu := int(binary.LittleEndian.Uint32(blob))
	blob = blob[4:]
	if len(blob) != nu {
		return nil, nil, fmt.Errorf("pager: meta blob has %d user bytes, header says %d", len(blob), nu)
	}
	return free, blob, nil
}

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Meta returns the caller metadata recorded by the last durable
// commit. The slice must not be modified.
func (f *File) Meta() []byte {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta
}

// CheckpointLSN returns the LSN recorded by the last durable commit.
func (f *File) CheckpointLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cpLSN
}

// NumPages returns the allocation high-water mark in pages, including
// the two superblocks.
func (f *File) NumPages() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nPages
}

// Alloc returns a page number that is safe to write before the next
// Commit: either a recycled page the durable checkpoint no longer
// references, or a fresh page past the end of the file.
func (f *File) Alloc() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.allocLocked()
}

func (f *File) allocLocked() int64 {
	if n := len(f.freeList); n > 0 {
		p := f.freeList[n-1]
		f.freeList = f.freeList[:n-1]
		return p
	}
	p := f.nPages
	f.nPages++
	return p
}

// Free releases a page. Because the durable checkpoint may still
// reference it, the page joins the pending list and only becomes
// allocatable after the next Commit.
func (f *File) Free(page int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pendingFree = append(f.pendingFree, page)
}

// WritePage writes a payload (at most PayloadSize bytes; shorter
// payloads are zero-padded) to the given page with the given type
// tag. The write is not synced; Commit's fsync covers it. It is safe
// for concurrent use and takes no lock: callers own the page they
// write (Alloc handed it out), so no other state needs guarding.
func (f *File) WritePage(page int64, typ byte, payload []byte) error {
	return f.writePage(page, typ, -1, payload)
}

func (f *File) writePage(page int64, typ byte, next int64, payload []byte) error {
	if f.closed.Load() {
		return fmt.Errorf("pager: write page %d: %w", page, os.ErrClosed)
	}
	if len(payload) > PayloadSize {
		return fmt.Errorf("pager: payload %d exceeds page payload %d", len(payload), PayloadSize)
	}
	if page < 2 {
		return fmt.Errorf("pager: write to reserved page %d", page)
	}
	var buf [PageSize]byte
	buf[4] = typ
	binary.LittleEndian.PutUint64(buf[8:16], uint64(next))
	copy(buf[headerSize:], payload)
	crc := crc32.Checksum(buf[4:], castagnoli)
	binary.LittleEndian.PutUint32(buf[0:4], crc)
	_, err := f.f.WriteAt(buf[:], page*PageSize)
	return err
}

// ReadPage reads the page's payload into buf (which must hold at
// least PayloadSize bytes), verifying the checksum, and returns the
// page's type tag. It is safe for concurrent use.
func (f *File) ReadPage(page int64, buf []byte) (byte, error) {
	var pb [PageSize]byte
	typ, _, err := f.readPageInto(page, pb[:])
	if err != nil {
		return 0, err
	}
	copy(buf, pb[headerSize:])
	return typ, nil
}

func (f *File) readPageInto(page int64, buf []byte) (typ byte, next int64, err error) {
	if page < 2 {
		return 0, 0, fmt.Errorf("pager: read of reserved page %d", page)
	}
	if f.closed.Load() {
		return 0, 0, fmt.Errorf("pager: read page %d: %w", page, os.ErrClosed)
	}
	if _, err := f.f.ReadAt(buf[:PageSize], page*PageSize); err != nil {
		return 0, 0, fmt.Errorf("pager: read page %d: %w", page, err)
	}
	crc := crc32.Checksum(buf[4:PageSize], castagnoli)
	if crc != binary.LittleEndian.Uint32(buf[0:4]) {
		return 0, 0, fmt.Errorf("%w: page %d", ErrChecksum, page)
	}
	return buf[4], int64(binary.LittleEndian.Uint64(buf[8:16])), nil
}

// Commit durably publishes the current state: it writes the metadata
// chain (post-commit free list + userMeta) to freshly allocated
// pages, fsyncs all page writes since the last commit, flips the
// inactive superblock slot to the new epoch, and fsyncs again. After
// Commit returns, pages freed before the call are allocatable.
func (f *File) Commit(userMeta []byte, cpLSN uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.commitLocked(userMeta, cpLSN)
}

func (f *File) commitLocked(userMeta []byte, cpLSN uint64) error {
	// Retire the old metadata chain; the new one must not reuse its
	// pages before the superblock flip, and Alloc only serves the
	// free list, so parking them in pendingFree is enough.
	f.pendingFree = append(f.pendingFree, f.metaPage...)
	f.metaPage = nil

	// The blob embeds the post-commit free list, but allocating the
	// chain's own pages can shrink the current free list. Size the
	// chain for the worst case, allocate, then encode the final
	// lists; the blob can only have shrunk, so it still fits.
	worst := 4 + 8*(len(f.freeList)+len(f.pendingFree)) + 4 + len(userMeta)
	nChain := (worst + PayloadSize - 1) / PayloadSize
	chain := make([]int64, nChain)
	for i := range chain {
		chain[i] = f.allocLocked()
	}
	nextFree := make([]int64, 0, len(f.freeList)+len(f.pendingFree))
	nextFree = append(nextFree, f.freeList...)
	nextFree = append(nextFree, f.pendingFree...)
	blob := encodeMetaBlob(nextFree, userMeta)

	for i, page := range chain {
		next := int64(-1)
		if i+1 < len(chain) {
			next = chain[i+1]
		}
		lo := i * PayloadSize
		hi := lo + PayloadSize
		if hi > len(blob) {
			hi = len(blob)
		}
		var payload []byte
		if lo < len(blob) {
			payload = blob[lo:hi]
		}
		if err := f.writePage(page, PageMeta, next, payload); err != nil {
			return err
		}
	}
	if err := f.f.Sync(); err != nil {
		return err
	}

	sb := superblock{
		epoch:  f.epoch + 1,
		nPages: f.nPages,
		cpLSN:  cpLSN,
	}
	sb.metaRoot = -1
	if len(chain) > 0 {
		sb.metaRoot = chain[0]
	}
	sb.metaLen = uint32(len(blob))
	var sbuf [PageSize]byte
	encodeSuperblock(sbuf[:], sb)
	slot := 1 - f.slot
	if _, err := f.f.WriteAt(sbuf[:], int64(slot)*PageSize); err != nil {
		return err
	}
	if err := f.f.Sync(); err != nil {
		return err
	}

	f.epoch = sb.epoch
	f.slot = slot
	f.cpLSN = cpLSN
	f.meta = append([]byte(nil), userMeta...)
	f.metaPage = chain
	f.freeList = nextFree
	f.pendingFree = nil
	return nil
}

// Close closes the file without committing: in-memory state that was
// never committed is discarded, and the next Open recovers the last
// durable checkpoint. Idempotent; it waits for an in-flight Commit,
// and a ReadPage or WritePage racing with or following it returns an
// error wrapping os.ErrClosed.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Swap(true) {
		return nil
	}
	return f.f.Close()
}
