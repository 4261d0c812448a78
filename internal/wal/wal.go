// Package wal implements a write-ahead log for dynamic planar index
// maintenance: every Append/Update/Remove against the point store is
// recorded as a CRC-protected binary record before being applied, so
// a process restart can rebuild the exact store state by replaying
// the log on top of the last snapshot (package codec). Indexes are
// rebuilt from their recorded normals — bulk loading is loglinear,
// which the paper measures as cheap (Figure 13(a)).
//
// Every record carries a log sequence number (LSN) assigned at commit
// time by the owner of the log (package replog). LSNs are global to a
// store, strictly increasing within one segment file, and are the
// cursor currency of the replication subsystem (package replica): a
// replica resumes streaming from its last applied LSN, and a segment
// file's header records the base LSN the segment starts at so an
// empty post-checkpoint segment still pins the sequence.
//
// Segment files are self-describing: a 16-byte header (magic + base
// LSN) followed by records laid out as
//
//	op(1) lsn(8) id(4) n(2) vec(8n) crc(4)
//
// with the CRC-32 covering all preceding bytes of the record. A
// truncated or CRC-broken final record is a torn tail: Open recovers
// by truncating the file back to the last good record, and iteration
// treats it as a clean end of log.
//
// Group commit (package ingest) journals a whole batch as one frame:
//
//	op(1)=batch baseLSN(8) count(2) {op(1) id(4) n(2) vec(8n)}×count crc(4)
//
// Sub-records carry implicit contiguous LSNs baseLSN, baseLSN+1, …
// and share the single trailing CRC, so a batch is atomic on disk by
// construction: a torn or corrupt batch frame fails as one unit and
// recovery truncates the whole batch — a partially fsynced group
// commit can never replay a prefix of its records. Segment iteration
// expands batch frames transparently, so replay and the catch-up feed
// see the same flat record sequence either way.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Op is the kind of a logged mutation.
type Op uint8

const (
	// OpAppend adds a point (the id it received is recorded).
	OpAppend Op = 1
	// OpUpdate replaces a point's φ vector.
	OpUpdate Op = 2
	// OpRemove deletes a point.
	OpRemove Op = 3

	// opBatch frames a group-committed batch of records inside a
	// segment file. It never appears in Record.Op: iteration expands
	// the frame into its constituent mutation records.
	opBatch Op = 4
)

// MaxBatchRecords bounds how many records one batch frame may carry —
// both a sanity cap on decode (a corrupt count cannot allocate
// unboundedly) and the ceiling for the ingest pipeline's batch size.
const MaxBatchRecords = 1 << 12

// Record is one logged mutation. LSN is the commit sequence number;
// ID is shard-local in on-disk segments and global in replication
// streams (the translation happens at the shard boundary).
type Record struct {
	Op  Op
	LSN uint64
	ID  uint32
	Vec []float64 // empty for OpRemove
}

// ErrCorrupt reports a record that failed its checksum; replay stops
// at the last good record (standard torn-write handling).
var ErrCorrupt = errors.New("wal: corrupt record")

// segment header: 8-byte magic, 8-byte little-endian base LSN.
var segmentMagic = [8]byte{'P', 'W', 'A', 'L', '0', '0', '0', '1'}

// HeaderSize is the byte length of a segment file's header; the first
// record starts at this offset.
const HeaderSize = 16

// IsTail reports whether an iteration error marks the (possibly torn)
// end of a segment rather than an I/O failure: clean EOF, a record
// cut short mid-write, or a record that fails its checksum.
func IsTail(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrCorrupt)
}

// EncodeRecord writes one record in the segment wire format, as a
// single Write. The same encoding is used on disk and on the
// replication stream, so the receiver re-verifies the CRC the
// committer computed.
func EncodeRecord(w io.Writer, r Record) error {
	_, err := w.Write(appendRecord(make([]byte, 0, recordSize(len(r.Vec))), r))
	return err
}

// appendRecord appends r's flat frame to dst.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint64(dst, r.LSN)
	dst = binary.LittleEndian.AppendUint32(dst, r.ID)
	dst = appendVec(dst, r.Vec)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// appendVec appends the n(2) vec(8n) tail shared by flat records and
// batch sub-records.
func appendVec(dst []byte, vec []float64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(vec)))
	for _, v := range vec {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeRecord reads one record, re-verifying its CRC. It returns
// io.EOF at a clean boundary, io.ErrUnexpectedEOF for a record cut
// short, and ErrCorrupt for a checksum failure. Batch frames are a
// segment-file construct and report ErrCorrupt here; replication
// streams carry only flat records (use Segment to read a file).
func DecodeRecord(br io.Reader) (Record, error) {
	fr := frameReader{r: br}
	recs, _, err := fr.decode(nil, false)
	if err != nil {
		return Record{}, err
	}
	return recs[0], nil
}

// EncodeBatch writes a batch frame as a single Write: the records
// share one header and one trailing CRC, so the whole group is atomic
// under torn-tail recovery. Records must carry contiguous LSNs
// starting at the frame's base; each is encoded as op(1) id(4) n(2)
// vec(8n) with the LSN left implicit. A rejected batch writes nothing.
func EncodeBatch(w io.Writer, recs []Record) error {
	if err := checkBatch(recs); err != nil {
		return err
	}
	_, err := w.Write(appendBatch(nil, recs))
	return err
}

// checkBatch validates what a batch frame cannot represent: fewer
// than two or too many records, or LSNs that are not contiguous.
func checkBatch(recs []Record) error {
	if len(recs) < 2 {
		return errors.New("wal: batch frame needs at least two records")
	}
	if len(recs) > MaxBatchRecords {
		return fmt.Errorf("wal: batch of %d records exceeds %d", len(recs), MaxBatchRecords)
	}
	base := recs[0].LSN
	for i, r := range recs {
		if r.LSN != base+uint64(i) {
			return fmt.Errorf("wal: batch LSNs not contiguous: record %d has %d, want %d", i, r.LSN, base+uint64(i))
		}
	}
	return nil
}

// appendBatch appends the batch frame of recs, which checkBatch has
// accepted, to dst.
func appendBatch(dst []byte, recs []Record) []byte {
	start := len(dst)
	dst = append(dst, byte(opBatch))
	dst = binary.LittleEndian.AppendUint64(dst, recs[0].LSN)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(recs)))
	for _, r := range recs {
		dst = append(dst, byte(r.Op))
		dst = binary.LittleEndian.AppendUint32(dst, r.ID)
		dst = appendVec(dst, r.Vec)
	}
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// frameReader decodes wire frames from r. It reads each frame's bytes
// into one buffer it keeps between frames, so a frame is checksummed
// in one pass and decoding allocates only the records' vectors.
type frameReader struct {
	r   io.Reader
	buf []byte // the frame being decoded, header to trailing CRC
}

// fill reads the frame's next n bytes and returns them.
func (fr *frameReader) fill(n int) ([]byte, error) {
	at := len(fr.buf)
	fr.buf = append(fr.buf, make([]byte, n)...)
	_, err := io.ReadFull(fr.r, fr.buf[at:])
	return fr.buf[at:], err
}

// decode reads one wire frame — a flat record or (when allowBatch) a
// batch frame — appending the records it carries to dst and returning
// its full on-disk byte length. Errors follow DecodeRecord: io.EOF at
// a clean boundary, io.ErrUnexpectedEOF for a frame cut short,
// ErrCorrupt for a checksum failure or implausible field.
func (fr *frameReader) decode(dst []Record, allowBatch bool) ([]Record, int64, error) {
	fr.buf = fr.buf[:0]
	b, err := fr.fill(1)
	if err != nil {
		return nil, 0, err
	}
	op := Op(b[0])
	if op == opBatch {
		if !allowBatch {
			return nil, 0, ErrCorrupt
		}
		return fr.decodeBatchBody(dst)
	}
	if b, err = fr.fill(12); err != nil {
		return nil, 0, io.ErrUnexpectedEOF
	}
	lsn := binary.LittleEndian.Uint64(b)
	id := binary.LittleEndian.Uint32(b[8:])
	vec, err := fr.decodeVec()
	if err != nil {
		return nil, 0, err
	}
	if err := fr.checkCRC(); err != nil {
		return nil, 0, err
	}
	return append(dst, Record{Op: op, LSN: lsn, ID: id, Vec: vec}), int64(len(fr.buf)), nil
}

// decodeBatchBody reads a batch frame after its op byte. Every short
// read or checksum failure rejects the frame as a unit: the caller
// never sees a prefix of a torn batch.
func (fr *frameReader) decodeBatchBody(dst []Record) ([]Record, int64, error) {
	b, err := fr.fill(10)
	if err != nil {
		return nil, 0, io.ErrUnexpectedEOF
	}
	base := binary.LittleEndian.Uint64(b)
	count := int(binary.LittleEndian.Uint16(b[8:]))
	if count < 2 || count > MaxBatchRecords {
		return nil, 0, ErrCorrupt
	}
	for i := 0; i < count; i++ {
		if b, err = fr.fill(5); err != nil {
			return nil, 0, io.ErrUnexpectedEOF
		}
		op := Op(b[0])
		if op != OpAppend && op != OpUpdate && op != OpRemove {
			return nil, 0, ErrCorrupt
		}
		id := binary.LittleEndian.Uint32(b[1:])
		vec, err := fr.decodeVec()
		if err != nil {
			return nil, 0, err
		}
		dst = append(dst, Record{Op: op, LSN: base + uint64(i), ID: id, Vec: vec})
	}
	if err := fr.checkCRC(); err != nil {
		return nil, 0, err
	}
	return dst, int64(len(fr.buf)), nil
}

// decodeVec reads the n(2) vec(8n) tail shared by flat records and
// batch sub-records.
func (fr *frameReader) decodeVec() ([]float64, error) {
	b, err := fr.fill(2)
	if err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b))
	if n > 1<<12 {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return nil, nil
	}
	if b, err = fr.fill(8 * n); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	vec := make([]float64, n)
	for i := range vec {
		vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return vec, nil
}

// checkCRC reads the trailing checksum and compares it against the
// frame bytes read so far.
func (fr *frameReader) checkCRC() error {
	want := crc32.ChecksumIEEE(fr.buf)
	b, err := fr.fill(4)
	if err != nil {
		return io.ErrUnexpectedEOF
	}
	if binary.LittleEndian.Uint32(b) != want {
		return ErrCorrupt
	}
	return nil
}

// recordSize is the on-disk byte length of a flat record with n
// vector components: op(1) lsn(8) id(4) n(2) vec(8n) crc(4).
func recordSize(n int) int64 { return 19 + 8*int64(n) }

// Writer appends records to a segment file.
type Writer struct {
	f         *os.File
	bw        *bufio.Writer
	dim       int
	base      uint64 // header base LSN
	next      uint64 // lowest LSN the next Append may carry
	recovered int64  // torn-tail bytes truncated by Open (0 if clean)
	scratch   []byte // the frame being appended, reused across appends
}

// Create opens a fresh segment (truncating any existing file) for
// dim-dimensional vectors, starting at base (the first LSN the
// segment may hold; 0 is treated as 1). The header is synced to disk
// immediately so a crash right after a checkpoint cannot lose the
// sequence position.
func Create(path string, dim int, base uint64) (*Writer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("wal: dimension must be positive, got %d", dim)
	}
	if base == 0 {
		base = 1
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var hdr [HeaderSize]byte
	copy(hdr[:8], segmentMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], base)
	if _, err := f.Write(hdr[:]); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &Writer{f: f, bw: bufio.NewWriter(f), dim: dim, base: base, next: base}, nil
}

// Open opens an existing segment for appending, recovering a torn
// tail by truncating the file back to the last good record (the
// truncated byte count is reported by Recovered). A missing file — or
// one so short it cannot even hold a header, which means no record
// was ever committed — is (re)created with base LSN 1.
func Open(path string, dim int) (*Writer, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("wal: dimension must be positive, got %d", dim)
	}
	st, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return Create(path, dim, 1)
	}
	if err != nil {
		return nil, err
	}
	if st.Size() < HeaderSize {
		return Create(path, dim, 1)
	}

	seg, err := OpenSegment(path)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := seg.Next(); err != nil {
			if IsTail(err) {
				break
			}
			return nil, errors.Join(err, seg.Close())
		}
	}
	base, last, end := seg.Base(), seg.LastLSN(), seg.Pos()
	if err := seg.Close(); err != nil {
		return nil, err
	}

	var recovered int64
	if end < st.Size() {
		recovered = st.Size() - end
		if err := os.Truncate(path, end); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	next := base
	if last >= base {
		next = last + 1
	}
	return &Writer{f: f, bw: bufio.NewWriter(f), dim: dim, base: base, next: next, recovered: recovered}, nil
}

// BaseLSN returns the segment's first admissible LSN.
func (w *Writer) BaseLSN() uint64 { return w.base }

// NextLSN returns the lowest LSN the next appended record may carry —
// one past the last record, or the base for an empty segment.
func (w *Writer) NextLSN() uint64 { return w.next }

// Recovered returns how many torn-tail bytes Open truncated, so the
// caller can log the repair; 0 means the segment was clean.
func (w *Writer) Recovered() int64 { return w.recovered }

// Append logs one record. The record must carry an LSN at or above
// NextLSN — per-shard segments hold an increasing subsequence of the
// store-wide LSN space, not necessarily a dense one. The record is
// buffered; call Sync to force it to stable storage.
func (w *Writer) Append(r Record) error {
	if err := w.check(r); err != nil {
		return err
	}
	if r.LSN < w.next {
		return fmt.Errorf("wal: record LSN %d below segment position %d", r.LSN, w.next)
	}
	w.scratch = appendRecord(w.scratch[:0], r)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	w.next = r.LSN + 1
	return nil
}

// check validates a record's op and vector against the segment.
func (w *Writer) check(r Record) error {
	if r.Op != OpAppend && r.Op != OpUpdate && r.Op != OpRemove {
		return fmt.Errorf("wal: unknown op %d", r.Op)
	}
	if r.Op == OpRemove {
		if len(r.Vec) != 0 {
			return errors.New("wal: remove record must not carry a vector")
		}
	} else if len(r.Vec) != w.dim {
		return fmt.Errorf("wal: vector has dimension %d, want %d", len(r.Vec), w.dim)
	}
	return nil
}

// AppendBatch logs a group-committed batch as one frame sharing a
// single CRC, so the whole batch is atomic under torn-tail recovery.
// Records must carry contiguous LSNs starting at or above NextLSN. A
// single record is logged as a plain frame (there is nothing to
// group); an empty batch is a no-op. The batch is validated before
// any byte is buffered, so a rejected batch leaves the log untouched.
// Like Append, the frame is buffered — call Sync to force it to
// stable storage.
func (w *Writer) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if len(recs) == 1 {
		return w.Append(recs[0])
	}
	if err := checkBatch(recs); err != nil {
		return err
	}
	base := recs[0].LSN
	if base < w.next {
		return fmt.Errorf("wal: batch base LSN %d below segment position %d", base, w.next)
	}
	for _, r := range recs {
		if err := w.check(r); err != nil {
			return err
		}
	}
	w.scratch = appendBatch(w.scratch[:0], recs)
	if _, err := w.bw.Write(w.scratch); err != nil {
		return err
	}
	w.next = base + uint64(len(recs))
	return nil
}

// Flush pushes buffered records to the OS without fsyncing — enough
// for a concurrent segment reader (the catch-up feed) to see them.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Sync flushes buffered records and fsyncs the file.
func (w *Writer) Sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes and closes the log. The file is closed even when the
// flush fails, and a close failure after a clean flush is still an
// error: on ext4-style writeback an error surfacing at close is the
// last chance to learn an acknowledged write never hit the disk.
func (w *Writer) Close() error {
	return errors.Join(w.bw.Flush(), w.f.Close())
}

// Segment iterates a segment file's records with byte positions — the
// cursor primitive for recovery (where to truncate a torn tail) and
// for the replication catch-up feed (stream from an offset without
// re-reading the whole file).
type Segment struct {
	f       *os.File
	fr      frameReader
	base    uint64
	pos     int64    // end offset of the last good frame
	last    uint64   // LSN of the last good record (0 before any)
	frame   []Record // the last decoded frame's records, reused across frames
	pending []Record // the part of frame not yet handed out
}

// OpenSegment opens a segment file for iteration, validating its
// header.
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, errors.Join(fmt.Errorf("wal: segment %s: short header: %w", path, ErrCorrupt), f.Close())
	}
	if [8]byte(hdr[:8]) != segmentMagic {
		return nil, errors.Join(fmt.Errorf("wal: segment %s: bad magic: %w", path, ErrCorrupt), f.Close())
	}
	return &Segment{
		f:    f,
		fr:   frameReader{r: bufio.NewReader(f)},
		base: binary.LittleEndian.Uint64(hdr[8:]),
		pos:  HeaderSize,
	}, nil
}

// Base returns the segment's base LSN from its header.
func (s *Segment) Base() uint64 { return s.base }

// Pos returns the byte offset just past the last successfully decoded
// record — the truncation point when the tail is torn.
func (s *Segment) Pos() int64 { return s.pos }

// LastLSN returns the LSN of the last successfully decoded record, or
// 0 if none has been read yet.
func (s *Segment) LastLSN() uint64 { return s.last }

// Next decodes the next record, expanding batch frames into their
// constituent records. It returns io.EOF at a clean end;
// io.ErrUnexpectedEOF or ErrCorrupt mark a torn tail (use IsTail).
// Pos is only advanced past frames that decode successfully — a batch
// frame advances it all at once when its first record is returned, so
// a torn batch never contributes a partial prefix.
func (s *Segment) Next() (Record, error) {
	if len(s.pending) == 0 {
		recs, size, err := s.fr.decode(s.frame[:0], true)
		if err != nil {
			return Record{}, err
		}
		s.pos += size
		s.frame, s.pending = recs, recs
	}
	r := s.pending[0]
	s.pending = s.pending[1:]
	s.last = r.LSN
	return r, nil
}

// Close releases the underlying file.
func (s *Segment) Close() error { return s.f.Close() }

// Replay reads records from path and calls fn for each valid record
// in order. A torn tail (truncated or CRC-broken final record) ends
// the replay as a clean EOF; any earlier corruption is
// indistinguishable from a torn tail and also ends the replay. The
// number of applied records is returned. A missing file — or one too
// short to hold a header — replays zero records.
func Replay(path string, fn func(Record) error) (int, error) {
	seg, err := OpenSegment(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if errors.Is(err, ErrCorrupt) {
		// No full header was ever written: the segment holds no
		// committed records.
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	// Read-only iteration: a close failure here cannot lose data.
	defer func() { _ = seg.Close() }()
	applied := 0
	for {
		r, err := seg.Next()
		if err != nil {
			if IsTail(err) {
				return applied, nil
			}
			return applied, err
		}
		if err := fn(r); err != nil {
			return applied, err
		}
		applied++
	}
}
