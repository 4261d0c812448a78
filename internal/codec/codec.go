// Package codec persists point stores and planar index
// configurations as compact binary snapshots with CRC-32 integrity
// checks, so large φ-materialisations (e.g. millions of
// moving-object pairs) survive process restarts without
// recomputation. The snapshot preserves the store's exact row layout
// — including dead rows and the id recycling order — so point
// identifiers remain stable, which write-ahead-log replay (package
// wal) depends on. Index trees are rebuilt on load, which avoids
// versioning the tree layout: bulk loading radix-sorts each index's
// keys in linear time, and the snapshot is encoded and decoded in
// 64 KiB chunks, so a restore costs a few passes over memory.
package codec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"planar/internal/core"
	"planar/internal/vecmath"
)

// Snapshot is the serialisable state of a point store plus the
// normals/octants of the planar indexes built over it. Data holds
// every allocated row (row-major, dead rows included); Live marks
// which rows hold points; Free is the id recycling order.
type Snapshot struct {
	Dim     int
	Data    []float64
	Live    []bool
	Free    []uint32
	Indexes []IndexSpec
}

// IndexSpec records one planar index's configuration.
type IndexSpec struct {
	Normal []float64
	Signs  vecmath.SignPattern
}

const (
	magic   = uint32(0x504c4e52) // "PLNR"
	version = uint32(2)
)

// ErrCorrupt reports a failed checksum or malformed snapshot.
var ErrCorrupt = errors.New("codec: corrupt snapshot")

// NumRows returns the number of allocated rows (live + dead).
func (s *Snapshot) NumRows() int { return len(s.Live) }

// NumLive returns the number of live points.
func (s *Snapshot) NumLive() int {
	n := 0
	for _, lv := range s.Live {
		if lv {
			n++
		}
	}
	return n
}

// Capture builds a Snapshot of a Multi's store layout and index
// configurations.
func Capture(m *core.Multi) *Snapshot {
	s := &Snapshot{Dim: m.Store().Dim()}
	s.Data, s.Live, s.Free = m.Store().Raw()
	for i := 0; i < m.NumIndexes(); i++ {
		ix := m.Index(i)
		s.Indexes = append(s.Indexes, IndexSpec{Normal: ix.Normal(), Signs: ix.Signs()})
	}
	return s
}

// Restore rebuilds a store and Multi from the snapshot. Point ids
// match the captured store exactly. The store adopts the snapshot's
// Data, Live and Free rather than copying them, so the snapshot must
// not be used once Restore has been called. The snapshot's indexes are
// materialised through core.AddNormals, which bulk-loads their
// arenas in parallel — shard recovery restores every partition's
// full index set through this path.
func (s *Snapshot) Restore(opts ...core.MultiOption) (*core.Multi, error) {
	store, err := core.NewPointStoreFromRaw(s.Dim, s.Data, s.Live, s.Free)
	if err != nil {
		return nil, err
	}
	m, err := core.NewMulti(store, opts...)
	if err != nil {
		return nil, err
	}
	specs := make([]core.NormalSpec, len(s.Indexes))
	for i, spec := range s.Indexes {
		specs[i] = core.NormalSpec{Normal: spec.Normal, Signs: spec.Signs}
	}
	if _, err := m.AddNormals(specs); err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return m, nil
}

// chunkSize is the unit the codec encodes, checksums and reads in.
const chunkSize = 64 << 10

// Write serialises the snapshot: magic, then a CRC-protected body of
// version, dim, row/free/index counts, live bitmap, row data, free
// list and index specs, followed by the CRC-32 trailer. It validates
// the whole snapshot before it writes the first byte, and hands w
// chunks of at most chunkSize bytes (the last one plus the trailer).
func (s *Snapshot) Write(w io.Writer) error {
	if s.Dim <= 0 {
		return errors.New("codec: snapshot dimension must be positive")
	}
	if len(s.Data) != len(s.Live)*s.Dim {
		return fmt.Errorf("codec: data has %d values for %d rows of dimension %d",
			len(s.Data), len(s.Live), s.Dim)
	}
	for i, spec := range s.Indexes {
		if len(spec.Normal) != s.Dim || len(spec.Signs) != s.Dim {
			return fmt.Errorf("codec: index %d spec has wrong dimension", i)
		}
	}
	e := &encoder{w: w, buf: make([]byte, 0, chunkSize+4)}
	e.buf = binary.LittleEndian.AppendUint32(e.buf, magic)
	e.skip = 4 // the magic is outside the checksum
	for _, v := range [5]uint32{version, uint32(s.Dim), uint32(len(s.Live)), uint32(len(s.Free)), uint32(len(s.Indexes))} {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	}
	e.each(len(s.Live), 1, func(b []byte, at int) {
		for i, lv := range s.Live[at : at+len(b)] {
			b[i] = 0
			if lv {
				b[i] = 1
			}
		}
	})
	e.floats(s.Data)
	e.each(len(s.Free), 4, func(b []byte, at int) {
		for i, id := range s.Free[at : at+len(b)/4] {
			binary.LittleEndian.PutUint32(b[4*i:], id)
		}
	})
	for _, spec := range s.Indexes {
		e.floats(spec.Normal)
		e.each(len(spec.Signs), 1, func(b []byte, at int) {
			for i, sg := range spec.Signs[at : at+len(b)] {
				b[i] = byte(sg)
			}
		})
	}
	return e.finish()
}

// encoder fills a chunkSize buffer, keeps the running CRC-32 of the
// body and hands each full chunk to w. The first error sticks.
type encoder struct {
	w    io.Writer
	buf  []byte
	skip int // leading bytes of buf outside the checksum (the magic)
	crc  uint32
	err  error
}

// flush checksums the buffered body bytes and writes the buffer.
func (e *encoder) flush() {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf[e.skip:])
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf, e.skip = e.buf[:0], 0
}

// each encodes n values of size bytes: fn fills b with the values
// from index at on, len(b)/size of them, one chunk at a time.
func (e *encoder) each(n, size int, fn func(b []byte, at int)) {
	for at := 0; at < n; {
		if chunkSize-len(e.buf) < size {
			e.flush()
		}
		k := min(n-at, (chunkSize-len(e.buf))/size)
		l := len(e.buf)
		e.buf = e.buf[:l+k*size]
		fn(e.buf[l:], at)
		at += k
	}
}

func (e *encoder) floats(vs []float64) {
	e.each(len(vs), 8, func(b []byte, at int) {
		for i, v := range vs[at : at+len(b)/8] {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
	})
}

// finish checksums the last chunk, appends the trailer unchecksummed
// and writes both.
func (e *encoder) finish() error {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf[e.skip:])
	e.buf = binary.LittleEndian.AppendUint32(e.buf, e.crc)
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	return e.err
}

// Read deserialises and verifies one snapshot. It reads with
// io.ReadFull and consumes exactly the snapshot's bytes, so several
// snapshots can follow each other on one stream. The header's counts
// are not trusted for allocation: rows, free list and index specs grow
// as their bytes arrive, to at most four times what has been read, so
// a corrupt or hostile header costs an error, not the process.
func Read(r io.Reader) (*Snapshot, error) {
	d := &decoder{r: r, buf: make([]byte, chunkSize)}
	if _, err := io.ReadFull(r, d.buf[:4]); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if m := binary.LittleEndian.Uint32(d.buf); m != magic {
		return nil, fmt.Errorf("%w: bad magic %08x", ErrCorrupt, m)
	}
	hdr, err := d.next(20)
	if err != nil {
		return nil, err
	}
	var h [5]uint32
	for i := range h {
		h[i] = binary.LittleEndian.Uint32(hdr[4*i:])
	}
	ver, dim32, nRows, nFree, nIdx := h[0], h[1], h[2], h[3], h[4]
	if ver != version {
		return nil, fmt.Errorf("codec: unsupported version %d", ver)
	}
	const sanity = 1 << 28
	if dim32 == 0 || dim32 > 1<<16 || nRows > sanity || nFree > nRows || nIdx > 1<<16 ||
		uint64(nRows)*uint64(dim32) > math.MaxInt/8 {
		return nil, fmt.Errorf("%w: implausible header (dim=%d rows=%d free=%d idx=%d)",
			ErrCorrupt, dim32, nRows, nFree, nIdx)
	}
	s := &Snapshot{Dim: int(dim32)}
	if err := d.each(int(nRows), 1, func(b []byte) {
		at := len(s.Live)
		s.Live = grow(s.Live, len(b), int(nRows))
		for i, v := range b {
			s.Live[at+i] = v != 0
		}
	}); err != nil {
		return nil, fmt.Errorf("codec: live bitmap: %w", err)
	}
	if s.Data, err = d.floats(int(nRows) * s.Dim); err != nil {
		return nil, fmt.Errorf("codec: row data: %w", err)
	}
	if err := d.each(int(nFree), 4, func(b []byte) {
		at := len(s.Free)
		s.Free = grow(s.Free, len(b)/4, int(nFree))
		for i := range s.Free[at:] {
			s.Free[at+i] = binary.LittleEndian.Uint32(b[4*i:])
		}
	}); err != nil {
		return nil, fmt.Errorf("codec: free list: %w", err)
	}
	for i := uint32(0); i < nIdx; i++ {
		var spec IndexSpec
		if spec.Normal, err = d.floats(s.Dim); err != nil {
			return nil, fmt.Errorf("codec: index %d: %w", i, err)
		}
		b, err := d.next(s.Dim)
		if err != nil {
			return nil, fmt.Errorf("codec: index %d signs: %w", i, err)
		}
		spec.Signs = make(vecmath.SignPattern, s.Dim)
		for j, v := range b {
			spec.Signs[j] = int8(v)
		}
		s.Indexes = append(s.Indexes, spec)
	}
	// The checksum trailer is read past the decoder so it does not
	// hash itself.
	if _, err := io.ReadFull(r, d.buf[:4]); err != nil {
		return nil, fmt.Errorf("codec: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(d.buf); got != d.crc {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x want %08x)", ErrCorrupt, got, d.crc)
	}
	return s, nil
}

// decoder reads a snapshot body in chunks of at most chunkSize bytes
// and keeps their running CRC-32.
type decoder struct {
	r   io.Reader
	buf []byte
	crc uint32
}

// next reads exactly n ≤ chunkSize bytes and checksums them. The
// returned slice is valid until the next call.
func (d *decoder) next(n int) ([]byte, error) {
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, err
	}
	d.crc = crc32.Update(d.crc, crc32.IEEETable, b)
	return b, nil
}

// each reads n values of size bytes, one chunk at a time, and hands
// fn each chunk's bytes.
func (d *decoder) each(n, size int, fn func(b []byte)) error {
	for n > 0 {
		k := min(n, chunkSize/size)
		b, err := d.next(k * size)
		if err != nil {
			return err
		}
		fn(b)
		n -= k
	}
	return nil
}

func (d *decoder) floats(n int) ([]float64, error) {
	var vs []float64
	err := d.each(n, 8, func(b []byte) {
		at := len(vs)
		vs = grow(vs, len(b)/8, n)
		for i := range vs[at:] {
			vs[at+i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	})
	return vs, err
}

// grow extends s by k elements. A full s grows fourfold, but never
// past want, the length the header promises: what the decoder holds
// stays within four times what it has read, and a stream as long as
// its header promises ends in a slice of exactly that capacity.
func grow[E any](s []E, k, want int) []E {
	if l := len(s) + k; l > cap(s) {
		t := make([]E, len(s), min(max(4*cap(s), l), want))
		copy(t, s)
		s = t
	}
	return s[:len(s)+k]
}

// Save writes the snapshot to a file atomically: the bytes land in a
// temp file that is synced and renamed over path, so a crash mid-save
// leaves any previous snapshot intact rather than a torn file.
func (s *Snapshot) Save(path string) error {
	return atomicWriteFile(path, func(f *os.File) error { return s.Write(f) })
}

// Load reads a snapshot from a file.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
