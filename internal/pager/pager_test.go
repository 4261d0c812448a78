package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func tempFile(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "pages.plnr")
}

func payloadFor(seed byte) []byte {
	p := make([]byte, PayloadSize)
	for i := range p {
		p[i] = seed + byte(i)
	}
	return p
}

func TestCreateOpenRoundtrip(t *testing.T) {
	path := tempFile(t)
	f, err := Create(path, []byte("hello meta"), 42)
	if err != nil {
		t.Fatal(err)
	}
	p1 := f.Alloc()
	p2 := f.Alloc()
	if err := f.WritePage(p1, PageBlob, payloadFor(1)); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePage(p2, PageLeaf, payloadFor(2)); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit([]byte("meta2"), 99); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := string(g.Meta()); got != "meta2" {
		t.Fatalf("meta = %q, want meta2", got)
	}
	if g.CheckpointLSN() != 99 {
		t.Fatalf("cpLSN = %d, want 99", g.CheckpointLSN())
	}
	buf := make([]byte, PayloadSize)
	typ, err := g.ReadPage(p1, buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != PageBlob || !bytes.Equal(buf, payloadFor(1)) {
		t.Fatalf("page %d contents wrong (type %d)", p1, typ)
	}
	typ, err = g.ReadPage(p2, buf)
	if err != nil {
		t.Fatal(err)
	}
	if typ != PageLeaf || !bytes.Equal(buf, payloadFor(2)) {
		t.Fatalf("page %d contents wrong (type %d)", p2, typ)
	}
}

// Freed pages must not be reusable until after the next commit, and
// must be reusable after it.
func TestFreePendingUntilCommit(t *testing.T) {
	path := tempFile(t)
	f, err := Create(path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := f.Alloc()
	if err := f.WritePage(p, PageBlob, payloadFor(7)); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil, 1); err != nil {
		t.Fatal(err)
	}
	f.Free(p)
	seen := map[int64]bool{}
	for i := 0; i < 4; i++ {
		q := f.Alloc()
		if q == p {
			t.Fatalf("freed page %d reallocated before commit", p)
		}
		seen[q] = true
	}
	for q := range seen {
		f.Free(q)
	}
	if err := f.Commit(nil, 2); err != nil {
		t.Fatal(err)
	}
	// All freed pages (p plus the probes) are now allocatable: drain
	// well past the free list and look for p.
	got := map[int64]bool{}
	for i := 0; i < len(seen)+8; i++ {
		got[f.Alloc()] = true
	}
	if !got[p] {
		t.Fatalf("page %d not recycled after commit (got %v)", p, got)
	}
}

func TestChecksumFailureIsLoud(t *testing.T) {
	path := tempFile(t)
	f, err := Create(path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := f.Alloc()
	if err := f.WritePage(p, PageBlob, payloadFor(3)); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[p*PageSize+headerSize+100] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, PayloadSize)
	if _, err := g.ReadPage(p, buf); !errors.Is(err, ErrChecksum) {
		t.Fatalf("ReadPage on corrupted page: err = %v, want ErrChecksum", err)
	}
}

func TestLargeMetaChain(t *testing.T) {
	path := tempFile(t)
	meta := make([]byte, 3*PayloadSize+123)
	for i := range meta {
		meta[i] = byte(i * 31)
	}
	f, err := Create(path, meta, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if !bytes.Equal(g.Meta(), meta) {
		t.Fatal("multi-page meta chain did not round-trip")
	}
	// The next commit must retire the whole old chain: after two
	// commits with empty meta the file stops growing.
	if err := g.Commit(nil, 6); err != nil {
		t.Fatal(err)
	}
	n := g.NumPages()
	for i := 0; i < 6; i++ {
		if err := g.Commit(nil, uint64(7+i)); err != nil {
			t.Fatal(err)
		}
	}
	if g.NumPages() != n {
		t.Fatalf("file grew across empty commits: %d -> %d pages (meta chain leak)", n, g.NumPages())
	}
}

// crashState captures one durable checkpoint of the test file: the
// user meta plus the expected payload of every referenced page. The
// test meta encodes the referenced page list so recovery can verify
// contents from the file alone.
type crashState struct {
	meta  []byte
	pages map[int64]byte // page -> payload seed
}

func encodeCrashMeta(gen byte, pages []int64) []byte {
	b := []byte{gen}
	for _, p := range pages {
		b = binary.LittleEndian.AppendUint64(b, uint64(p))
	}
	return b
}

func decodeCrashMeta(b []byte) (gen byte, pages []int64, ok bool) {
	if len(b) < 1 || (len(b)-1)%8 != 0 {
		return 0, nil, false
	}
	gen = b[0]
	for i := 1; i < len(b); i += 8 {
		pages = append(pages, int64(binary.LittleEndian.Uint64(b[i:])))
	}
	return gen, pages, true
}

// TestCrashRecoveryEveryOffset is the mirror of the WAL torn-tail
// property test for the page file: build a file with two committed
// checkpoints, then for every byte offset (a) truncate the file there
// and (b) flip the byte there, and assert Open either fails loudly or
// recovers a state that is exactly one of the two checkpoints — with
// every page the recovered meta references either reading back its
// exact committed contents or failing with a checksum error. Silent
// garbage is the only forbidden outcome.
func TestCrashRecoveryEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pages.plnr")

	// Checkpoint 1: pages seeded 10,11,12.
	var cp1, cp2 crashState
	f, err := Create(path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeGen := func(f *File, seeds []byte, gen byte) crashState {
		st := crashState{pages: map[int64]byte{}}
		var ids []int64
		for _, s := range seeds {
			p := f.Alloc()
			if err := f.WritePage(p, PageBlob, payloadFor(s)); err != nil {
				t.Fatal(err)
			}
			st.pages[p] = s
			ids = append(ids, p)
		}
		st.meta = encodeCrashMeta(gen, ids)
		if err := f.Commit(st.meta, uint64(gen)); err != nil {
			t.Fatal(err)
		}
		return st
	}
	cp1 = writeGen(f, []byte{10, 11, 12}, 1)
	// Checkpoint 2 rewrites one page copy-on-write style and adds one.
	var firstPage int64
	for p := range cp1.pages {
		firstPage = p
		break
	}
	f.Free(firstPage)
	cp2 = writeGen(f, []byte{20, 21}, 2)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	verify := func(t *testing.T, mutated []byte) {
		t.Helper()
		mpath := filepath.Join(dir, "mut.plnr")
		if err := os.WriteFile(mpath, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(mpath)
		if err != nil {
			// Loud failure is an allowed outcome.
			return
		}
		defer g.Close()
		gen, pages, ok := decodeCrashMeta(g.Meta())
		if !ok {
			t.Fatalf("recovered meta is garbage: %x", g.Meta())
		}
		var want crashState
		switch gen {
		case 1:
			want = cp1
		case 2:
			want = cp2
		default:
			t.Fatalf("recovered unknown generation %d", gen)
		}
		if !bytes.Equal(g.Meta(), want.meta) {
			t.Fatalf("recovered meta differs from checkpoint %d", gen)
		}
		buf := make([]byte, PayloadSize)
		for _, p := range pages {
			typ, err := g.ReadPage(p, buf)
			if err != nil {
				if errors.Is(err, ErrChecksum) || (p+1)*PageSize > int64(len(mutated)) {
					continue // loud, or truncated away: both fine
				}
				t.Fatalf("page %d: unexpected error %v", p, err)
			}
			seed, ok := want.pages[p]
			if !ok {
				t.Fatalf("recovered meta references page %d not in checkpoint %d", p, gen)
			}
			if typ != PageBlob || !bytes.Equal(buf, payloadFor(seed)) {
				t.Fatalf("page %d silently returned wrong contents", p)
			}
		}
	}

	t.Run("truncate", func(t *testing.T) {
		for cut := 0; cut < len(golden); cut += 1 {
			verify(t, golden[:cut])
		}
	})
	t.Run("corrupt", func(t *testing.T) {
		mut := make([]byte, len(golden))
		for off := 0; off < len(golden); off++ {
			copy(mut, golden)
			mut[off] ^= 0x5a
			verify(t, mut)
		}
	})
}

// TestCloseRacesLockFreeIO closes a file while goroutines read and
// write pages without any lock (ReadPage and WritePage take none).
// Under -race this pins that Close never writes state the lock-free
// paths read; after Close both return os.ErrClosed, and a second
// Close is a no-op.
func TestCloseRacesLockFreeIO(t *testing.T) {
	f, err := Create(tempFile(t), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	pages := make([]int64, workers)
	for i := range pages {
		pages[i] = f.Alloc()
		if err := f.WritePage(pages[i], PageBlob, payloadFor(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(page int64, seed byte) {
			<-start
			buf := make([]byte, PayloadSize)
			for {
				werr := f.WritePage(page, PageBlob, payloadFor(seed))
				_, rerr := f.ReadPage(page, buf)
				for _, err := range []error{werr, rerr} {
					if err != nil {
						if errors.Is(err, os.ErrClosed) {
							errs <- nil
						} else {
							errs <- err
						}
						return
					}
				}
			}
		}(pages[i], byte(i))
	}
	close(start)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("I/O racing Close failed with %v, want os.ErrClosed", err)
		}
	}
	if err := f.WritePage(pages[0], PageBlob, payloadFor(9)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("WritePage after Close = %v, want os.ErrClosed", err)
	}
	if _, err := f.ReadPage(pages[0], make([]byte, PayloadSize)); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("ReadPage after Close = %v, want os.ErrClosed", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}
