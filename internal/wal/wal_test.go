package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func logPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "wal.log")
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(logPath(t), 0, 1); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := Open(logPath(t), -1); err == nil {
		t.Error("negative dim accepted")
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := logPath(t)
	w, err := Create(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	records := []Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}},
		{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{3, 4}},
		{Op: OpUpdate, LSN: 3, ID: 0, Vec: []float64{5, 6}},
		{Op: OpRemove, LSN: 4, ID: 1},
		{Op: OpAppend, LSN: 5, ID: 1, Vec: []float64{7, 8}},
	}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	n, err := Replay(path, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(records) || len(got) != len(records) {
		t.Fatalf("replayed %d records, want %d", n, len(records))
	}
	for i, r := range records {
		g := got[i]
		if g.Op != r.Op || g.ID != r.ID || g.LSN != r.LSN || len(g.Vec) != len(r.Vec) {
			t.Fatalf("record %d: got %+v want %+v", i, g, r)
		}
		for j := range r.Vec {
			if g.Vec[j] != r.Vec[j] {
				t.Fatalf("record %d vec mismatch", i)
			}
		}
	}
}

func TestAppendValidation(t *testing.T) {
	w, err := Create(logPath(t), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(Record{Op: Op(9), LSN: 1, ID: 0, Vec: []float64{1, 2}}); err == nil {
		t.Error("unknown op accepted")
	}
	if err := w.Append(Record{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1}}); err == nil {
		t.Error("wrong-dim vector accepted")
	}
	if err := w.Append(Record{Op: OpRemove, LSN: 1, ID: 0, Vec: []float64{1, 2}}); err == nil {
		t.Error("remove with vector accepted")
	}
	if err := w.Append(Record{Op: OpAppend, LSN: 0, ID: 0, Vec: []float64{1, 2}}); err == nil {
		t.Error("LSN 0 (below base) accepted")
	}
	if err := w.Append(Record{Op: OpAppend, LSN: 7, ID: 0, Vec: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Op: OpAppend, LSN: 7, ID: 1, Vec: []float64{3, 4}}); err == nil {
		t.Error("repeated LSN accepted")
	}
	if got := w.NextLSN(); got != 8 {
		t.Errorf("NextLSN = %d, want 8", got)
	}
}

func TestReplayMissingFile(t *testing.T) {
	n, err := Replay(filepath.Join(t.TempDir(), "nothing.log"), func(Record) error {
		t.Fatal("callback invoked")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestTornTailStopsReplay(t *testing.T) {
	path := logPath(t)
	w, _ := Create(path, 2, 1)
	w.Append(Record{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}})
	w.Append(Record{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{3, 4}})
	w.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-record: only the first record should replay.
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("torn tail: n=%d err=%v", n, err)
	}

	// Corrupt the second record's payload: same outcome.
	bad := append([]byte(nil), raw...)
	bad[len(bad)-6] ^= 0xFF
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	n, err = Replay(path, func(Record) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("corrupt record: n=%d err=%v", n, err)
	}
}

func TestOpenAppendsToExisting(t *testing.T) {
	path := logPath(t)
	w, _ := Create(path, 1, 1)
	w.Append(Record{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1}})
	w.Close()
	w2, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w2.NextLSN() != 2 {
		t.Fatalf("NextLSN = %d, want 2", w2.NextLSN())
	}
	w2.Append(Record{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{2}})
	w2.Close()
	n, err := Replay(path, func(Record) error { return nil })
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestEmptySegmentKeepsBase(t *testing.T) {
	path := logPath(t)
	w, err := Create(path, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2, err := Open(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.BaseLSN() != 42 || w2.NextLSN() != 42 {
		t.Fatalf("base=%d next=%d, want 42/42", w2.BaseLSN(), w2.NextLSN())
	}
}

func TestSegmentPositions(t *testing.T) {
	path := logPath(t)
	w, _ := Create(path, 2, 1)
	w.Append(Record{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}})
	w.Append(Record{Op: OpRemove, LSN: 2, ID: 0})
	w.Close()

	seg, err := OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Pos() != HeaderSize {
		t.Fatalf("initial pos %d", seg.Pos())
	}
	if _, err := seg.Next(); err != nil {
		t.Fatal(err)
	}
	// op(1) lsn(8) id(4) n(2) vec(16) crc(4) = 35 bytes.
	if seg.Pos() != HeaderSize+35 {
		t.Fatalf("pos after dim-2 append: %d", seg.Pos())
	}
	if _, err := seg.Next(); err != nil {
		t.Fatal(err)
	}
	if seg.Pos() != HeaderSize+35+19 || seg.LastLSN() != 2 {
		t.Fatalf("pos=%d last=%d", seg.Pos(), seg.LastLSN())
	}
	if _, err := seg.Next(); !IsTail(err) {
		t.Fatalf("expected tail, got %v", err)
	}
}

// TestTornTailRecoveryEveryOffset is the torn-write property test: a
// log of k records chopped at every byte offset inside the last
// record must recover exactly k-1 records, truncate the torn bytes,
// and accept new appends at the right LSN.
func TestTornTailRecoveryEveryOffset(t *testing.T) {
	dir := t.TempDir()
	build := func(path string) (lastStart int64, total int64) {
		w, err := Create(path, 2, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := w.Append(Record{Op: OpAppend, LSN: uint64(i + 1), ID: uint32(i), Vec: []float64{float64(i), 1}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Append(Record{Op: OpUpdate, LSN: 5, ID: 2, Vec: []float64{9, 9}}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Records are fixed-size here: 19+8*2 = 35 bytes each.
		return st.Size() - 35, st.Size()
	}

	ref := filepath.Join(dir, "ref.log")
	lastStart, total := build(ref)
	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	for cut := lastStart; cut < total; cut++ {
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := Replay(path, func(Record) error { return nil })
		if err != nil || n != 4 {
			t.Fatalf("cut %d: replayed n=%d err=%v", cut, n, err)
		}
		w, err := Open(path, 2)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		if cut > lastStart && w.Recovered() != cut-lastStart {
			t.Fatalf("cut %d: recovered %d bytes, want %d", cut, w.Recovered(), cut-lastStart)
		}
		if w.NextLSN() != 5 {
			t.Fatalf("cut %d: NextLSN=%d, want 5", cut, w.NextLSN())
		}
		if st, _ := os.Stat(path); st.Size() != lastStart {
			t.Fatalf("cut %d: file not truncated to %d (got %d)", cut, lastStart, st.Size())
		}
		// The log must remain appendable after recovery.
		if err := w.Append(Record{Op: OpRemove, LSN: 5, ID: 0}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		n, err = Replay(path, func(Record) error { return nil })
		if err != nil || n != 5 {
			t.Fatalf("cut %d: post-recovery replay n=%d err=%v", cut, n, err)
		}
	}

	// CRC corruption in the final record: same recovery, every byte.
	for off := lastStart; off < total; off++ {
		path := filepath.Join(dir, "corrupt.log")
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xA5
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := Open(path, 2)
		if err != nil {
			t.Fatalf("corrupt at %d: open: %v", off, err)
		}
		if w.NextLSN() != 5 {
			// Flipping a bit inside the LSN field can still yield a
			// valid-looking record only if the CRC matches, which it
			// cannot; so recovery must always land on LSN 5.
			t.Fatalf("corrupt at %d: NextLSN=%d, want 5", off, w.NextLSN())
		}
		w.Close()
	}
}

func TestAppendBatchReplayRoundTrip(t *testing.T) {
	path := logPath(t)
	w, err := Create(path, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A plain record, a 3-record batch, and a trailing plain record:
	// replay must see one flat sequence with dense LSNs.
	if err := w.Append(Record{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	batch := []Record{
		{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{3, 4}},
		{Op: OpUpdate, LSN: 3, ID: 0, Vec: []float64{5, 6}},
		{Op: OpRemove, LSN: 4, ID: 1},
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if w.NextLSN() != 5 {
		t.Fatalf("NextLSN after batch = %d, want 5", w.NextLSN())
	}
	if err := w.Append(Record{Op: OpAppend, LSN: 5, ID: 1, Vec: []float64{7, 8}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var got []Record
	if _, err := Replay(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}},
		{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{3, 4}},
		{Op: OpUpdate, LSN: 3, ID: 0, Vec: []float64{5, 6}},
		{Op: OpRemove, LSN: 4, ID: 1},
		{Op: OpAppend, LSN: 5, ID: 1, Vec: []float64{7, 8}},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, r := range want {
		g := got[i]
		if g.Op != r.Op || g.ID != r.ID || g.LSN != r.LSN || len(g.Vec) != len(r.Vec) {
			t.Fatalf("record %d: got %+v want %+v", i, g, r)
		}
		for j := range r.Vec {
			if g.Vec[j] != r.Vec[j] {
				t.Fatalf("record %d vec mismatch", i)
			}
		}
	}

	// Reopen lands past the batch and stays appendable.
	w2, err := Open(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NextLSN() != 6 {
		t.Fatalf("reopened NextLSN = %d, want 6", w2.NextLSN())
	}
}

func TestAppendBatchValidation(t *testing.T) {
	w, err := Create(logPath(t), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := w.AppendBatch([]Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}},
		{Op: OpAppend, LSN: 3, ID: 1, Vec: []float64{3, 4}},
	}); err == nil {
		t.Error("gapped batch LSNs accepted")
	}
	if err := w.AppendBatch([]Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}},
		{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{3}},
	}); err == nil {
		t.Error("wrong-dim vector in batch accepted")
	}
	if err := w.AppendBatch([]Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}},
		{Op: Op(9), LSN: 2, ID: 1, Vec: []float64{3, 4}},
	}); err == nil {
		t.Error("unknown op in batch accepted")
	}
	// One-record batches degrade to plain appends: a flat decoder
	// (the replication stream) must be able to read the result.
	if err := w.AppendBatch([]Record{{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}}}); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]Record{
		{Op: OpAppend, LSN: 1, ID: 1, Vec: []float64{1, 2}},
		{Op: OpAppend, LSN: 2, ID: 2, Vec: []float64{3, 4}},
	}); err == nil {
		t.Error("batch base below segment position accepted")
	}
}

// TestTornBatchRecoveryEveryOffset extends the torn-write property to
// group commit: a segment ending in a batch frame chopped (or
// corrupted) at every byte offset inside the frame must either drop
// the whole batch or replay the whole batch — never a prefix.
func TestTornBatchRecoveryEveryOffset(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	w, err := Create(ref, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Two plain records, then a 3-record batch frame at the tail.
	for i := 0; i < 2; i++ {
		if err := w.Append(Record{Op: OpAppend, LSN: uint64(i + 1), ID: uint32(i), Vec: []float64{float64(i), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	batch := []Record{
		{Op: OpAppend, LSN: 3, ID: 2, Vec: []float64{2, 1}},
		{Op: OpUpdate, LSN: 4, ID: 0, Vec: []float64{9, 9}},
		{Op: OpRemove, LSN: 5, ID: 1},
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Frame layout: op(1) base(8) count(2) + append(7+16) + update(7+16)
	// + remove(7) + crc(4).
	frameSize := int64(11 + 23 + 23 + 7 + 4)
	frameStart := int64(len(raw)) - frameSize
	if frameStart != HeaderSize+2*35 {
		t.Fatalf("frame start %d, want %d", frameStart, HeaderSize+2*35)
	}

	check := func(tag string, data []byte, wantN int, wantNext uint64) {
		t.Helper()
		path := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := Replay(path, func(Record) error { return nil })
		if err != nil || n != wantN {
			t.Fatalf("%s: replayed n=%d err=%v, want %d", tag, n, err, wantN)
		}
		w, err := Open(path, 2)
		if err != nil {
			t.Fatalf("%s: open: %v", tag, err)
		}
		if w.NextLSN() != wantNext {
			t.Fatalf("%s: NextLSN=%d, want %d", tag, w.NextLSN(), wantNext)
		}
		w.Close()
	}

	// Chopped anywhere inside the frame: the whole batch drops.
	for cut := frameStart; cut < int64(len(raw)); cut++ {
		check(fmt.Sprintf("cut %d", cut), raw[:cut], 2, 3)
	}
	// Intact frame: the whole batch replays.
	check("intact", raw, 5, 6)
	// A bit flipped anywhere inside the frame: CRC rejects the whole
	// batch as one unit.
	for off := frameStart; off < int64(len(raw)); off++ {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0xA5
		check(fmt.Sprintf("corrupt %d", off), bad, 2, 3)
	}
}

func TestDecodeRecordRejectsBatchFrame(t *testing.T) {
	var buf bytes.Buffer
	recs := []Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1, 2}},
		{Op: OpRemove, LSN: 2, ID: 0},
	}
	if err := EncodeBatch(&buf, recs); err != nil {
		t.Fatal(err)
	}
	// The replication stream carries only flat records; a batch frame
	// arriving there is wire corruption, not something to expand.
	if _, err := DecodeRecord(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeRecord on batch frame: %v, want ErrCorrupt", err)
	}
}
