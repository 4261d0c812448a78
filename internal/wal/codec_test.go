package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"testing"
)

// refEncodeRecord is the reflection-based encoder the append-style
// codec replaced, kept as the reference for the byte format.
func refEncodeRecord(w io.Writer, r Record) {
	h := crc32.NewIEEE()
	out := io.MultiWriter(w, h)
	binary.Write(out, binary.LittleEndian, uint8(r.Op))
	binary.Write(out, binary.LittleEndian, r.LSN)
	binary.Write(out, binary.LittleEndian, r.ID)
	refEncodeVec(out, r.Vec)
	binary.Write(w, binary.LittleEndian, h.Sum32())
}

func refEncodeBatch(w io.Writer, recs []Record) {
	h := crc32.NewIEEE()
	out := io.MultiWriter(w, h)
	binary.Write(out, binary.LittleEndian, uint8(opBatch))
	binary.Write(out, binary.LittleEndian, recs[0].LSN)
	binary.Write(out, binary.LittleEndian, uint16(len(recs)))
	for _, r := range recs {
		binary.Write(out, binary.LittleEndian, uint8(r.Op))
		binary.Write(out, binary.LittleEndian, r.ID)
		refEncodeVec(out, r.Vec)
	}
	binary.Write(w, binary.LittleEndian, h.Sum32())
}

func refEncodeVec(w io.Writer, vec []float64) {
	binary.Write(w, binary.LittleEndian, uint16(len(vec)))
	for _, v := range vec {
		binary.Write(w, binary.LittleEndian, math.Float64bits(v))
	}
}

// TestFrameBytesMatchReference pins the wire format: flat and batch
// frames are byte-identical to the reference encoder's, and decode
// back to the records that went in.
func TestFrameBytesMatchReference(t *testing.T) {
	recs := []Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{0, -0.0, math.Inf(1)}},
		{Op: OpUpdate, LSN: 2, ID: math.MaxUint32, Vec: []float64{math.SmallestNonzeroFloat64, 1e300, -2.5}},
		{Op: OpRemove, LSN: 3, ID: 7},
		{Op: OpAppend, LSN: 4, ID: 9, Vec: []float64{0.1 + 0.2, math.Pi, math.MaxFloat64}},
	}
	var got, want bytes.Buffer
	for _, r := range recs {
		if err := EncodeRecord(&got, r); err != nil {
			t.Fatal(err)
		}
		refEncodeRecord(&want, r)
	}
	if err := EncodeBatch(&got, recs); err != nil {
		t.Fatal(err)
	}
	refEncodeBatch(&want, recs)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("frame bytes differ from the reference encoder\n got %x\nwant %x", got.Bytes(), want.Bytes())
	}

	fr := frameReader{r: &got}
	var decoded []Record
	for frame := 0; frame < len(recs)+1; frame++ {
		out, size, err := fr.decode(nil, true)
		if err != nil {
			t.Fatalf("frame %d: %v", frame, err)
		}
		if frame < len(recs) && size != recordSize(len(recs[frame].Vec)) {
			t.Fatalf("frame %d: size %d, want %d", frame, size, recordSize(len(recs[frame].Vec)))
		}
		decoded = append(decoded, out...)
	}
	if _, _, err := fr.decode(nil, true); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
	if !reflect.DeepEqual(decoded, append(append([]Record(nil), recs...), recs...)) {
		t.Fatalf("decoded %+v", decoded)
	}
}

// TestRejectedBatchWritesNothing: EncodeBatch validates before it
// writes, so a batch refused for non-contiguous LSNs leaves no partial
// frame in the destination.
func TestRejectedBatchWritesNothing(t *testing.T) {
	var buf bytes.Buffer
	bad := []Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1}},
		{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{2}},
		{Op: OpAppend, LSN: 4, ID: 2, Vec: []float64{3}},
	}
	if err := EncodeBatch(&buf, bad); err == nil {
		t.Fatal("gapped batch accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected batch wrote %d bytes", buf.Len())
	}
}

// TestRejectedAppendBatchLeavesLogClean: a batch the writer refuses is
// followed by a good Append, and the log replays exactly the good
// records across a reopen — nothing of the rejected batch reached the
// buffer.
func TestRejectedAppendBatchLeavesLogClean(t *testing.T) {
	path := logPath(t)
	w, err := Create(path, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string][]Record{
		"gapped LSNs": {
			{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{2}},
			{Op: OpAppend, LSN: 3, ID: 2, Vec: []float64{3}},
			{Op: OpAppend, LSN: 5, ID: 3, Vec: []float64{4}},
		},
		"wrong dimension in the last record": {
			{Op: OpAppend, LSN: 2, ID: 1, Vec: []float64{2}},
			{Op: OpAppend, LSN: 3, ID: 2, Vec: []float64{3, 4}},
		},
	} {
		if err := w.AppendBatch(bad); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
	}
	if w.NextLSN() != 2 {
		t.Fatalf("rejected batches moved the position to %d", w.NextLSN())
	}
	if err := w.Append(Record{Op: OpUpdate, LSN: 2, ID: 0, Vec: []float64{9}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w, err = Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Recovered() != 0 || w.NextLSN() != 3 {
		t.Fatalf("reopen: recovered %d bytes, next LSN %d; want 0 and 3", w.Recovered(), w.NextLSN())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Record
	if _, err := Replay(path, func(r Record) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	want := []Record{
		{Op: OpAppend, LSN: 1, ID: 0, Vec: []float64{1}},
		{Op: OpUpdate, LSN: 2, ID: 0, Vec: []float64{9}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %+v, want %+v", got, want)
	}
}

// TestAppendDoesNotAllocate pins the write path's share of the WAL:
// encoding a record into the writer's scratch and buffering it
// allocates nothing once the scratch has grown.
func TestAppendDoesNotAllocate(t *testing.T) {
	w, err := Create(logPath(t), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	lsn := uint64(0)
	vec := []float64{1, 2, 3, 4}
	run := func() {
		lsn++
		if err := w.Append(Record{Op: OpUpdate, LSN: lsn, ID: 3, Vec: vec}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(500, run); allocs != 0 {
		t.Fatalf("Append allocated %v times per run, want 0", allocs)
	}
}
