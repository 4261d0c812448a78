package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"planar/internal/core"
	"planar/internal/vecmath"
)

func buildMulti(t *testing.T, n int) *core.Multi {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	store, err := core.NewPointStore(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		store.Append([]float64{rng.Float64() * 10, rng.Float64()*20 - 10, rng.Float64()})
	}
	m, err := core.NewMulti(store)
	if err != nil {
		t.Fatal(err)
	}
	m.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(3))
	m.AddNormal([]float64{2, 1, 1}, vecmath.SignPattern{1, -1, 1})
	return m
}

func TestRoundTrip(t *testing.T) {
	m := buildMulti(t, 200)
	snap := Capture(m)
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim != 3 || back.NumLive() != 200 || len(back.Indexes) != 2 {
		t.Fatalf("shape: dim=%d live=%d idx=%d", back.Dim, back.NumLive(), len(back.Indexes))
	}
	restored, err := back.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumIndexes() != 2 || restored.Store().Len() != 200 {
		t.Fatal("restore shape wrong")
	}
	// Restored index answers queries identically.
	q := core.Query{A: []float64{1, 2, 3}, B: 20, Op: core.LE}
	a, _, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := restored.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("restored answers %d vs %d", len(b), len(a))
	}
	// Octants preserved.
	if !restored.Index(1).Signs().Equal(vecmath.SignPattern{1, -1, 1}) {
		t.Fatal("sign pattern lost")
	}
}

func TestRoundTripPreservesIDs(t *testing.T) {
	m := buildMulti(t, 100)
	// Punch holes so the id space is sparse and a free list exists.
	for _, id := range []uint32{3, 50, 99, 7} {
		if err := m.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	snap := Capture(m)
	var buf bytes.Buffer
	if err := snap.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := back.Restore()
	if err != nil {
		t.Fatal(err)
	}
	// Live ids and their vectors match exactly.
	m.Store().Each(func(id uint32, v []float64) bool {
		if !restored.Store().Live(id) {
			t.Fatalf("id %d lost", id)
		}
		rv := restored.Store().Vector(id)
		for i := range v {
			if rv[i] != v[i] {
				t.Fatalf("id %d vector mismatch", id)
			}
		}
		return true
	})
	for _, id := range []uint32{3, 50, 99, 7} {
		if restored.Store().Live(id) {
			t.Fatalf("dead id %d restored live", id)
		}
	}
	// Id recycling order is preserved: the next appends on both
	// stores hand out identical ids.
	for i := 0; i < 4; i++ {
		a, err := m.Append([]float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Append([]float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("append %d: original id %d, restored id %d", i, a, b)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	m := buildMulti(t, 50)
	snap := Capture(m)
	path := filepath.Join(t.TempDir(), "snap.plnr")
	if err := snap.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumLive() != 50 {
		t.Fatalf("live=%d", back.NumLive())
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCorruptionDetected(t *testing.T) {
	m := buildMulti(t, 30)
	var buf bytes.Buffer
	if err := Capture(m).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a payload byte.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload corruption: err=%v", err)
	}
	// Bad magic.
	bad = append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("magic corruption: err=%v", err)
	}
	// Truncation.
	if _, err := Read(bytes.NewReader(raw[:len(raw)-7])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := Read(bytes.NewReader(raw[:2])); err == nil {
		t.Fatal("tiny snapshot accepted")
	}
}

func TestWriteValidation(t *testing.T) {
	var buf bytes.Buffer
	s := &Snapshot{Dim: 0}
	if err := s.Write(&buf); err == nil {
		t.Fatal("dim 0 accepted")
	}
	s = &Snapshot{Dim: 2, Data: []float64{1}, Live: []bool{true}}
	if err := s.Write(&buf); err == nil {
		t.Fatal("ragged data accepted")
	}
	s = &Snapshot{Dim: 2, Indexes: []IndexSpec{{Normal: []float64{1}, Signs: vecmath.SignPattern{1, 1}}}}
	if err := s.Write(&buf); err == nil {
		t.Fatal("wrong-dim index spec accepted")
	}
}

// Property: any finite snapshot round-trips bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(rows [][3]float64, normSeed uint8) bool {
		s := &Snapshot{Dim: 3}
		for _, r := range rows {
			for _, v := range r {
				if v != v { // NaN round-trips in bits but breaks ==
					return true
				}
			}
			s.Data = append(s.Data, r[0], r[1], r[2])
			s.Live = append(s.Live, true)
		}
		s.Indexes = append(s.Indexes, IndexSpec{
			Normal: []float64{1 + float64(normSeed), 2, 3},
			Signs:  vecmath.SignPattern{1, -1, 1},
		})
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(back.Data) != len(s.Data) || len(back.Live) != len(s.Live) {
			return false
		}
		for i := range s.Data {
			if back.Data[i] != s.Data[i] {
				return false
			}
		}
		return back.Indexes[0].Signs.Equal(s.Indexes[0].Signs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmptySnapshot(t *testing.T) {
	s := &Snapshot{Dim: 4}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim != 4 || back.NumRows() != 0 || len(back.Indexes) != 0 {
		t.Fatalf("empty snapshot round trip: %+v", back)
	}
}

// hostileHeader is a 24-byte header claiming dim 65 536 and 1 048 576
// rows (512 GiB of row data), followed by 1 MiB of zero bytes: enough
// to pass as the live bitmap, nothing more.
func hostileHeader() []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	for _, v := range []uint32{version, 1 << 16, 1 << 20, 0, 0} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return append(b, make([]byte, 1<<20)...)
}

// TestHostileHeaderIsAnError: Read allocates as bytes arrive, not as
// the header claims, so a header promising far more than the stream
// holds ends in an error instead of an out-of-memory crash.
func TestHostileHeaderIsAnError(t *testing.T) {
	in := hostileHeader()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Read(bytes.NewReader(in)); err == nil {
		t.Fatal("hostile header accepted")
	}
	runtime.ReadMemStats(&after)
	// The live bitmap grows to the 1 MiB that arrived, by doubling.
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("Read allocated %d bytes for a %d-byte stream", got, len(in))
	}
}

// TestReadConsumesOneSnapshot: two snapshots back to back and a
// sentinel behind a plain, unbuffered reader. Both decode, and the
// sentinel is left for the next reader.
func TestReadConsumesOneSnapshot(t *testing.T) {
	a, b := Capture(buildMulti(t, 3000)), Capture(buildMulti(t, 7))
	var buf bytes.Buffer
	for _, s := range []*Snapshot{a, b} {
		if err := s.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	sentinel := []byte("sentinel")
	buf.Write(sentinel)
	r := struct{ io.Reader }{&buf}
	for i, want := range []*Snapshot{a, b} {
		got, err := Read(r)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		if got.NumLive() != want.NumLive() || len(got.Data) != len(want.Data) || len(got.Indexes) != len(want.Indexes) {
			t.Fatalf("snapshot %d: %d live, %d values, %d indexes; want %d, %d, %d", i,
				got.NumLive(), len(got.Data), len(got.Indexes), want.NumLive(), len(want.Data), len(want.Indexes))
		}
		for j := range got.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("snapshot %d: value %d is %v, want %v", i, j, got.Data[j], want.Data[j])
			}
		}
	}
	if rest, _ := io.ReadAll(r); !bytes.Equal(rest, sentinel) {
		t.Fatalf("left %q after two snapshots, want %q", rest, sentinel)
	}
}

// TestWriteRejectsBadSpecBeforeWriting: a spec of the wrong dimension
// is refused before the first byte goes out.
func TestWriteRejectsBadSpecBeforeWriting(t *testing.T) {
	s := Capture(buildMulti(t, 50))
	s.Indexes = append(s.Indexes, IndexSpec{Normal: []float64{1, 2}, Signs: vecmath.SignPattern{1, 1}})
	var buf bytes.Buffer
	if err := s.Write(&buf); err == nil {
		t.Fatal("wrong-dim index spec accepted")
	}
	if buf.Len() != 0 {
		t.Fatalf("Write wrote %d bytes before refusing", buf.Len())
	}
}
