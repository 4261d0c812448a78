package btree

import (
	"math"
	"sort"
	"testing"
)

// model is the sorted-slice reference the fuzzer checks the arena
// tree against: a plain ordered []Entry with O(n) operations whose
// correctness is obvious by inspection.
type model struct {
	ents []Entry
}

func (m *model) find(e Entry) (int, bool) {
	i := sort.Search(len(m.ents), func(i int) bool { return !m.ents[i].Less(e) })
	return i, i < len(m.ents) && !e.Less(m.ents[i])
}

func (m *model) insert(e Entry) bool {
	i, ok := m.find(e)
	if ok {
		return false
	}
	m.ents = append(m.ents, Entry{})
	copy(m.ents[i+1:], m.ents[i:])
	m.ents[i] = e
	return true
}

func (m *model) delete(e Entry) bool {
	i, ok := m.find(e)
	if !ok {
		return false
	}
	m.ents = append(m.ents[:i], m.ents[i+1:]...)
	return true
}

func (m *model) rankLE(maxKey float64) int {
	e := Entry{Key: maxKey, ID: ^uint32(0)}
	return sort.Search(len(m.ents), func(i int) bool { return e.Less(m.ents[i]) })
}

func (m *model) ascendRange(lo, hi float64) []Entry {
	if lo > hi {
		return nil
	}
	var out []Entry
	for _, e := range m.ents {
		if e.Key > lo && e.Key <= hi {
			out = append(out, e)
		}
	}
	return out
}

// fuzzKey decodes a byte into a small quantised key space so the
// fuzzer hits duplicate keys, exact re-deletes and boundary ranks
// instead of wandering a continuum.
func fuzzKey(b byte) float64 {
	return float64(int(b)%48-8) / 4
}

// runFuzzOps interprets data as an op stream against both the tree
// and the model, checking answers after every op. Each op consumes
// three bytes: opcode, key byte, id byte.
func runFuzzOps(t *testing.T, data []byte) {
	tr := New()
	var m model
	for len(data) >= 3 {
		op, kb, ib := data[0], data[1], data[2]
		data = data[3:]
		key := fuzzKey(kb)
		id := uint32(ib % 96)
		e := Entry{Key: key, ID: id}
		switch op % 4 {
		case 0: // insert
			got, want := tr.Insert(key, id), m.insert(e)
			if got != want {
				t.Fatalf("Insert(%v): tree %v, model %v", e, got, want)
			}
		case 1: // delete
			got, want := tr.Delete(key, id), m.delete(e)
			if got != want {
				t.Fatalf("Delete(%v): tree %v, model %v", e, got, want)
			}
		case 2: // rank + count probes at the decoded key
			if got, want := tr.RankLE(key), m.rankLE(key); got != want {
				t.Fatalf("RankLE(%v): tree %d, model %d", key, got, want)
			}
			lo := fuzzKey(ib)
			g := tr.CountRange(lo, key)
			w := m.rankLE(key) - m.rankLE(lo)
			if w < 0 || lo > key {
				w = 0
			}
			if g != w {
				t.Fatalf("CountRange(%v,%v): tree %d, model %d", lo, key, g, w)
			}
		case 3: // range scan between the two decoded keys
			lo, hi := fuzzKey(kb), fuzzKey(ib)
			if lo > hi {
				lo, hi = hi, lo
			}
			want := m.ascendRange(lo, hi)
			got := ascendRange(tr, lo, hi)
			if len(got) != len(want) {
				t.Fatalf("RangeChunks(%v,%v): tree %d entries, model %d", lo, hi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("RangeChunks(%v,%v) mismatch at %d: %v vs %v", lo, hi, i, got[i], want[i])
				}
			}
		}
		if tr.Len() != len(m.ents) {
			t.Fatalf("Len: tree %d, model %d", tr.Len(), len(m.ents))
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree after op stream: %v", err)
	}
	got := collect(tr)
	if len(got) != len(m.ents) {
		t.Fatalf("final walk: tree %d entries, model %d", len(got), len(m.ents))
	}
	for i := range got {
		if got[i] != m.ents[i] {
			t.Fatalf("final walk mismatch at %d: %v vs %v", i, got[i], m.ents[i])
		}
	}
}

// seedCorpus returns deterministic op streams that exercise splits,
// merges, borrows and root collapse; both the fuzz target and the
// plain test below replay them, so CI covers them without -fuzz.
func seedCorpus() [][]byte {
	var seeds [][]byte

	// Monotone fill then drain: exercises rightmost-path splits and
	// full root collapse.
	var mono []byte
	for i := 0; i < 400; i++ {
		mono = append(mono, 0, byte(i), byte(i))
	}
	for i := 0; i < 400; i++ {
		mono = append(mono, 1, byte(i), byte(i))
	}
	seeds = append(seeds, mono)

	// Interleaved churn with queries on a tiny key space: maximal
	// duplicate-key pressure.
	var churn []byte
	x := uint32(2463534242)
	for i := 0; i < 2500; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		churn = append(churn, byte(x), byte(x>>8)%7, byte(x>>16)%11)
	}
	seeds = append(seeds, churn)

	// Insert-heavy then delete-heavy waves with range probes between.
	var waves []byte
	x = 88172645
	for w := 0; w < 6; w++ {
		bias := byte(0)
		if w%2 == 1 {
			bias = 1
		}
		for i := 0; i < 500; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			op := byte(x) % 4
			if op < 2 {
				op = bias
			}
			waves = append(waves, op, byte(x>>8), byte(x>>16))
		}
	}
	seeds = append(seeds, waves)

	return seeds
}

// FuzzTreeVsModel is the differential fuzz target: arbitrary op
// streams must keep the arena tree in lockstep with the sorted-slice
// model. Run with `go test -fuzz=FuzzTreeVsModel ./internal/btree`.
func FuzzTreeVsModel(f *testing.F) {
	for _, s := range seedCorpus() {
		f.Add(s)
	}
	f.Add([]byte{0, 1, 2, 1, 1, 2})
	f.Add([]byte{2, 0, 0, 3, 255, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		runFuzzOps(t, data)
	})
}

// TestFuzzSeedCorpus replays the seed corpus as an ordinary test so
// plain `go test` runs the differential harness deterministically.
func TestFuzzSeedCorpus(t *testing.T) {
	for i, s := range seedCorpus() {
		i, s := i, s
		t.Run(string(rune('A'+i)), func(t *testing.T) {
			runFuzzOps(t, s)
		})
	}
}

// TestFuzzHarnessKeySpace sanity-checks the decoder: keys include
// negatives, zero and positives, so sign boundaries get coverage.
func TestFuzzHarnessKeySpace(t *testing.T) {
	sawNeg, sawZero, sawPos := false, false, false
	for b := 0; b < 256; b++ {
		k := fuzzKey(byte(b))
		switch {
		case k < 0:
			sawNeg = true
		case k == 0:
			sawZero = true
		default:
			sawPos = true
		}
		if math.IsNaN(k) || math.IsInf(k, 0) {
			t.Fatalf("fuzzKey(%d) = %v", b, k)
		}
	}
	if !sawNeg || !sawZero || !sawPos {
		t.Fatalf("key space misses a sign class: neg=%v zero=%v pos=%v", sawNeg, sawZero, sawPos)
	}
}
