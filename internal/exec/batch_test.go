package exec

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"planar/internal/btree"
	"planar/internal/kernel"
	"planar/internal/vecmath"
)

// packSource upgrades a classic test source to a batched one: the
// points are flattened into a row-major Rows array (with optional
// dead rows), which is all the batched engine needs — the key column
// is read straight out of each tree's leaf arena.
func packSource(points [][]float64, infos []IndexInfo, live []bool) *Source {
	src := makeSource(points, infos)
	d := 0
	if len(points) > 0 {
		d = len(points[0])
	}
	rows := make([]float64, 0, len(points)*d)
	for _, v := range points {
		rows = append(rows, v...)
	}
	if live == nil {
		live = make([]bool, len(points))
		for i := range live {
			live[i] = true
		}
	}
	src.Rows = rows
	src.RowLive = live
	src.RowDim = d
	return src
}

// rowless is src without its row view: the same indexes and points,
// answered by the scalar reference walks.
func rowless(src *Source) *Source {
	ref := *src
	ref.Rows = nil
	return &ref
}

// TestBatchedMatchesTreeWalk is the engine's golden identity at the
// exec layer: for random indexes and queries the batched path, the
// row-less tree walk, and brute force must report the same id set and
// a consistent interval partition.
func TestBatchedMatchesTreeWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 150; trial++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(900)
		points := randPoints(rng, n, d)

		signs := make(vecmath.SignPattern, d)
		a := make([]float64, d)
		normal := make([]float64, d)
		for i := 0; i < d; i++ {
			if rng.Intn(2) == 0 {
				signs[i] = 1
			} else {
				signs[i] = -1
			}
			a[i] = float64(signs[i]) * rng.Float64() * 5
			normal[i] = 0.5 + rng.Float64()*3
		}
		if trial%5 == 0 {
			a[rng.Intn(d)] = 0
		}
		q := Query{A: a, B: (rng.Float64() - 0.4) * 400}

		infos := []IndexInfo{buildInfo(points, normal, signs)}
		src := packSource(points, infos, nil)

		var batched, walked IDSink
		stB, err := Run(src, q, &batched)
		if err != nil {
			t.Fatal(err)
		}
		stW, err := Run(rowless(src), q, &walked)
		if err != nil {
			t.Fatal(err)
		}

		want := sortedCopy(bruteIDs(points, q))
		if !equalIDs(sortedCopy(batched.IDs), want) {
			t.Fatalf("trial %d: batched ids differ from brute force", trial)
		}
		if !equalIDs(sortedCopy(walked.IDs), want) {
			t.Fatalf("trial %d: tree walk ids differ from brute force", trial)
		}
		if stB.Accepted != stW.Accepted || stB.Verified != stW.Verified || stB.Rejected != stW.Rejected {
			t.Fatalf("trial %d: interval stats differ: batched %+v, walk %+v", trial, stB, stW)
		}
		if stB.Accepted+stB.Verified+stB.Rejected != n {
			t.Fatalf("trial %d: intervals do not partition n=%d: %+v", trial, n, stB)
		}
	}
}

// chunkSink records the size of every accepted chunk it is handed.
type chunkSink struct {
	chunks  []int
	matches int
}

func (s *chunkSink) Reserve(int) {}
func (s *chunkSink) AcceptChunk(ids []uint32) (int, bool) {
	s.chunks = append(s.chunks, len(ids))
	return len(ids), true
}
func (s *chunkSink) Match(uint32) bool { s.matches++; return true }

// TestRowlessSourceRunsReferenceWalk pins the selector every reference
// comparison relies on: a row-less Source hands AcceptChunk one-entry
// chunks and verifies through Source.Vector, while the same Source
// with rows hands out leaf-sized chunks and verifies through the
// kernels. A broken selector would let the reference tests compare
// the kernels with themselves.
func TestRowlessSourceRunsReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	points := randPoints(rng, 5000, 2)
	infos := []IndexInfo{buildInfo(points, []float64{1, 2}, vecmath.SignPattern{1, 1})}
	src := packSource(points, infos, nil)
	vectorCalls := 0
	src.Vector = func(id uint32) []float64 { vectorCalls++; return points[id] }
	q := Query{A: []float64{1, 1}, B: 10}

	run := func(src *Source) (*chunkSink, Stats, int) {
		vectorCalls = 0
		var sink chunkSink
		st, err := Run(src, q, &sink)
		if err != nil {
			t.Fatal(err)
		}
		return &sink, noClock(st), vectorCalls
	}
	batched, stB, callsB := run(src)
	walked, stW, callsW := run(rowless(src))

	if stB != stW || batched.matches != walked.matches {
		t.Fatalf("engines disagree: batched %+v, walk %+v", stB, stW)
	}
	if stB.Accepted <= btree.LeafCap || stB.Verified < kernel.MinBatch {
		t.Fatalf("fixture too small to tell the engines apart: %+v", stB)
	}
	if len(walked.chunks) != stW.Accepted || slices.Max(walked.chunks) != 1 {
		t.Fatalf("row-less walk handed %d chunks of at most %d ids for %d accepted, want one-entry chunks",
			len(walked.chunks), slices.Max(walked.chunks), stW.Accepted)
	}
	if callsW != stW.Verified {
		t.Fatalf("row-less walk read %d vectors for %d verified", callsW, stW.Verified)
	}
	if slices.Max(batched.chunks) < btree.LeafCap/2 {
		t.Fatalf("batched engine's largest chunk is %d ids, want leaf-sized", slices.Max(batched.chunks))
	}
	if callsB != 0 {
		t.Fatalf("batched engine read %d vectors, want the kernels to verify", callsB)
	}
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedScanSkipsDeadRows checks the scan kernel path against a
// Rows array containing stale dead rows: the kernel filters every row
// but dead ones must never be delivered.
func TestBatchedScanSkipsDeadRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	all := randPoints(rng, 700, 3)
	live := make([]bool, len(all))
	var alive [][]float64
	aliveIdx := map[uint32]bool{}
	for i := range all {
		live[i] = rng.Intn(4) != 0
		if live[i] {
			alive = append(alive, all[i])
			aliveIdx[uint32(i)] = true
		} else {
			// Poison dead rows with values that would match everything.
			for j := range all[i] {
				all[i][j] = -1e17
			}
		}
	}
	src := packSource(all, nil, live)
	// Each must only visit live rows, like PointStore.Each.
	src.Each = func(fn func(id uint32, v []float64) bool) {
		for id, v := range all {
			if live[id] && !fn(uint32(id), v) {
				return
			}
		}
	}
	src.N = len(alive)

	q := Query{A: []float64{1, -2, 0.5}, B: 10}
	var batched, classic IDSink
	if _, err := Run(src, q, &batched); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(rowless(src), q, &classic); err != nil {
		t.Fatal(err)
	}
	for _, id := range batched.IDs {
		if !aliveIdx[id] {
			t.Fatalf("batched scan delivered dead row %d", id)
		}
	}
	if !equalIDs(sortedCopy(batched.IDs), sortedCopy(classic.IDs)) {
		t.Fatal("batched scan ids differ from classic scan")
	}
}

// TestOptionsWorkerClamp pins the clamp that sizes the parallel index
// build: zero, negative, and oversized counts all normalize into
// [1, GOMAXPROCS].
func TestOptionsWorkerClamp(t *testing.T) {
	if got := ClampWorkers(0); got != 1 {
		t.Fatalf("ClampWorkers(0) = %d, want 1", got)
	}
	if got := ClampWorkers(-8); got != 1 {
		t.Fatalf("ClampWorkers(-8) = %d, want 1", got)
	}
	if max := runtime.GOMAXPROCS(0); ClampWorkers(max+100) != max {
		t.Fatalf("ClampWorkers(max+100) = %d, want %d", ClampWorkers(max+100), max)
	}
}

// TestBatchedEarlyStop checks the sink-stop contract on the batched
// path: stopping during the smaller interval leaves partial stats,
// stopping during verification keeps Verified/Rejected final.
func TestBatchedEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	points := randPoints(rng, 800, 2)
	signs := vecmath.SignPattern{1, 1}
	infos := []IndexInfo{buildInfo(points, []float64{1, 2}, signs)}
	src := packSource(points, infos, nil)
	q := Query{A: []float64{1, 1}, B: 60}

	seen := 0
	stop := FuncSink(func(uint32) bool {
		seen++
		return seen < 3
	})
	st, err := Run(src, q, stop)
	if err != nil {
		t.Fatal(err)
	}
	if seen != 3 {
		t.Fatalf("sink saw %d ids after asking to stop at 3", seen)
	}
	if st.Accepted+st.Matched < 3 {
		t.Fatalf("stats lost deliveries: %+v", st)
	}
}

func BenchmarkExecHotPath(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	points := randPoints(rng, 20000, 4)
	signs := vecmath.SignPattern{1, 1, 1, 1}
	infos := []IndexInfo{buildInfo(points, []float64{1, 1, 1, 1}, signs)}
	src := packSource(points, infos, nil)
	q := Query{A: []float64{5, 0.1, 0.1, 0.1}, B: 30}

	for _, mode := range []struct {
		name string
		src  *Source
	}{
		{"batched", src},
		{"treewalk", rowless(src)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			count := CountSink{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				count.N = 0
				if _, err := Run(mode.src, q, &count); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
