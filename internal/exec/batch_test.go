package exec

import (
	"math/rand"
	"runtime"
	"testing"

	"planar/internal/vecmath"
)

// TestBatchedMatchesBruteForce is the engine's golden identity at the
// exec layer: for random indexes and queries the engine must report
// the brute-force id set and intervals that partition the points.
func TestBatchedMatchesBruteForce(t *testing.T) {
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
		src := makeSource(points, infos)

		var batched IDSink
		stB, err := Run(src, q, &batched)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedCopy(batched.IDs), sortedCopy(bruteIDs(points, q))) {
			t.Fatalf("trial %d: batched ids differ from brute force", trial)
		}
		if stB.Matched != len(batched.IDs)-stB.Accepted {
			t.Fatalf("trial %d: %d ids delivered, stats %+v", trial, len(batched.IDs), stB)
		}
		if stB.Accepted+stB.Verified+stB.Rejected != n {
			t.Fatalf("trial %d: intervals do not partition n=%d: %+v", trial, n, stB)
		}
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
	src := makeSource(all, nil)
	src.RowLive = live
	src.N = len(alive)

	q := Query{A: []float64{1, -2, 0.5}, B: 10}
	var batched IDSink
	st, err := Run(src, q, &batched)
	if err != nil {
		t.Fatal(err)
	}
	if st.Verified != len(alive) || st.Matched != len(batched.IDs) || !st.FellBack {
		t.Fatalf("scan stats %+v for %d live points and %d matches", st, len(alive), len(batched.IDs))
	}
	for _, id := range batched.IDs {
		if !aliveIdx[id] {
			t.Fatalf("batched scan delivered dead row %d", id)
		}
	}
	var want []uint32
	for _, id := range bruteIDs(all, q) {
		if aliveIdx[id] {
			want = append(want, id)
		}
	}
	if !equalIDs(batched.IDs, want) {
		t.Fatal("batched scan ids differ from brute force over the live rows")
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
	src := makeSource(points, infos)
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

// BenchmarkExecHotPath is the layer record of the engine: a COUNT
// whose intermediate interval runs through the kernels, and a top-k
// (k = 10) on the same index, which verifies that interval and then
// descends the smaller one until Claim 3 cuts it off.
func BenchmarkExecHotPath(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	points := randPoints(rng, 20000, 4)
	signs := vecmath.SignPattern{1, 1, 1, 1}
	infos := []IndexInfo{buildInfo(points, []float64{1, 1, 1, 1}, signs)}
	src := makeSource(points, infos)
	q := Query{A: []float64{5, 0.1, 0.1, 0.1}, B: 30}

	b.Run("batched", func(b *testing.B) {
		count := CountSink{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count.N = 0
			if _, err := Run(src, q, &count); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("topk", func(b *testing.B) {
		dist := func(id uint32) float64 { return q.Distance(points[id]) }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(src, q, NewTopKSink(10, dist)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
