package service

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/vecmath"
)

// goldenWorkload is the deterministic op script both write paths run:
// appends first (ids recorded in submission order), then updates and
// removes on disjoint key ranges.
const (
	goldenAppends = 240
	goldenUpdates = 60
	goldenRemoves = 30
	goldenDim     = 3
)

func goldenVec(rng *rand.Rand) []float64 {
	v := make([]float64, goldenDim)
	for j := range v {
		v[j] = rng.Float64() * 10
	}
	return v
}

// runGoldenSync drives the workload through the synchronous
// per-request path.
func runGoldenSync(t *testing.T, db *DB) []uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ids := make([]uint32, 0, goldenAppends)
	for i := 0; i < goldenAppends; i++ {
		id, err := db.Append(goldenVec(rng))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < goldenUpdates; i++ {
		if err := db.Update(ids[i*3], goldenVec(rng)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < goldenRemoves; i++ {
		if err := db.Remove(ids[200+i]); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// runGoldenGrouped drives the same workload through the async
// pipeline, keeping a window of submissions in flight so the
// committer forms real multi-record batches. Appends ride one lane in
// submission order (and the round-robin shard router shares its
// counter with the sync path), so id assignment matches the sync run
// exactly.
func runGoldenGrouped(t *testing.T, db *DB) []uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	futs := make([]*ingest.Future, 0, goldenAppends)
	for i := 0; i < goldenAppends; i++ {
		f, err := db.AppendAsync(goldenVec(rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	ids := make([]uint32, 0, goldenAppends)
	for _, f := range futs {
		res := f.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		ids = append(ids, res.ID)
	}
	futs = futs[:0]
	for i := 0; i < goldenUpdates; i++ {
		f, err := db.UpdateAsync(ids[i*3], goldenVec(rng))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < goldenRemoves; i++ {
		f, err := db.RemoveAsync(ids[200+i])
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if res := f.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	return ids
}

// tailInto streams primary's committed records from LSN from on into
// replica, the way package replica's applier does.
func tailInto(t *testing.T, primary, replica *DB, from uint64) {
	t.Helper()
	for from <= primary.LastLSN() {
		recs, tooOld, err := primary.FeedRead(from, 64)
		if err != nil {
			t.Fatal(err)
		}
		if tooOld {
			t.Fatalf("feed too old at LSN %d", from)
		}
		if len(recs) == 0 {
			t.Fatalf("feed empty at LSN %d (last %d)", from, primary.LastLSN())
		}
		for _, rec := range recs {
			if rec.LSN != from {
				t.Fatalf("stream gap: got LSN %d, want %d", rec.LSN, from)
			}
			if err := replica.ApplyReplicated(rec); err != nil {
				t.Fatalf("apply LSN %d: %v", rec.LSN, err)
			}
			from++
		}
	}
}

// snapshotBytes serialises every shard snapshot of a consistent cut.
func snapshotBytes(t *testing.T, db *DB) (uint64, [][]byte) {
	t.Helper()
	st := db.CaptureState()
	blobs := make([][]byte, len(st.Snaps))
	for i, snap := range st.Snaps {
		var buf bytes.Buffer
		if err := snap.Write(&buf); err != nil {
			t.Fatal(err)
		}
		blobs[i] = buf.Bytes()
	}
	return st.LSN, blobs
}

func sortedQuery(t *testing.T, db *DB, q core.Query) []uint32 {
	t.Helper()
	ids, _, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestGroupedMatchesSyncGolden is the subsystem's correctness bar:
// the grouped and synchronous write paths must produce byte-identical
// snapshots, and replaying the grouped WAL (batch frames) across a
// reopen must land on the same bytes again.
func TestGroupedMatchesSyncGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"single", 0},
		{"sharded", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			syncDB, err := Open(t.TempDir(), Options{Dim: goldenDim, Shards: tc.shards})
			if err != nil {
				t.Fatal(err)
			}
			defer syncDB.Close()
			groupedDir := t.TempDir()
			groupedDB, err := Open(groupedDir, Options{
				Dim: goldenDim, Shards: tc.shards,
				IngestBatch:         16,
				IngestFlushInterval: time.Millisecond,
				IngestBlock:         true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, db := range []*DB{syncDB, groupedDB} {
				if _, err := db.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(goldenDim)); err != nil {
					t.Fatal(err)
				}
			}
			// Index configs persist at checkpoint time, not in the WAL;
			// checkpoint the grouped store now so the replay leg below
			// starts from a base that carries the index.
			if err := groupedDB.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			syncIDs := runGoldenSync(t, syncDB)
			groupedIDs := runGoldenGrouped(t, groupedDB)
			for i := range syncIDs {
				if syncIDs[i] != groupedIDs[i] {
					t.Fatalf("append %d: sync id %d, grouped id %d", i, syncIDs[i], groupedIDs[i])
				}
			}

			wantLSN, wantSnaps := snapshotBytes(t, syncDB)
			gotLSN, gotSnaps := snapshotBytes(t, groupedDB)
			if gotLSN != wantLSN {
				t.Fatalf("grouped LSN %d, sync LSN %d", gotLSN, wantLSN)
			}
			for i := range wantSnaps {
				if !bytes.Equal(gotSnaps[i], wantSnaps[i]) {
					t.Fatalf("shard %d: grouped snapshot differs from sync (%d vs %d bytes)",
						i, len(gotSnaps[i]), len(wantSnaps[i]))
				}
			}

			q := core.Query{A: []float64{1, 2, 3}, B: 30, Op: core.LE}
			want := sortedQuery(t, syncDB, q)

			// Reopen without a checkpoint: Open must replay the batch
			// frames the grouped run journaled and land on the same state.
			if err := groupedDB.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := Open(groupedDir, Options{Dim: goldenDim})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			reLSN, reSnaps := snapshotBytes(t, re)
			if reLSN != wantLSN {
				t.Fatalf("replayed LSN %d, sync LSN %d", reLSN, wantLSN)
			}
			for i := range wantSnaps {
				if !bytes.Equal(reSnaps[i], wantSnaps[i]) {
					t.Fatalf("shard %d: replayed snapshot differs from sync", i)
				}
			}
			if got := sortedQuery(t, re, q); len(got) != len(want) {
				t.Fatalf("replayed query matched %d ids, sync matched %d", len(got), len(want))
			}
		})
	}
}

// TestReplicaTailsGroupedPrimary proves the replication feed is
// untouched by group commit: the stream hands out flat records (batch
// frames exist only on the primary's disk), and a replica applying
// them lands on the primary's exact snapshot bytes.
func TestReplicaTailsGroupedPrimary(t *testing.T) {
	primary, err := Open(t.TempDir(), Options{
		Dim:                 goldenDim,
		IngestBatch:         16,
		IngestFlushInterval: time.Millisecond,
		IngestBlock:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(goldenDim)); err != nil {
		t.Fatal(err)
	}
	runGoldenGrouped(t, primary)

	replica, err := Open(t.TempDir(), Options{Dim: goldenDim})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if _, err := replica.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(goldenDim)); err != nil {
		t.Fatal(err)
	}
	tailInto(t, primary, replica, 1)

	wantLSN, wantSnaps := snapshotBytes(t, primary)
	gotLSN, gotSnaps := snapshotBytes(t, replica)
	if gotLSN != wantLSN {
		t.Fatalf("replica LSN %d, primary LSN %d", gotLSN, wantLSN)
	}
	for i := range wantSnaps {
		if !bytes.Equal(gotSnaps[i], wantSnaps[i]) {
			t.Fatalf("shard %d: replica snapshot differs from primary", i)
		}
	}
}

// TestIngestConcurrentWriters stresses the pipeline through the DB
// surface: concurrent writers over distinct key spaces, acked counts
// reconciled against the store, then a reopen to prove the concurrent
// WAL replays clean. Run under -race in CI.
func TestIngestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{
		Dim: goldenDim, Shards: 4,
		IngestBatch:         32,
		IngestFlushInterval: time.Millisecond,
		IngestBlock:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 150
	var wg sync.WaitGroup
	removed := make([]int, writers)
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			var mine []uint32
			for i := 0; i < perWriter; i++ {
				f, err := db.AppendAsync(goldenVec(rng))
				if err != nil {
					t.Error(err)
					return
				}
				res := f.Wait()
				if res.Err != nil {
					t.Error(res.Err)
					return
				}
				mine = append(mine, res.ID)
				switch i % 5 {
				case 2:
					uf, err := db.UpdateAsync(mine[rng.Intn(len(mine))], goldenVec(rng))
					if err != nil {
						t.Error(err)
						return
					}
					if r := uf.Wait(); r.Err != nil {
						t.Error(r.Err)
						return
					}
				case 4:
					rf, err := db.RemoveAsync(mine[len(mine)-1])
					if err != nil {
						t.Error(err)
						return
					}
					if r := rf.Wait(); r.Err != nil {
						t.Error(r.Err)
						return
					}
					mine = mine[:len(mine)-1]
					removed[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	wantLive := writers * perWriter
	for _, n := range removed {
		wantLive -= n
	}
	if got := db.Len(); got != wantLive {
		t.Fatalf("Len=%d want %d", got, wantLive)
	}
	wantLSN := db.LastLSN()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Dim: goldenDim})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != wantLive {
		t.Fatalf("replayed Len=%d want %d", got, wantLive)
	}
	if got := re.LastLSN(); got != wantLSN {
		t.Fatalf("replayed LSN=%d want %d", got, wantLSN)
	}
}

// TestIngestCloseDrainsAndStopsGoroutines covers graceful shutdown:
// Close resolves every in-flight future (no writer hangs), every
// acked write survives the reopen, and the committer goroutines are
// gone afterwards.
func TestIngestCloseDrainsAndStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	db, err := Open(dir, Options{
		Dim:                 goldenDim,
		IngestBatch:         8,
		IngestFlushInterval: 5 * time.Millisecond,
		IngestBlock:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	acked := make([]int, writers)
	var wg sync.WaitGroup
	for c := 0; c < writers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; ; i++ {
				f, err := db.AppendAsync(goldenVec(rng))
				if err != nil {
					return // pipeline closed mid-shutdown
				}
				if res := f.Wait(); res.Err != nil {
					return
				}
				acked[c]++
			}
		}(c)
	}
	time.Sleep(20 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // every writer's last future resolved — nobody hangs

	total := 0
	for _, n := range acked {
		total += n
	}
	if total == 0 {
		t.Fatal("no writes acked before shutdown")
	}
	re, err := Open(dir, Options{Dim: goldenDim})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got < total {
		t.Fatalf("reopened Len=%d, but %d writes were acked durable", got, total)
	}

	// The committer goroutine must be gone; allow the runtime a moment
	// to reap exiting goroutines.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= before+1 {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
