package service

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

// goldenWorkload is the deterministic op script every write route
// runs: appends first (ids recorded in submission order), then updates
// and removes on disjoint key ranges, then goldenTail.
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

// goldenStep is one mutation of the script's tail; refused marks one
// the store must refuse.
type goldenStep struct {
	op      wal.Op
	id      uint32
	vec     []float64
	refused bool
}

// goldenTail ends the script with mutations that succeed around —
// when refusals is set — ones that cannot: an update and a remove of a
// removed id and of an id past the end, and vectors of the wrong
// dimension or with a NaN or +Inf coordinate. The refused steps draw
// nothing from rng, so the script with them and the script without
// differ in nothing else. The refused appends come after the last good
// one: an append takes its turn in the round-robin before it is
// checked, so a refused one moves every later append to another shard.
func goldenTail(rng *rand.Rand, ids []uint32, refusals bool) []goldenStep {
	const pastEnd = 1 << 20
	dead, live := ids[200], ids[2]
	steps := []goldenStep{
		{op: wal.OpUpdate, id: dead, vec: []float64{1, 1, 1}, refused: true},
		{op: wal.OpRemove, id: dead, refused: true},
		{op: wal.OpUpdate, id: ids[1], vec: goldenVec(rng)},
		{op: wal.OpUpdate, id: pastEnd, vec: []float64{1, 1, 1}, refused: true},
		{op: wal.OpRemove, id: pastEnd, refused: true},
		{op: wal.OpRemove, id: ids[100]},
		{op: wal.OpUpdate, id: live, vec: []float64{1, 2}, refused: true},
		{op: wal.OpUpdate, id: live, vec: []float64{1, math.NaN(), 3}, refused: true},
		{op: wal.OpUpdate, id: live, vec: []float64{1, math.Inf(1), 3}, refused: true},
		{op: wal.OpUpdate, id: live, vec: goldenVec(rng)},
		{op: wal.OpAppend, vec: goldenVec(rng)},
		{op: wal.OpAppend, vec: goldenVec(rng)},
		{op: wal.OpAppend, vec: []float64{1, 2, 3, 4}, refused: true},
		{op: wal.OpAppend, vec: []float64{math.Inf(1), 2, 3}, refused: true},
		{op: wal.OpUpdate, id: ids[4], vec: goldenVec(rng)},
	}
	if refusals {
		return steps
	}
	return slices.DeleteFunc(steps, func(s goldenStep) bool { return s.refused })
}

// settle checks one tail step's outcome and returns the text of a
// refusal ("" for a step that went through).
func (s goldenStep) settle(t *testing.T, err error) string {
	t.Helper()
	switch {
	case s.refused && err == nil:
		t.Fatalf("op %d on id %d with %v went through", s.op, s.id, s.vec)
	case s.refused:
		return err.Error()
	case err != nil:
		t.Fatal(err)
	}
	return ""
}

// runGoldenSync drives the workload through the synchronous
// per-request path and returns the appended ids and, step by step,
// what the tail's refusals said.
func runGoldenSync(t *testing.T, db *DB, refusals bool) ([]uint32, []string) {
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
	var said []string
	for _, s := range goldenTail(rng, ids, refusals) {
		var err error
		switch s.op {
		case wal.OpAppend:
			_, err = db.Append(s.vec)
		case wal.OpUpdate:
			err = db.Update(s.id, s.vec)
		case wal.OpRemove:
			err = db.Remove(s.id)
		}
		said = append(said, s.settle(t, err))
	}
	return ids, said
}

// runGoldenGrouped drives the same workload through the async
// pipeline, keeping a window of submissions in flight so the
// committer forms real multi-record batches — the tail's refusals sit
// in the same batches as the steps around them. Appends ride one lane
// in submission order (and the round-robin shard router shares its
// counter with the sync path), so id assignment matches the sync run
// exactly.
func runGoldenGrouped(t *testing.T, db *DB, refusals bool) ([]uint32, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var futs []*ingest.Future
	submit := func(f *ingest.Future, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i := 0; i < goldenAppends; i++ {
		submit(db.AppendAsync(goldenVec(rng)))
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
		submit(db.UpdateAsync(ids[i*3], goldenVec(rng)))
	}
	for i := 0; i < goldenRemoves; i++ {
		submit(db.RemoveAsync(ids[200+i]))
	}
	for _, f := range futs {
		if res := f.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	futs = futs[:0]
	tail := goldenTail(rng, ids, refusals)
	for _, s := range tail {
		switch s.op {
		case wal.OpAppend:
			submit(db.AppendAsync(s.vec))
		case wal.OpUpdate:
			submit(db.UpdateAsync(s.id, s.vec))
		case wal.OpRemove:
			submit(db.RemoveAsync(s.id))
		}
	}
	var said []string
	for i, f := range futs {
		said = append(said, tail[i].settle(t, f.Wait().Err))
	}
	return ids, said
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

// openGolden opens a store for the golden script with its one index.
func openGolden(t *testing.T, dir string, opts Options) *DB {
	t.Helper()
	opts.Dim = goldenDim
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(goldenDim)); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestGroupedMatchesSyncGolden is the write path's correctness bar.
// The script, refusals included, goes through the synchronous and the
// grouped route; both must land on the snapshot bytes and the LSN of a
// run of the script without the refusals — a refused mutation changes
// nothing and the ones after it commit — and must word each refusal
// alike. Neither log holds a record more than that LSN counts, and
// two more routes read the grouped log back to the same bytes: a
// replica tailing the feed, and Open replaying the batch frames.
func TestGroupedMatchesSyncGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"single", 0},
		{"sharded", 4},
		{"three", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cleanDB := openGolden(t, t.TempDir(), Options{Shards: tc.shards})
			defer cleanDB.Close()
			syncDB := openGolden(t, t.TempDir(), Options{Shards: tc.shards})
			defer syncDB.Close()
			groupedDir := t.TempDir()
			groupedDB := openGolden(t, groupedDir, Options{
				Shards:      tc.shards,
				IngestBatch: 16,
				IngestBlock: true,
			})
			// Index configs persist at checkpoint time, not in the WAL;
			// checkpoint the grouped store now so the replay leg below
			// starts from a base that carries the index.
			if err := groupedDB.Checkpoint(); err != nil {
				t.Fatal(err)
			}

			runGoldenSync(t, cleanDB, false)
			syncIDs, syncSaid := runGoldenSync(t, syncDB, true)
			groupedIDs, groupedSaid := runGoldenGrouped(t, groupedDB, true)
			if !slices.Equal(syncIDs, groupedIDs) {
				t.Fatalf("appends were assigned\n%v synchronously,\n%v grouped", syncIDs, groupedIDs)
			}
			if !slices.Equal(syncSaid, groupedSaid) {
				t.Fatalf("refusals read\n%q synchronously,\n%q grouped", syncSaid, groupedSaid)
			}

			wantLSN, wantSnaps := snapshotBytes(t, cleanDB)
			same := func(route string, db *DB) {
				t.Helper()
				gotLSN, gotSnaps := snapshotBytes(t, db)
				if gotLSN != wantLSN {
					t.Fatalf("%s LSN %d, want %d", route, gotLSN, wantLSN)
				}
				for i := range wantSnaps {
					if !bytes.Equal(gotSnaps[i], wantSnaps[i]) {
						t.Fatalf("shard %d: %s snapshot differs (%d vs %d bytes)",
							i, route, len(gotSnaps[i]), len(wantSnaps[i]))
					}
				}
			}
			same("sync", syncDB)
			same("grouped", groupedDB)
			for route, db := range map[string]*DB{"sync": syncDB, "grouped": groupedDB} {
				recs, tooOld, err := db.feedFromDisk(1, 0)
				if err != nil || tooOld || uint64(len(recs)) != wantLSN {
					t.Fatalf("%s log holds %d records for %d commits (tooOld=%v, err=%v)", route, len(recs), wantLSN, tooOld, err)
				}
			}

			replica := openGolden(t, t.TempDir(), Options{Shards: tc.shards})
			defer replica.Close()
			tailInto(t, groupedDB, replica, 1)
			same("replica", replica)

			q := core.Query{A: []float64{1, 2, 3}, B: 30, Op: core.LE}
			want := sortedQuery(t, cleanDB, q)

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
			same("replayed", re)
			if got := sortedQuery(t, re, q); !slices.Equal(got, want) {
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
		Dim:         goldenDim,
		IngestBatch: 16,
		IngestBlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(goldenDim)); err != nil {
		t.Fatal(err)
	}
	runGoldenGrouped(t, primary, false)

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
		IngestBatch: 32,
		IngestBlock: true,
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
		Dim:         goldenDim,
		IngestBatch: 8,
		IngestBlock: true,
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

// TestDirectFutureCarriesItsOwnLSN pins Result.LSN on a store without
// a pipeline: under concurrent writers every future reports the LSN of
// its own record — no two alike, and the record the feed serves at
// that LSN is the update that future made.
func TestDirectFutureCarriesItsOwnLSN(t *testing.T) {
	eachTopology(t, func(t *testing.T, shards int) {
		db, err := Open(t.TempDir(), Options{Dim: goldenDim, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		const writers, perWriter = 8, 200
		for i := 0; i < writers; i++ {
			if _, err := db.Append(make([]float64, goldenDim)); err != nil {
				t.Fatal(err)
			}
		}
		lsns := make([][]uint64, writers)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) { // writer w updates point w and no other
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for i := 0; i < perWriter; i++ {
					f, err := db.UpdateAsync(uint32(w), goldenVec(rng))
					if err != nil {
						t.Error(err)
						return
					}
					lsns[w] = append(lsns[w], f.Wait().LSN)
				}
			}(w)
		}
		wg.Wait()
		seen := map[uint64]bool{}
		for w := range lsns {
			for _, lsn := range lsns[w] {
				if seen[lsn] {
					t.Fatalf("LSN %d reported by two futures", lsn)
				}
				seen[lsn] = true
				recs, tooOld, err := db.FeedRead(lsn, 1)
				if err != nil || tooOld || len(recs) != 1 {
					t.Fatalf("feed at LSN %d: %d records, tooOld=%v, err=%v", lsn, len(recs), tooOld, err)
				}
				if recs[0].LSN != lsn || recs[0].ID != uint32(w) {
					t.Fatalf("writer %d was told LSN %d, which is point %d's record (LSN %d)", w, lsn, recs[0].ID, recs[0].LSN)
				}
			}
		}
	})
}

// BenchmarkGroupCommitClosedLoop times acked appends through the
// group-commit pipeline from closed-loop writers: each one submits,
// waits for its ack and submits again, so fewer writers than
// IngestBatch never fill a batch. ack-p50-µs is the median submit to
// ack time: one fsync plus the batch ahead of it, with nothing waiting
// for the batch to fill.
func BenchmarkGroupCommitClosedLoop(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			db, err := Open(b.TempDir(), Options{Dim: goldenDim, IngestBatch: 256, IngestBlock: true})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			acks := make([][]time.Duration, writers)
			var issued atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := range writers {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					v := []float64{1, 2, float64(w)}
					for issued.Add(1) <= int64(b.N) {
						start := time.Now()
						f, err := db.AppendAsync(v)
						if err != nil {
							b.Error(err)
							return
						}
						if res := f.Wait(); res.Err != nil {
							b.Error(res.Err)
							return
						}
						acks[w] = append(acks[w], time.Since(start))
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			all := slices.Concat(acks...)
			if len(all) == 0 {
				return
			}
			slices.Sort(all)
			b.ReportMetric(float64(all[len(all)/2].Nanoseconds())/1e3, "ack-p50-µs")
		})
	}
}
