package service

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/ingest"
	"planar/internal/vecmath"
	"planar/internal/wal"
)

func TestOpenValidationSharded(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("fresh unsharded dir without Dim accepted")
	}
	if _, err := Open(t.TempDir(), Options{Shards: 3}); err == nil {
		t.Error("fresh sharded dir without Dim accepted")
	}
}

// TestLayoutRule pins where partitions live: an unsharded store in
// the directory itself with no meta file, a sharded one under
// shard-NNN/ beside shards.meta, and neither convertible to the other.
func TestLayoutRule(t *testing.T) {
	root := t.TempDir()
	for _, shards := range []int{0, 1} {
		st, err := Open(root, Options{Shards: shards, Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if st.Shards() != 1 || st.Multi() == nil {
			t.Fatalf("Shards=%d: Shards()=%d Multi=%v", shards, st.Shards(), st.Multi())
		}
		st.Close()
		ents, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 2 || ents[0].Name() != snapshotFile || ents[1].Name() != walFile {
			t.Fatalf("Shards=%d: unsharded root holds %v", shards, ents)
		}
	}
	if _, err := Open(root, Options{Shards: 4}); err == nil {
		t.Fatal("resharding an unsharded directory accepted")
	}

	sroot := t.TempDir()
	st, err := Open(sroot, Options{Shards: 2, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Multi() != nil {
		t.Fatal("Multi() must be nil on a partitioned store")
	}
	st.Close()
	for _, name := range []string{metaFile, "shard-000", "shard-001"} {
		if _, err := os.Stat(filepath.Join(sroot, name)); err != nil {
			t.Fatalf("sharded root: %v", err)
		}
	}
	if _, err := Open(sroot, Options{Shards: 1}); err == nil {
		t.Fatal("opening a sharded directory as one partition accepted")
	}
}

func TestMetaMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 4, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Open(dir, Options{Shards: 2}); err == nil {
		t.Error("shard-count mismatch accepted")
	}
	if _, err := Open(dir, Options{Dim: 5}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// 0 adopts the stored configuration.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Shards() != 4 || st2.Dim() != 2 {
		t.Fatalf("adopted shards=%d dim=%d want 4/2", st2.Shards(), st2.Dim())
	}
}

func TestIDMappingRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 8, Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, gid := range []uint32{0, 1, 7, 8, 9, 1023, 1 << 20} {
		p, si, local := st.shardOf(gid)
		if back := p.gid(local); back != gid || p != st.parts[si] {
			t.Fatalf("gid %d → (%d, %d) → %d", gid, si, local, back)
		}
	}
}

// TestDurabilityAcrossReopenPerShard checkpoints every shard, leaves
// each with an un-checkpointed WAL tail, and verifies the reopened
// store — recovered shard-by-shard in parallel — answers identically.
func TestDurabilityAcrossReopenPerShard(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	st, err := Open(dir, Options{Shards: 4, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2)); err != nil {
		t.Fatal(err)
	}
	var ids []uint32
	for i := 0; i < 300; i++ {
		id, err := st.Append([]float64{rng.Float64() * 10, rng.Float64() * 10})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 60; i++ {
		if err := st.Update(ids[i], []float64{rng.Float64() * 10, rng.Float64() * 10}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 60; i < 90; i++ {
		if err := st.Remove(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot everything, then keep mutating so every shard has a
	// WAL tail to replay on top of its snapshot.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 90; i < 130; i++ {
		if err := st.Update(ids[i], []float64{rng.Float64() * 10, rng.Float64() * 10}); err != nil {
			t.Fatal(err)
		}
	}
	extra, err := st.Append([]float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{A: []float64{1, 2}, B: 18, Op: core.LE}
	want, _, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Every shard directory holds its own snapshot and WAL segment.
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(shardDir(dir, i), snapshotFile)); err != nil {
			t.Fatalf("shard %d snapshot missing: %v", i, err)
		}
		if _, err := os.Stat(filepath.Join(shardDir(dir, i), walFile)); err != nil {
			t.Fatalf("shard %d wal missing: %v", i, err)
		}
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != wantLen || st2.Shards() != 4 || st2.NumIndexes() != 1 {
		t.Fatalf("reopened Len=%d shards=%d indexes=%d", st2.Len(), st2.Shards(), st2.NumIndexes())
	}
	if !st2.live(extra) {
		t.Fatal("post-checkpoint append lost")
	}
	got, _, err := st2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, want) {
		t.Fatalf("reopened answer %d ids, want %d", len(got), len(want))
	}
}

func TestAutomaticPerShardCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: 2, Dim: 1, CheckpointEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		if _, err := st.Append([]float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	for i := 0; i < 2; i++ {
		snap, err := os.Stat(filepath.Join(shardDir(dir, i), snapshotFile))
		if err != nil {
			t.Fatalf("shard %d: no snapshot after auto-checkpoint: %v", i, err)
		}
		if snap.Size() == 0 {
			t.Fatalf("shard %d: empty snapshot", i)
		}
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 24 {
		t.Fatalf("Len=%d want 24", st2.Len())
	}
}

// TestBatchCountsWholeTowardCheckpoint: a group commit that crosses
// the automatic-checkpoint threshold checkpoints once, after its last
// record, and leaves nothing pending — the records are all in the
// snapshot and the fresh segment is empty.
func TestBatchCountsWholeTowardCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Dim: 1, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	intents := make([]ingest.Intent, 6)
	for i := range intents {
		intents[i] = ingest.Intent{Op: uint8(wal.OpAppend), Vec: []float64{float64(i)}}
	}
	results := make([]ingest.Result, len(intents))
	if err := st.parts[0].commitBatch(intents, results); err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil || res.ID != uint32(i) || res.LSN != uint64(i+1) {
			t.Fatalf("intent %d: %+v", i, res)
		}
	}
	p := st.parts[0]
	p.mu.Lock()
	pending, err := p.pending, p.log.Flush()
	p.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if pending != 0 {
		t.Fatalf("pending = %d after a checkpoint that took the whole batch", pending)
	}
	n, err := wal.Replay(filepath.Join(dir, walFile), func(wal.Record) error { return nil })
	if err != nil || n != 0 {
		t.Fatalf("segment after the checkpoint holds %d records (err %v)", n, err)
	}
	if snap, err := codec.Load(filepath.Join(dir, snapshotFile)); err != nil || snap.NumLive() != 6 {
		t.Fatalf("snapshot does not hold the six points (err %v)", err)
	}
}

func TestMutationsRouteToOwningShard(t *testing.T) {
	st, err := Open(t.TempDir(), Options{Shards: 4, Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 16; i++ {
		id, err := st.Append([]float64{float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		_, si, local := st.shardOf(id)
		if si != i%4 || local != uint32(i/4) {
			t.Fatalf("append %d landed on shard %d local %d", i, si, local)
		}
	}
	// Removing and re-appending recycles the shard-local id, so the
	// same global id comes back.
	if err := st.Remove(6); err != nil {
		t.Fatal(err)
	}
	if st.live(6) {
		t.Fatal("removed id still live")
	}
	v, err := st.vector(7)
	if err != nil || v[0] != 7 {
		t.Fatalf("vector(7) = %v, %v", v, err)
	}
	if _, err := st.vector(6); err == nil {
		t.Fatal("vector on a dead id succeeded")
	}
	if err := st.Update(6, []float64{1}); err == nil {
		t.Fatal("Update on a dead id succeeded")
	}
	// A batch on lane 1 refuses the point of another shard and commits
	// the one that is its own.
	results := make([]ingest.Result, 2)
	err = st.parts[1].commitBatch([]ingest.Intent{
		{Op: uint8(wal.OpUpdate), ID: 7, Vec: []float64{70}},
		{Op: uint8(wal.OpUpdate), ID: 5, Vec: []float64{50}},
	}, results)
	if err != nil || results[0].Err == nil || results[1].Err != nil || results[1].ID != 5 {
		t.Fatalf("batch on lane 1: %v, results %+v", err, results)
	}
	if v, _ := st.vector(7); v[0] != 7 {
		t.Fatalf("the refused update reached point 7: %v", v)
	}
	if v, _ := st.vector(5); v[0] != 50 {
		t.Fatalf("the routed update did not reach point 5: %v", v)
	}
}

func TestExplainAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vecs := goldenDataset(rng, 600, 3)
	st := goldenShardStore(t, 4, vecs)
	defer st.Close()
	q := core.Query{A: []float64{1, 2, 1}, B: 180, Op: core.LE}
	plan, err := st.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.N != 600 {
		t.Fatalf("plan.N=%d want 600", plan.N)
	}
	if plan.Accepted+plan.Verified+plan.Rejected != 600 {
		t.Fatalf("intervals %d+%d+%d != 600", plan.Accepted, plan.Verified, plan.Rejected)
	}
	n, _, err := st.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan.BoundsLo > n || plan.BoundsHi < n {
		t.Fatalf("bounds [%d,%d] exclude count %d", plan.BoundsLo, plan.BoundsHi, n)
	}
}

// TestAppendCursorRestartsAtOpen pins that the round-robin append
// cursor is process state: a reopened store routes its first append
// to lane 0 again, so ids stay unique but diverge from a twin that
// took the same appends without restarting.
func TestAppendCursorRestartsAtOpen(t *testing.T) {
	open := func(dir string) *DB {
		st, err := Open(dir, Options{Shards: 3, Dim: 2})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	appendN := func(st *DB, n int) (last uint32) {
		for i := 0; i < n; i++ {
			id, err := st.Append([]float64{1, 2})
			if err != nil {
				t.Fatal(err)
			}
			last = id
		}
		return last
	}

	twin := open(t.TempDir())
	defer twin.Close()
	if got := appendN(twin, 5); got != 4 {
		t.Fatalf("uninterrupted fifth append got id %d, want the dense 4", got)
	}

	dir := t.TempDir()
	st := open(dir)
	appendN(st, 4) // lanes 0, 1, 2, 0: the cursor stands at lane 1
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st = open(dir)
	defer st.Close()
	// Lane 0 again, whose next local id is 2: global 2*3+0 — unique,
	// but not the twin's 4.
	if got := appendN(st, 1); got != 6 {
		t.Fatalf("append after reopen got id %d, want 6 (lane 0, local 2)", got)
	}
}

func TestStatsMerge(t *testing.T) {
	merged := mergeStats([]core.Stats{
		{N: 10, Accepted: 2, Verified: 3, Matched: 1, Rejected: 5, PlanNanos: 7, ExecNanos: 11, IndexUsed: 1},
		{N: 20, Accepted: 4, Verified: 6, Matched: 2, Rejected: 10, PlanNanos: 13, ExecNanos: 17, IndexUsed: 1},
	})
	if merged.N != 30 || merged.Accepted != 6 || merged.Verified != 9 || merged.Matched != 3 || merged.Rejected != 15 {
		t.Fatalf("counter merge wrong: %+v", merged)
	}
	if merged.PlanNanos != 20 || merged.ExecNanos != 28 {
		t.Fatalf("stage-time merge wrong: %+v", merged)
	}
	if merged.IndexUsed != 1 {
		t.Fatalf("flag merge wrong: %+v", merged)
	}
	diverged := mergeStats([]core.Stats{{IndexUsed: 0}, {IndexUsed: 2, FellBack: true}})
	if diverged.IndexUsed != -1 || !diverged.FellBack {
		t.Fatalf("divergence merge wrong: %+v", diverged)
	}
}
