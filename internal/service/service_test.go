package service

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{Dim: 2}); err == nil {
		t.Error("empty dir accepted")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Error("fresh store without Dim accepted")
	}
}

// topologies are the two shapes every durability behaviour is checked
// in: the unsharded store rooted at its directory, and a sharded one.
// Both run the same code; what differs is the layout on disk, the id
// mapping and whether answers pass through the gather.
var topologies = []int{1, 3}

func eachTopology(t *testing.T, body func(t *testing.T, shards int)) {
	t.Helper()
	for _, shards := range topologies {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { body(t, shards) })
	}
}

// partDirs lists the directories holding a store's partitions: the
// root itself when unsharded, shard-NNN under it otherwise.
func partDirs(root string, shards int) []string {
	if shards == 1 {
		return []string{root}
	}
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(root, fmt.Sprintf("shard-%03d", i))
	}
	return dirs
}

// live reports whether a global id names a live point.
func (db *DB) live(gid uint32) bool {
	p, _, local := db.shardOf(gid)
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.multi.Store().Live(local)
}

// vector returns a copy of a live point's φ vector.
func (db *DB) vector(gid uint32) ([]float64, error) {
	p, _, local := db.shardOf(gid)
	p.mu.RLock()
	defer p.mu.RUnlock()
	if !p.multi.Store().Live(local) {
		return nil, fmt.Errorf("point %d is not live", gid)
	}
	return slices.Clone(p.multi.Store().Vector(local)), nil
}

// bruteForce is the answer to q over a reference copy of the points.
func bruteForce(ref map[uint32][]float64, q core.Query) []uint32 {
	var ids []uint32
	for id, v := range ref {
		if q.Satisfies(v) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestDurabilityAcrossReopen checkpoints a store, keeps mutating,
// closes, and reopens with zero options — the directory alone says
// what it holds (shards.meta supplies a sharded store's shard count
// and dimensionality).
func TestDurabilityAcrossReopen(t *testing.T) {
	eachTopology(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		db, err := Open(dir, Options{Dim: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2)); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		vec := func() []float64 { return []float64{rng.Float64() * 10, rng.Float64() * 10} }
		ref := map[uint32][]float64{}
		var ids []uint32
		for i := 0; i < 200; i++ {
			v := vec()
			id, err := db.Append(v)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			ref[id] = v
		}
		update := func(id uint32) {
			v := vec()
			if err := db.Update(id, v); err != nil {
				t.Fatal(err)
			}
			ref[id] = v
		}
		for i := 0; i < 50; i++ {
			update(ids[i])
		}
		for i := 50; i < 70; i++ {
			if err := db.Remove(ids[i]); err != nil {
				t.Fatal(err)
			}
			delete(ref, ids[i])
		}
		// Checkpoint mid-way, then more un-checkpointed mutations.
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 70; i < 90; i++ {
			update(ids[i])
		}
		extra, err := db.Append([]float64{5, 5})
		if err != nil {
			t.Fatal(err)
		}
		ref[extra] = []float64{5, 5}
		q := core.Query{A: []float64{1, 2}, B: 18, Op: core.LE}
		want := sortedQuery(t, db, q)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		// Reopen: checkpoint + log replay must reproduce the exact state.
		db2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if db2.Shards() != shards || db2.Dim() != 2 || db2.Len() != len(ref) {
			t.Fatalf("reopened Shards=%d Dim=%d Len=%d want %d/2/%d", db2.Shards(), db2.Dim(), db2.Len(), shards, len(ref))
		}
		// Index configuration survived the checkpoint.
		if db2.NumIndexes() != 1 {
			t.Fatalf("NumIndexes=%d", db2.NumIndexes())
		}
		if !db2.live(extra) {
			t.Fatal("post-checkpoint append lost")
		}
		// Same answer as before the restart, and the right one.
		got := sortedQuery(t, db2, q)
		if !slices.Equal(got, want) {
			t.Fatalf("reopened answer %v, want %v", got, want)
		}
		if !slices.Equal(got, bruteForce(ref, q)) {
			t.Fatal("restored index inconsistent with the points written")
		}
	})
}

func TestAutomaticCheckpoint(t *testing.T) {
	eachTopology(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		db, err := Open(dir, Options{Dim: 1, Shards: shards, CheckpointEvery: 10})
		if err != nil {
			t.Fatal(err)
		}
		// The counter is per shard and appends go round-robin: 25 each.
		n := 25 * shards
		for i := 0; i < n; i++ {
			if _, err := db.Append([]float64{float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		db.Close()
		// After 25 appends with CheckpointEvery=10, a shard's snapshot
		// holds at least 20 points and its log at most 5 records.
		for _, pd := range partDirs(dir, shards) {
			snap, err := os.Stat(filepath.Join(pd, "snapshot.plnr"))
			if err != nil {
				t.Fatalf("no snapshot written: %v", err)
			}
			if snap.Size() == 0 {
				t.Fatal("empty snapshot")
			}
		}
		db2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if db2.Len() != n {
			t.Fatalf("Len=%d want %d", db2.Len(), n)
		}
		if got := db2.ReplayedRecords(); got != 5*shards {
			t.Fatalf("replayed %d records, want the %d past the last automatic checkpoints", got, 5*shards)
		}
	})
}

func TestSyncEveryWriteAndDimMismatch(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Dim: 2, SyncEveryWrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Append([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Open(dir, Options{Dim: 5}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

// TestChurnAgainstReference drives a long random mutation sequence
// with periodic checkpoints and reopen cycles, comparing the durable
// store against an in-memory reference map after every reopen.
func TestChurnAgainstReference(t *testing.T) {
	eachTopology(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		rng := rand.New(rand.NewSource(99))
		ref := map[uint32][]float64{}

		open := func() *DB {
			db, err := Open(dir, Options{Dim: 2, Shards: shards, CheckpointEvery: 37})
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		check := func(db *DB) {
			t.Helper()
			if db.Len() != len(ref) {
				t.Fatalf("Len=%d reference has %d", db.Len(), len(ref))
			}
			for id, v := range ref {
				got, err := db.vector(id)
				if err != nil {
					t.Fatalf("id %d missing: %v", id, err)
				}
				if got[0] != v[0] || got[1] != v[1] {
					t.Fatalf("id %d vector mismatch: %v vs %v", id, got, v)
				}
			}
		}

		db := open()
		var liveIDs []uint32
		refreshLive := func() {
			liveIDs = liveIDs[:0]
			for id := range ref {
				liveIDs = append(liveIDs, id)
			}
			sort.Slice(liveIDs, func(i, j int) bool { return liveIDs[i] < liveIDs[j] })
		}
		for round := 0; round < 6; round++ {
			for op := 0; op < 150; op++ {
				refreshLive()
				switch {
				case len(liveIDs) == 0 || rng.Intn(3) == 0:
					v := []float64{rng.Float64() * 10, rng.Float64() * 10}
					id, err := db.Append(v)
					if err != nil {
						t.Fatal(err)
					}
					if _, dup := ref[id]; dup {
						t.Fatalf("id %d handed out twice", id)
					}
					ref[id] = v
				case rng.Intn(2) == 0:
					id := liveIDs[rng.Intn(len(liveIDs))]
					v := []float64{rng.Float64() * 10, rng.Float64() * 10}
					if err := db.Update(id, v); err != nil {
						t.Fatal(err)
					}
					ref[id] = v
				default:
					id := liveIDs[rng.Intn(len(liveIDs))]
					if err := db.Remove(id); err != nil {
						t.Fatal(err)
					}
					delete(ref, id)
				}
			}
			if round%2 == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = open()
			check(db)
		}
		db.Close()
	})
}

func TestCrashBeforeCheckpointReplaysLog(t *testing.T) {
	eachTopology(t, func(t *testing.T, shards int) {
		dir := t.TempDir()
		db, err := Open(dir, Options{Dim: 1, Shards: shards, SyncEveryWrite: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := db.Append([]float64{float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Simulate a crash: no Close, no Checkpoint. The log, synced
		// after every write, must carry everything.
		db2, err := Open(dir, Options{Dim: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if db2.Len() != 10 || db2.ReplayedRecords() != 10 {
			t.Fatalf("recovered Len=%d from %d records, want 10 from 10", db2.Len(), db2.ReplayedRecords())
		}
	})
}
