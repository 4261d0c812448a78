package service

import (
	"math/rand"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

// TestShardedMatchesSingle drives the same mutation stream through a
// unsharded DB and a sharded DB and checks every DB-level query
// method answers identically — the service-layer cut of the golden
// cross-path suite in golden_test.go.
func TestShardedMatchesSingle(t *testing.T) {
	single, err := Open(t.TempDir(), Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := Open(t.TempDir(), Options{Dim: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if single.Shards() != 1 || sharded.Shards() != 4 {
		t.Fatalf("shard counts wrong: single=%d sharded=%d", single.Shards(), sharded.Shards())
	}
	if single.Multi() == nil || sharded.Multi() != nil {
		t.Fatal("Multi() must be the only partition's when unsharded, nil when sharded")
	}

	oct := vecmath.FirstOctant(3)
	for _, db := range []*DB{single, sharded} {
		if _, err := db.AddNormal([]float64{1, 2, 1}, oct); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 800; i++ {
		v := []float64{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
		a, err := single.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sharded.Append(v)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("append %d: single id %d, sharded id %d", i, a, b)
		}
	}
	for i := 0; i < 120; i++ {
		id := uint32(rng.Intn(800))
		if !single.Multi().Store().Live(id) {
			continue
		}
		if i%3 == 0 {
			if err := single.Remove(id); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Remove(id); err != nil {
				t.Fatal(err)
			}
		} else {
			v := []float64{rng.Float64() * 50, rng.Float64() * 50, rng.Float64() * 50}
			if err := single.Update(id, v); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Update(id, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if single.Len() != sharded.Len() {
		t.Fatalf("Len %d vs %d", single.Len(), sharded.Len())
	}

	for trial := 0; trial < 25; trial++ {
		q := core.Query{
			A:  []float64{rng.Float64() * 4, rng.Float64() * 4, rng.Float64() * 4},
			B:  rng.Float64() * 300,
			Op: core.LE,
		}
		if trial%2 == 1 {
			q.Op = core.GE
		}
		want := sortedQuery(t, single, q)
		got := sortedQuery(t, sharded, q)
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d vs %d ids", trial, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: id mismatch at %d", trial, i)
			}
		}
		n1, _, err := single.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		n2, _, err := sharded.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("trial %d: count %d vs %d", trial, n1, n2)
		}
		lo, hi, err := sharded.SelectivityBounds(q)
		if err != nil {
			t.Fatal(err)
		}
		if lo > n1 || hi < n1 {
			t.Fatalf("trial %d: bounds [%d,%d] exclude %d", trial, lo, hi, n1)
		}
		if q.Op == core.LE {
			k := 1 + rng.Intn(8)
			r1, _, err := single.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			r2, _, err := sharded.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(r1) != len(r2) {
				t.Fatalf("trial %d: topk %d vs %d", trial, len(r1), len(r2))
			}
			for i := range r1 {
				if r1[i].ID != r2[i].ID || r1[i].Distance != r2[i].Distance {
					t.Fatalf("trial %d: topk[%d] differs", trial, i)
				}
			}
		}
	}
	met := sharded.Metrics()
	if met.Queries == 0 {
		t.Fatal("sharded store did not record metrics")
	}
}

// TestReshardGuards: a single-store directory cannot be reopened with
// -shards, and a sharded directory reopens sharded even without the
// option.
func TestReshardGuards(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Dim: 2})
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
	if _, err := Open(dir, Options{Shards: 4}); err == nil {
		t.Fatal("resharding a single-store directory accepted")
	}

	sdir := t.TempDir()
	sdb, err := Open(sdir, Options{Dim: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	sdb.Close()
	back, err := Open(sdir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Shards() != 2 {
		t.Fatalf("sharded layout not detected on reopen: %d shards", back.Shards())
	}
	if _, err := Open(sdir, Options{Shards: 5}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
}
