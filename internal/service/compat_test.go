package service

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

// compatHistory drives the mutation stream the checked-in fixtures
// hold into db — two normals, 200 appends, a checkpoint, then 20
// mutations only the WAL carries — closes it, and returns the live
// points the stream leaves behind.
func compatHistory(t *testing.T, db *DB) map[uint32][]float64 {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(20))
	vec := func() []float64 {
		return []float64{rng.Float64() * 40, rng.Float64() * 40, rng.Float64() * 40}
	}
	ref := map[uint32][]float64{}
	appendOne := func() {
		v := vec()
		id, err := db.Append(v)
		must(err)
		ref[id] = v
	}
	oct := vecmath.FirstOctant(3)
	for _, normal := range [][]float64{{1, 1, 1}, {1, 3, 2}} {
		_, err := db.AddNormal(normal, oct)
		must(err)
	}
	for i := 0; i < 200; i++ {
		appendOne()
	}
	must(db.Checkpoint())
	for i := 0; i < 8; i++ {
		appendOne()
		id := uint32(rng.Intn(200))
		if _, live := ref[id]; live {
			v := vec()
			must(db.Update(id, v))
			ref[id] = v
		}
		if i%2 == 0 {
			id := uint32(10 + 7*i)
			must(db.Remove(id))
			delete(ref, id)
		}
	}
	must(db.Close())
	return ref
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names
}

// TestOnDiskCompatibility pins both single-store layouts against
// directories written before the store topologies were unified. The
// fixtures under testdata/ were produced by running compatHistory
// against service.Open(dir, Options{Dim: 3}) and Options{Dim: 3,
// Paged: true} at commit ab1bcda, the last with a separate single
// mode, and copying the two directories in unchanged. Each must
// reopen with zero Options to the same contents and LSN cursor, and
// the same history replayed here must leave the same files behind —
// no shards.meta, no shard-000/ — byte for byte on the flat layout.
func TestOnDiskCompatibility(t *testing.T) {
	for _, tc := range []struct {
		name  string
		paged bool
	}{{"flat", false}, {"paged", true}} {
		t.Run(tc.name, func(t *testing.T) {
			fixture := filepath.Join("testdata", tc.name)
			fresh := filepath.Join(t.TempDir(), "fresh")
			db, err := Open(fresh, Options{Dim: 3, Paged: tc.paged})
			if err != nil {
				t.Fatal(err)
			}
			ref := compatHistory(t, db)

			names := dirNames(t, fixture)
			if got := dirNames(t, fresh); !slices.Equal(got, names) {
				t.Fatalf("fresh directory holds %v, the fixture %v", got, names)
			}
			if !tc.paged {
				for _, name := range names {
					want, err := os.ReadFile(filepath.Join(fixture, name))
					if err != nil {
						t.Fatal(err)
					}
					got, err := os.ReadFile(filepath.Join(fresh, name))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s differs from the fixture's", name)
					}
				}
			}

			old := filepath.Join(t.TempDir(), "old")
			if err := os.Mkdir(old, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range names {
				b, err := os.ReadFile(filepath.Join(fixture, name))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(old, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			db, err = Open(old, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.Len() != len(ref) || db.Dim() != 3 || db.Shards() != 1 || db.NumIndexes() != 2 {
				t.Fatalf("reopened Len=%d Dim=%d Shards=%d NumIndexes=%d, want %d/3/1/2",
					db.Len(), db.Dim(), db.Shards(), db.NumIndexes(), len(ref))
			}
			// 200 appends before the checkpoint, 20 mutations after it.
			if db.LastLSN() != 220 || db.ReplayedRecords() != 20 || db.Paged() != tc.paged {
				t.Fatalf("reopened LastLSN=%d ReplayedRecords=%d Paged=%v, want 220/20/%v",
					db.LastLSN(), db.ReplayedRecords(), db.Paged(), tc.paged)
			}
			for _, q := range []core.Query{
				{A: []float64{1, 1, 1}, B: 45, Op: core.LE},
				{A: []float64{1, 3, 2}, B: 130, Op: core.GE},
				{A: []float64{2, 0.5, 1}, B: 60, Op: core.LE},
				{A: []float64{0, 1, 4}, B: 90, Op: core.GE},
				{A: []float64{1, 1, 1}, B: 1000, Op: core.LE},
			} {
				want := bruteForce(ref, q)
				got := sortedQuery(t, db, q)
				if !slices.Equal(got, want) {
					t.Fatalf("query %v: ids %v, brute force says %v", q, got, want)
				}
			}
		})
	}
}
