package codec

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

func buildPagedMulti(t *testing.T, rng *rand.Rand, dim, n int) *core.Multi {
	t.Helper()
	store, err := core.NewPointStore(dim)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMulti(store)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		if _, err := m.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	signs := make(vecmath.SignPattern, dim)
	for i := range signs {
		signs[i] = 1
	}
	for k := 0; k < 3; k++ {
		normal := make([]float64, dim)
		for j := range normal {
			normal[j] = 0.1 + rng.Float64()
		}
		if _, err := m.AddNormal(normal, signs); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func queryIDs(t *testing.T, m *core.Multi, a []float64, b float64) []uint32 {
	t.Helper()
	ids, _, err := m.InequalityIDs(core.Query{A: a, B: b, Op: core.LE})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func compareMultis(t *testing.T, rng *rand.Rand, want, got *core.Multi, dim int) {
	t.Helper()
	if want.Store().Len() != got.Store().Len() {
		t.Fatalf("store length: want %d, got %d", want.Store().Len(), got.Store().Len())
	}
	if want.NumIndexes() != got.NumIndexes() {
		t.Fatalf("index count: want %d, got %d", want.NumIndexes(), got.NumIndexes())
	}
	for q := 0; q < 25; q++ {
		a := make([]float64, dim)
		for j := range a {
			a[j] = 0.01 + rng.Float64()
		}
		b := rng.Float64() * 100 * float64(dim)
		w, g := queryIDs(t, want, a, b), queryIDs(t, got, a, b)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("query %d: want %d ids, got %d", q, len(w), len(g))
		}
	}
}

// TestPagedStoreRoundtrip checkpoints a Multi, reopens it cold (trees
// in paged mode), verifies query identity, mutates the restored copy,
// checkpoints again through the paged-tree flush path, and reopens
// once more.
func TestPagedStoreRoundtrip(t *testing.T) {
	const dim = 4
	path := filepath.Join(t.TempDir(), "pages.plnr")

	// The checkpoint adopts its Multi's trees onto the file, so the
	// Multi closes with the store; m is a RAM twin built the same way.
	rng := rand.New(rand.NewSource(42))
	m := buildPagedMulti(t, rng, dim, 3000)
	ps, err := CreatePaged(path, dim, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Checkpoint(buildPagedMulti(t, rand.New(rand.NewSource(42)), dim, 3000), 7); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2, m2, err := OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps2.CheckpointLSN(); got != 7 {
		t.Fatalf("checkpoint LSN = %d, want 7", got)
	}
	compareMultis(t, rand.New(rand.NewSource(1)), m, m2, dim)
	for i := 0; i < m2.NumIndexes(); i++ {
		if !m2.Index(i).Tree().Paged() {
			t.Fatalf("restored index %d is not paged", i)
		}
	}

	// Mutate both copies identically, checkpoint the paged one (its
	// trees flush copy-on-write pages), and reopen.
	for i := 0; i < 500; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		if _, err := m.Append(v); err != nil {
			t.Fatal(err)
		}
		if _, err := m2.Append(v); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			id := uint32(rng.Intn(3000))
			if err := m.Remove(id); err != nil {
				t.Fatal(err)
			}
			if err := m2.Remove(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareMultis(t, rand.New(rand.NewSource(2)), m, m2, dim)
	if err := ps2.Checkpoint(m2, 8); err != nil {
		t.Fatal(err)
	}
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}

	ps3, m3, err := OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer ps3.Close()
	compareMultis(t, rand.New(rand.NewSource(3)), m, m3, dim)
}

// TestPagedStoreReclaimsPages repeatedly checkpoints the same RAM
// Multi: each pass dumps fresh tree pages and frees the previous set,
// so the file must stop growing after the free list warms up.
func TestPagedStoreReclaimsPages(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const dim = 3
	m := buildPagedMulti(t, rng, dim, 2000)
	ps, err := CreatePaged(filepath.Join(t.TempDir(), "p.plnr"), dim, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for lsn := uint64(1); lsn <= 2; lsn++ {
		if err := ps.Checkpoint(m, lsn); err != nil {
			t.Fatal(err)
		}
	}
	n := ps.NumPages()
	for lsn := uint64(3); lsn <= 8; lsn++ {
		if err := ps.Checkpoint(m, lsn); err != nil {
			t.Fatal(err)
		}
	}
	if grew := ps.NumPages() - n; grew > 0 {
		t.Fatalf("file grew %d pages across steady-state checkpoints", grew)
	}
}

// TestPagedStoreEmpty round-trips a store with no points and no
// indexes (the CreatePaged initial state).
func TestPagedStoreEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.plnr")
	ps, err := CreatePaged(path, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps2, m, err := OpenPaged(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ps2.Close()
	if m.Store().Dim() != 5 || m.Store().Len() != 0 || m.NumIndexes() != 0 {
		t.Fatalf("empty store came back dim=%d len=%d idx=%d", m.Store().Dim(), m.Store().Len(), m.NumIndexes())
	}
}
