package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"planar/internal/btree"
	"planar/internal/core"
	"planar/internal/vecmath"
)

// requirePaged fails unless every index of m runs on a paged tree.
func requirePaged(t *testing.T, m *core.Multi, when string) {
	t.Helper()
	for i := 0; i < m.NumIndexes(); i++ {
		if !m.Index(i).Tree().Paged() {
			t.Fatalf("%s: index %d is not paged", when, i)
		}
	}
}

// TestPagedFirstCheckpointAdoptsTrees checks that a store which is
// never reopened runs on paged trees from its first checkpoint on:
// the trees fault through the store's cache, answer like a RAM twin —
// also to readers racing the checkpoint, which swaps the trees under
// the Multi's lock held exclusively, so each reader runs wholly before
// or wholly after the swap — and stay paged across later checkpoints.
func TestPagedFirstCheckpointAdoptsTrees(t *testing.T) {
	const dim = 4
	m := buildPagedMulti(t, rand.New(rand.NewSource(30)), dim, 1500)
	twin := buildPagedMulti(t, rand.New(rand.NewSource(30)), dim, 1500)
	ps, err := CreatePaged(filepath.Join(t.TempDir(), "fresh.plnr"), dim, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for i := 0; i < m.NumIndexes(); i++ {
		if m.Index(i).Tree().Paged() {
			t.Fatalf("index %d is paged before any checkpoint", i)
		}
	}

	a, b := []float64{0.4, 1.1, 0.7, 0.2}, 120.0
	want := queryIDs(t, twin, a, b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids, _, err := m.InequalityIDs(core.Query{A: a, B: b, Op: core.LE})
				if err != nil || len(ids) != len(want) {
					t.Errorf("reader racing the first checkpoint: %d ids (err %v), want %d", len(ids), err, len(want))
					return
				}
			}
		}()
	}
	err = ps.Checkpoint(m, 1)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	requirePaged(t, m, "after the first checkpoint")
	compareMultis(t, rand.New(rand.NewSource(31)), twin, m, dim)
	if st := ps.Stats(); st.Misses == 0 {
		t.Fatalf("queries never faulted through the store's cache (stats %+v)", st)
	}

	rm, rt := rand.New(rand.NewSource(32)), rand.New(rand.NewSource(32))
	for lsn := uint64(2); lsn <= 4; lsn++ {
		mutateMulti(t, rm, m, dim, 300)
		mutateMulti(t, rt, twin, dim, 300)
		if err := ps.Checkpoint(m, lsn); err != nil {
			t.Fatal(err)
		}
		requirePaged(t, m, "after a later checkpoint")
		compareMultis(t, rand.New(rand.NewSource(int64(lsn))), twin, m, dim)
	}
}

// TestPagedCheckpointRacesReadersAndWriteback runs a fresh paged
// store's first checkpoint and two later ones, each after a batch of
// mutations, while query readers, a writeback loop and a caller of
// every lock-taking Index accessor run throughout. The Multi's lock
// is the only lock an index has, so under the race detector this is
// the check that it guards the trees the checkpoint adopts and
// flushes. After each checkpoint the store must answer like its RAM
// twin.
func TestPagedCheckpointRacesReadersAndWriteback(t *testing.T) {
	const dim = 4
	m := buildPagedMulti(t, rand.New(rand.NewSource(40)), dim, 1500)
	twin := buildPagedMulti(t, rand.New(rand.NewSource(40)), dim, 1500)
	ps, err := CreatePaged(filepath.Join(t.TempDir(), "race.plnr"), dim, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	loop := func(step func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		loop(func() error {
			ids, _, err := m.InequalityIDs(core.Query{A: []float64{0.4, 1.1, 0.7, 0.2}, B: 120, Op: core.LE})
			if err != nil {
				return fmt.Errorf("reader: %v", err)
			}
			seen := make(map[uint32]bool, len(ids))
			for _, id := range ids {
				if seen[id] {
					return fmt.Errorf("reader: id %d answered twice", id)
				}
				seen[id] = true
			}
			return nil
		})
	}
	loop(func() error {
		_, err := m.WritebackIndexes(8)
		return err
	})
	loop(func() error {
		for i := 0; i < m.NumIndexes(); i++ {
			ix := m.Index(i)
			_, _ = ix.Len(), ix.Shift()
			if ix.MemoryBytes() <= 0 || ix.Tree() == nil {
				return fmt.Errorf("index %d has no tree", i)
			}
		}
		return nil
	})

	rm, rt := rand.New(rand.NewSource(41)), rand.New(rand.NewSource(41))
	for lsn := uint64(1); lsn <= 3; lsn++ {
		mutateMulti(t, rm, m, dim, 200)
		mutateMulti(t, rt, twin, dim, 200)
		if err := ps.Checkpoint(m, lsn); err != nil {
			t.Fatal(err)
		}
		requirePaged(t, m, fmt.Sprintf("after checkpoint %d", lsn))
		compareMultis(t, rand.New(rand.NewSource(int64(lsn))), twin, m, dim)
	}
}

// TestPagedFreshCheckpointMatchesReopened runs one mutation stream
// through a never-reopened store and through a twin closed and
// reopened after the same first checkpoint: the second checkpoint
// must write exactly as many pages on both, and both must recover the
// same state.
func TestPagedFreshCheckpointMatchesReopened(t *testing.T) {
	const dim = 4
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "fresh.plnr"), filepath.Join(dir, "reopened.plnr")}
	pages := make([]int64, 2)
	for i, path := range paths {
		m := buildPagedMulti(t, rand.New(rand.NewSource(33)), dim, 2000)
		ps, err := CreatePaged(path, dim, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Checkpoint(m, 1); err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			if ps, m, err = OpenPaged(path, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		mutateMulti(t, rand.New(rand.NewSource(34)), m, dim, 100)
		if err := ps.Checkpoint(m, 2); err != nil {
			t.Fatal(err)
		}
		pages[i] = ps.Stats().IncrementalPages
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if pages[0] != pages[1] {
		t.Fatalf("second checkpoint wrote %d pages on the never-reopened store, %d on its reopened twin", pages[0], pages[1])
	}

	var got [2]*core.Multi
	for i, path := range paths {
		ps, m, err := OpenPaged(path, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		got[i] = m
	}
	d0, l0, f0 := storeState(got[0])
	d1, l1, f1 := storeState(got[1])
	if !reflect.DeepEqual(d0, d1) || !reflect.DeepEqual(l0, l1) || !reflect.DeepEqual(f0, f1) {
		t.Fatal("never-reopened and reopened stores recovered different state")
	}
	compareMultis(t, rand.New(rand.NewSource(35)), got[0], got[1], dim)
}

// TestPagedAdoptsIndexAddedAfterReopen adds an index to a reopened
// store: it is built in RAM, and the next checkpoint adopts it onto
// the store's pages like the first checkpoint adopted the others.
func TestPagedAdoptsIndexAddedAfterReopen(t *testing.T) {
	const dim = 4
	path := filepath.Join(t.TempDir(), "add.plnr")
	ps, err := CreatePaged(path, dim, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Checkpoint(buildPagedMulti(t, rand.New(rand.NewSource(36)), dim, 1200), 1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	twin := buildPagedMulti(t, rand.New(rand.NewSource(36)), dim, 1200)
	ps, m, err := OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	normal, signs := []float64{0.9, 0.3, 0.6, 1.2}, vecmath.FirstOctant(dim)
	for _, mm := range []*core.Multi{m, twin} {
		if ok, err := mm.AddNormal(normal, signs); err != nil || !ok {
			t.Fatalf("AddNormal = %v, %v", ok, err)
		}
	}
	added := m.Index(m.NumIndexes() - 1)
	if added.Tree().Paged() {
		t.Fatal("an index added after the reopen is paged before any checkpoint")
	}
	if err := ps.Checkpoint(m, 2); err != nil {
		t.Fatal(err)
	}
	requirePaged(t, m, "after the checkpoint following AddNormal")
	compareMultis(t, rand.New(rand.NewSource(37)), twin, m, dim)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps, m, err = OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	requirePaged(t, m, "after the second reopen")
	compareMultis(t, rand.New(rand.NewSource(38)), twin, m, dim)
}

// octantAnswers answers a fixed set of queries in every octant of m's
// dimension, sorted ids per query.
func octantAnswers(t *testing.T, m *core.Multi, seed int64) [][]uint32 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	dim := m.Store().Dim()
	var out [][]uint32
	for q := 0; q < 24; q++ {
		a := make([]float64, dim)
		for i := range a {
			a[i] = 0.1 + rng.Float64()
			if rng.Intn(2) == 0 {
				a[i] = -a[i]
			}
		}
		qry := core.Query{A: a, B: (rng.Float64() - 0.5) * 200, Op: core.LE}
		ids, _, err := m.InequalityIDs(qry)
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		var want []uint32
		m.Store().Each(func(id uint32, v []float64) bool {
			if qry.Satisfies(v) {
				want = append(want, id)
			}
			return true
		})
		if len(ids) != len(want) || (len(ids) > 0 && !reflect.DeepEqual(ids, want)) {
			t.Fatalf("query %d: %d ids, brute force %d", q, len(ids), len(want))
		}
		out = append(out, ids)
	}
	return out
}

// TestPagedWidenSurvivesReopen widens the translation of every octant
// of a paged store and checks that a checkpoint, close and reopen keep
// each index's Shift and every answer identical.
func TestPagedWidenSurvivesReopen(t *testing.T) {
	const dim = 3
	path := filepath.Join(t.TempDir(), "widen.plnr")
	rng := rand.New(rand.NewSource(39))
	store, err := core.NewPointStore(dim)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMulti(store)
	if err != nil {
		t.Fatal(err)
	}
	vec := func(scale float64) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = (rng.Float64()*2 - 1) * scale
		}
		return v
	}
	for i := 0; i < 400; i++ {
		if _, err := m.Append(vec(10)); err != nil {
			t.Fatal(err)
		}
	}
	for mask := 0; mask < 1<<dim; mask++ {
		signs := make(vecmath.SignPattern, dim)
		for i := range signs {
			signs[i] = int8(1 - 2*(mask>>i&1))
		}
		if _, err := m.AddNormal([]float64{0.3 + rng.Float64(), 0.3 + rng.Float64(), 0.3 + rng.Float64()}, signs); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := CreatePaged(path, dim, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Checkpoint(m, 1); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		for i := 0; i < 150; i++ {
			v := vec(20 + 10*float64(round) + float64(i))
			id := uint32(rng.Intn(store.Cap()))
			switch {
			case i%3 == 0 || !store.Live(id):
				if _, err := m.Append(v); err != nil {
					t.Fatal(err)
				}
			case i%3 == 1:
				if err := m.Update(id, v); err != nil {
					t.Fatal(err)
				}
			default:
				if err := m.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		requirePaged(t, m, "after widening")
		shifts := make([]float64, m.NumIndexes())
		for i := range shifts {
			if shifts[i] = m.Index(i).Shift(); shifts[i] <= 0 {
				t.Fatalf("round %d: index %d never widened", round, i)
			}
		}
		want := octantAnswers(t, m, int64(round))
		if err := ps.Checkpoint(m, uint64(round+2)); err != nil {
			t.Fatal(err)
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
		if ps, m, err = OpenPaged(path, 1<<16); err != nil {
			t.Fatal(err)
		}
		store = m.Store()
		requirePaged(t, m, "after reopen")
		for i := range shifts {
			if got := m.Index(i).Shift(); got != shifts[i] {
				t.Fatalf("round %d: index %d Shift %v after reopen, %v before", round, i, got, shifts[i])
			}
		}
		if got := octantAnswers(t, m, int64(round)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: answers changed across checkpoint and reopen", round)
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedMetaVersions pins the v3 meta's one addition, the key
// frame base after each index's delta: a v2 blob decodes with base =
// ⟨c, δ⟩, the frame its trees were keyed in, and a v3 blob cut inside
// base fails as corrupt.
func TestPagedMetaVersions(t *testing.T) {
	const dim = 3
	normal := []float64{0.5, 1.5, 2.5}
	signs := vecmath.SignPattern{1, -1, 1}
	delta := []float64{0, 7.25, 1.5}
	tree := (&btree.PagedMeta{}).AppendTo(nil)

	// The v2 layout, written out by hand: the v3 one without base.
	v2 := binary.LittleEndian.AppendUint32(nil, pagedMagic)
	v2 = append(v2, 2)
	v2 = binary.LittleEndian.AppendUint32(v2, dim)
	v2 = binary.LittleEndian.AppendUint64(v2, 0) // data length
	v2 = binary.LittleEndian.AppendUint64(v2, 0) // header length
	v2 = binary.LittleEndian.AppendUint32(v2, 0) // data pages
	v2 = binary.LittleEndian.AppendUint32(v2, 0) // header pages
	v2 = binary.LittleEndian.AppendUint32(v2, 1) // indexes
	for _, v := range normal {
		v2 = binary.LittleEndian.AppendUint64(v2, math.Float64bits(v))
	}
	for _, s := range signs {
		v2 = append(v2, byte(s))
	}
	for _, v := range delta {
		v2 = binary.LittleEndian.AppendUint64(v2, math.Float64bits(v))
	}
	v2 = binary.LittleEndian.AppendUint32(v2, uint32(len(tree)))
	v2 = append(v2, tree...)
	d, err := decodePagedUserMeta(v2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.indexes[0].base, vecmath.Dot(normal, delta); got != want {
		t.Fatalf("v2 base = %v, want ⟨c, δ⟩ = %v", got, want)
	}

	meta := &btree.PagedMeta{}
	v3 := encodePagedUserMeta(dim, 0, nil, 0, nil, []core.IndexPersist{{
		Normal: normal, Signs: signs, Delta: delta, Base: 3.75, Meta: meta,
	}})
	if d, err = decodePagedUserMeta(v3); err != nil {
		t.Fatal(err)
	}
	if got := d.indexes[0].base; got != 3.75 {
		t.Fatalf("v3 base = %v, want 3.75", got)
	}
	baseAt := len(v2) - 4 - len(tree) // v3 puts base where v2's tree meta length starts
	for cut := baseAt; cut < baseAt+8; cut++ {
		if _, err := decodePagedUserMeta(v3[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("v3 meta cut %d bytes into base: err %v, want ErrCorrupt", cut-baseAt, err)
		}
	}
}
