package codec

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"planar/internal/core"
	"planar/internal/pager"
	"planar/internal/vecmath"
)

// mutateMulti applies a deterministic append/update/remove stream.
func mutateMulti(t *testing.T, rng *rand.Rand, m *core.Multi, dim, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		switch rng.Intn(4) {
		case 0, 1:
			if _, err := m.Append(v); err != nil {
				t.Fatal(err)
			}
		case 2:
			id := uint32(rng.Intn(m.Store().Cap()))
			if m.Store().Live(id) {
				if err := m.Update(id, v); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			id := uint32(rng.Intn(m.Store().Cap()))
			if m.Store().Live(id) {
				if err := m.Remove(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// storeState deep-copies the observable point-store state.
func storeState(m *core.Multi) (data []float64, live []bool, free []uint32) {
	d, l := m.Store().RawRows()
	return append([]float64(nil), d...), append([]bool(nil), l...), m.Store().FreeList()
}

// TestIncrementalMatchesFullCheckpoint is the golden equivalence pin:
// two stores take the same mutation stream, one checkpoints the dirty
// delta and the other rewrites everything; after recovery the two
// states must be identical down to the raw rows.
func TestIncrementalMatchesFullCheckpoint(t *testing.T) {
	const dim = 4
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "incr.plnr"), filepath.Join(dir, "full.plnr")}
	for _, p := range paths {
		m := buildPagedMulti(t, rand.New(rand.NewSource(77)), dim, 1200)
		ps, err := CreatePaged(p, dim, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Checkpoint(m, 1); err != nil {
			t.Fatal(err)
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Reopen both, mutate identically, checkpoint each its own way
	// across several epochs (re-dirtied rows, frees, recycled pages).
	finish := make([]*core.Multi, 2)
	for i, p := range paths {
		ps, m, err := OpenPaged(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(78))
		for epoch := 0; epoch < 3; epoch++ {
			mutateMulti(t, rng, m, dim, 400)
			if i == 1 {
				// The oracle: every row dirty makes Checkpoint rewrite
				// the complete data-page set, the v1 full flush.
				m.Store().MarkAllDirty()
			}
			if err := ps.Checkpoint(m, uint64(2+epoch)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
		_, finish[i], err = OpenPaged(p, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
	}

	di, li, fi := storeState(finish[0])
	df, lf, ff := storeState(finish[1])
	if !reflect.DeepEqual(di, df) {
		t.Fatal("incremental and full checkpoints recovered different row data")
	}
	if !reflect.DeepEqual(li, lf) {
		t.Fatal("incremental and full checkpoints recovered different live sets")
	}
	if !reflect.DeepEqual(fi, ff) {
		t.Fatal("incremental and full checkpoints recovered different free lists")
	}
	compareMultis(t, rand.New(rand.NewSource(79)), finish[0], finish[1], dim)
}

// TestCheckpointWithWriterEnabled runs the real background writer
// against a paged store across mutation epochs: writeback must make
// progress (pages counted) and checkpoints must still recover exactly.
func TestCheckpointWithWriterEnabled(t *testing.T) {
	const dim = 4
	path := filepath.Join(t.TempDir(), "writer.plnr")
	m := buildPagedMulti(t, rand.New(rand.NewSource(70)), dim, 1500)
	ps, err := CreatePaged(path, dim, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Checkpoint(m, 1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2, m2, err := OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ps2.StartWriter(pager.WriterOptions{Interval: time.Millisecond, BatchPages: 16}, m2.WritebackIndexes)
	rng := rand.New(rand.NewSource(71))
	for epoch := 0; epoch < 3; epoch++ {
		mutateMulti(t, rng, m2, dim, 500)
		// Callers drain before checkpointing (the service layer does
		// this outside its write lock); it also makes the writeback
		// page counter deterministic for the assertion below.
		if err := ps2.DrainWriteback(); err != nil {
			t.Fatal(err)
		}
		if err := ps2.Checkpoint(m2, uint64(2+epoch)); err != nil {
			t.Fatal(err)
		}
	}
	st := ps2.Stats()
	if st.WritebackPages == 0 {
		t.Fatalf("background writer flushed nothing across 3 epochs (stats %+v)", st)
	}
	if st.WritebackErrors != 0 {
		t.Fatalf("background writer reported %d errors", st.WritebackErrors)
	}
	wantData, wantLive, wantFree := storeState(m2)
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}

	_, m3, err := OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	gotData, gotLive, gotFree := storeState(m3)
	if !reflect.DeepEqual(wantData, gotData) || !reflect.DeepEqual(wantLive, gotLive) || !reflect.DeepEqual(wantFree, gotFree) {
		t.Fatal("writer-enabled checkpoints recovered different store state")
	}
	compareMultis(t, rand.New(rand.NewSource(72)), m2, m3, dim)
}

// TestCrashDuringWritebackEveryOffset kills the store at every byte
// offset while background writeback is in flight: a committed epoch,
// then uncommitted mutations whose dirty tree frames were shadow-
// written (but never published by a superblock flip). Every truncation
// and every flipped byte must either fail loudly on open or recover
// the committed epoch byte-identically — the shadow writes are dead
// bytes until the flip. The top-level sweeps write back from a
// reopened store; the fresh leg from a never-reopened one, whose trees
// its first checkpoint adopted.
func TestCrashDuringWritebackEveryOffset(t *testing.T) {
	const dim = 3
	dir := t.TempDir()

	// crashImage builds a store of 25 points and one small index (a
	// small file keeps the sweep small), commits it as LSN 1, then
	// mutates it and shadow-writes the dirty tree frames exactly as the
	// background writer would — and crashes before any commit. It
	// returns the committed store state and the file's bytes.
	crashImage := func(t *testing.T, path string, reopen bool) (data []float64, live []bool, free []uint32, blob []byte) {
		t.Helper()
		store, err := core.NewPointStore(dim)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.NewMulti(store)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(90))
		for i := 0; i < 25; i++ {
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
		if _, err := m.AddNormal([]float64{0.3, 0.5, 0.7}, signs); err != nil {
			t.Fatal(err)
		}

		ps, err := CreatePaged(path, dim, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.Checkpoint(m, 1); err != nil {
			t.Fatal(err)
		}
		if reopen {
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			if ps, m, err = OpenPaged(path, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		data, live, free = storeState(m)

		mutateMulti(t, rng, m, dim, 40)
		n, err := m.WritebackIndexes(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("writeback wrote nothing: the crash sweep would prove nothing")
		}
		if err := ps.Close(); err != nil {
			t.Fatal(err)
		}
		if blob, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		return data, live, free, blob
	}

	mpath := filepath.Join(dir, "mut.plnr")
	sweep := func(t *testing.T, path string, reopen bool) {
		wantData, wantLive, wantFree, blob := crashImage(t, path, reopen)
		verify := func(t *testing.T, mutated []byte) {
			t.Helper()
			if err := os.WriteFile(mpath, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			gps, gm, err := OpenPaged(mpath, 1<<20)
			if err != nil {
				return // loud failure is an allowed outcome
			}
			lsn := gps.CheckpointLSN()
			switch lsn {
			case 1:
				d, l, f := storeState(gm)
				if !reflect.DeepEqual(d, wantData) || !reflect.DeepEqual(l, wantLive) || !reflect.DeepEqual(f, wantFree) {
					gps.Close()
					t.Fatalf("recovered LSN 1 with different store state")
				}
			case 0:
				// The create-time superblock: only reachable when the
				// corruption killed the LSN-1 superblock. An empty store.
				if gm.Store().Len() != 0 {
					gps.Close()
					t.Fatalf("recovered LSN 0 with %d points", gm.Store().Len())
				}
			default:
				gps.Close()
				t.Fatalf("recovered impossible LSN %d (no commit ever wrote it)", lsn)
			}
			gps.Close()
		}

		t.Run("truncate", func(t *testing.T) {
			for cut := 0; cut < len(blob); cut++ {
				verify(t, blob[:cut])
			}
		})
		t.Run("corrupt", func(t *testing.T) {
			mut := make([]byte, len(blob))
			for off := 0; off < len(blob); off++ {
				copy(mut, blob)
				mut[off] ^= 0x5a
				verify(t, mut)
			}
		})
	}

	sweep(t, filepath.Join(dir, "wb.plnr"), true)
	t.Run("fresh", func(t *testing.T) {
		sweep(t, filepath.Join(dir, "fresh.plnr"), false)
	})
}

// TestWritebackStressMatchesRAMTwin runs every writer of a paged
// store's trees at once: the background writer on a 1 ms interval, a
// goroutine draining it in a loop, foreground appends/updates/removes
// and checkpoints. One append lands outside the +1 octant's
// translation: it widens those indexes' delta while writebacks may
// hold their trees, and every tree stays paged throughout. After close
// and reopen the store must equal a RAM twin that took the same
// mutation stream, id for id.
func TestWritebackStressMatchesRAMTwin(t *testing.T) {
	const dim = 4
	path := filepath.Join(t.TempDir(), "stress.plnr")
	build := func() *core.Multi {
		m := buildPagedMulti(t, rand.New(rand.NewSource(60)), dim, 1500)
		// Coordinate 0 at the top of mutateMulti's [0,100) range gives
		// the octant-(-1,…) index a translation no later point leaves.
		if _, err := m.Append([]float64{100, 50, 50, 50}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddNormal([]float64{0.7, 0.2, 0.5, 0.9}, vecmath.SignPattern{-1, 1, 1, 1}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	twin := build()
	ps, err := CreatePaged(path, dim, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Checkpoint(build(), 1); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2, m2, err := OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ps2.StartWriter(pager.WriterOptions{Interval: time.Millisecond, BatchPages: 16}, m2.WritebackIndexes)
	stop, drained := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				drained <- nil
				return
			default:
			}
			if err := ps2.DrainWriteback(); err != nil {
				drained <- err
				return
			}
		}
	}()

	rngPaged, rngTwin := rand.New(rand.NewSource(61)), rand.New(rand.NewSource(61))
	outside := []float64{-5, 40, 40, 40} // negative in an octant-(+1) coordinate
	for epoch := 0; epoch < 6; epoch++ {
		mutateMulti(t, rngPaged, m2, dim, 300)
		mutateMulti(t, rngTwin, twin, dim, 300)
		if epoch == 2 {
			for _, m := range []*core.Multi{m2, twin} {
				if _, err := m.Append(outside); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < m2.NumIndexes(); i++ {
				if !m2.Index(i).Tree().Paged() {
					t.Fatalf("index %d is not paged after the out-of-translation append", i)
				}
			}
		}
		if err := ps2.Checkpoint(m2, uint64(2+epoch)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if st := ps2.Stats(); st.WritebackPages == 0 || st.WritebackErrors != 0 {
		t.Fatalf("writer stats %+v: want pages written and no errors", st)
	}
	if err := ps2.Close(); err != nil {
		t.Fatal(err)
	}

	ps3, m3, err := OpenPaged(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer ps3.Close()
	wd, wl, wf := storeState(twin)
	gd, gl, gf := storeState(m3)
	if !reflect.DeepEqual(wd, gd) || !reflect.DeepEqual(wl, gl) || !reflect.DeepEqual(wf, gf) {
		t.Fatal("reopened store differs from its RAM twin")
	}
	compareMultis(t, rand.New(rand.NewSource(62)), twin, m3, dim)
}
