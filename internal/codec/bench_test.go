package codec

import (
	"math/rand"
	"path/filepath"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

var benchSink *core.Multi

// BenchmarkSnapshotRecover times the snapshot layout's persistence
// path at 100 000 points of dimension 4 under 4 indexes: save is
// Capture + Save (a checkpoint, fsync included), load is Load (read,
// decode, checksum), and restore is Restore (adopt the rows, bulk-load
// every index). Restore adopts its snapshot, so each restore loads a
// fresh one off the clock.
func BenchmarkSnapshotRecover(b *testing.B) {
	const n, dim, indexes = 100000, 4, 4
	rng := rand.New(rand.NewSource(1))
	store, err := core.NewPointStore(dim)
	if err != nil {
		b.Fatal(err)
	}
	v := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		if _, err := store.Append(v); err != nil {
			b.Fatal(err)
		}
	}
	m, err := core.NewMulti(store)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]core.NormalSpec, indexes)
	for i := range specs {
		c := make([]float64, dim)
		for j := range c {
			c[j] = 1 + rng.Float64()
		}
		specs[i] = core.NormalSpec{Normal: c, Signs: vecmath.FirstOctant(dim)}
	}
	if _, err := m.AddNormals(specs); err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "snapshot.plnr")
	if err := Capture(m).Save(path); err != nil {
		b.Fatal(err)
	}

	b.Run("save", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := Capture(m).Save(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Load(path); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			snap, err := Load(path)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if benchSink, err = snap.Restore(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
