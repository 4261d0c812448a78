package service

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"planar/internal/core"
	"planar/internal/replog"
)

// TestSteadyStateWriteAllocs pins the write path's envelope beside
// core's TestSteadyStateQueryAllocs: an acknowledged Update through
// the service — apply, sequence, journal, publish to a full
// replication ring — allocates exactly what the same Update costs a
// bare core.Multi. The sequencer and the WAL contribute nothing.
func TestSteadyStateWriteAllocs(t *testing.T) {
	const dim, n = 4, 2048
	db, err := Open(t.TempDir(), Options{Dim: dim, SyncEveryWrite: false})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	store, _ := core.NewPointStore(dim)
	bare, _ := core.NewMulti(store)

	rng := rand.New(rand.NewSource(14))
	vec := func() []float64 {
		return []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	for i := 0; i < n; i++ {
		v := vec()
		if _, err := db.Append(v); err != nil {
			t.Fatal(err)
		}
		if _, err := bare.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	normal, signs := []float64{1, 2, 3, 4}, []int8{1, 1, 1, 1}
	if _, err := db.AddNormal(normal, signs); err != nil {
		t.Fatal(err)
	}
	if _, err := bare.AddNormal(normal, signs); err != nil {
		t.Fatal(err)
	}

	// Both sides see the same ids and vectors, so their trees split and
	// merge alike and any difference is the envelope's.
	updates := make([][]float64, 256)
	for i := range updates {
		updates[i] = vec()
	}
	var next int
	measure := func(update func(id uint32, v []float64) error) float64 {
		next = 0
		run := func() {
			if err := update(uint32(next*7%n), updates[next%len(updates)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i <= replog.DefaultRingSize; i++ {
			run() // fill the ring and grow the WAL scratch
		}
		return testing.AllocsPerRun(1000, run)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	viaService := measure(db.Update)
	viaCore := measure(bare.Update)
	t.Logf("allocs per Update: service %v, core %v", viaService, viaCore)
	if viaService != viaCore {
		t.Fatalf("Update through the service allocates %v times, core.Multi alone %v: the commit envelope must add 0", viaService, viaCore)
	}
}
