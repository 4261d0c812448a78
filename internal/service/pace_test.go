package service

import (
	"testing"
	"time"
)

// TestSynchronousMutationsHoldTheFloor pins the pacing floor: on both
// tiers no synchronous Append, Update or Remove returns sooner than
// the tier's floor.
func TestSynchronousMutationsHoldTheFloor(t *testing.T) {
	for _, tc := range []struct {
		name  string
		paged bool
		floor time.Duration
	}{
		{"ram", false, minMutation},
		{"paged", true, minPagedMutation},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, err := Open(t.TempDir(), Options{Dim: 2, Paged: tc.paged})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if db.floor != tc.floor {
				t.Fatalf("floor %v, want %v", db.floor, tc.floor)
			}
			timed := func(op string, f func() error) {
				t.Helper()
				start := time.Now()
				if err := f(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				if d := time.Since(start); d < tc.floor {
					t.Fatalf("%s returned after %v, below the %v floor", op, d, tc.floor)
				}
			}
			for i := 0; i < 64; i++ {
				var id uint32
				timed("append", func() (err error) { id, err = db.Append([]float64{1, float64(i)}); return })
				timed("update", func() error { return db.Update(id, []float64{2, float64(i)}) })
				if i%2 == 0 {
					timed("remove", func() error { return db.Remove(id) })
				}
			}
		})
	}
}
