package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"planar/internal/vecmath"
)

// TestStressCaptureStateUnderWriters takes replication cuts while
// synchronous or grouped writers run, on one partition and on three.
// CaptureState reads the LSN and every partition's snapshot under
// all of the partitions' read locks; a cut that took them one at a
// time would let a commit land between two partitions' copies. Every
// cut is put to the test a replica would: materialised, opened and fed
// the primary's log from its LSN on, it must replay without diverging
// into the primary's final state, every partition's snapshot byte for
// byte. make race-shard runs it under the race detector.
func TestStressCaptureStateUnderWriters(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch int
	}{{"sync", 0}, {"grouped", 16}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					captureUnderWriters(t, shards, tc.batch)
				})
			}
		})
	}
}

func captureUnderWriters(t *testing.T, shards, batch int) {
	primary, err := Open(t.TempDir(), Options{
		Dim: 2, Shards: shards,
		IngestBatch: batch, IngestBlock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if _, err := primary.AddNormal([]float64{1, 2}, vecmath.FirstOctant(2)); err != nil {
		t.Fatal(err)
	}

	// Each writer mutates only the points it appended, so no
	// operation can fail for a reason other than a bug. A write
	// takes some ten microseconds, so perWriter of them can be
	// over before the cutter is scheduled three times: the
	// writers go on until it has the cuts the test needs.
	const writers, perWriter, minCuts = 4, 250, 3
	var taken atomic.Int32
	ctx, writersDone := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			vec := func() []float64 { return []float64{rng.Float64() * 10, rng.Float64() * 10} }
			for i := 0; i < perWriter || taken.Load() < minCuts; i++ {
				id, err := primary.Append(vec())
				if err == nil && i%3 == 0 {
					err = primary.Update(id, vec())
				}
				if err == nil && i%7 == 0 {
					err = primary.Remove(id)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	go func() {
		wg.Wait()
		writersDone()
	}()

	// A cut every hundred commits or so, until the writers finish.
	var cuts []*ReplState
	for ctx.Err() == nil {
		cut := primary.CaptureState()
		cuts = append(cuts, cut)
		taken.Add(1)
		_ = primary.WaitLSN(ctx, cut.LSN+100) // fails only when the writers are done
	}
	if len(cuts) < minCuts {
		t.Fatalf("only %d cuts overlapped the writers", len(cuts))
	}

	wantLSN, want := snapshotBytes(t, primary)
	for _, cut := range cuts {
		dir := t.TempDir()
		if err := MaterializeReplState(dir, cut); err != nil {
			t.Fatal(err)
		}
		replica, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if replica.LastLSN() != cut.LSN {
			t.Fatalf("cut at LSN %d opened at LSN %d", cut.LSN, replica.LastLSN())
		}
		tailInto(t, primary, replica, cut.LSN+1)
		gotLSN, got := snapshotBytes(t, replica)
		if gotLSN != wantLSN || !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("cut at LSN %d replayed to LSN %d and a different store than the primary's at LSN %d", cut.LSN, gotLSN, wantLSN)
		}
		if err := replica.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
