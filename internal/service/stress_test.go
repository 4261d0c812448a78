package service

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

// stressTopologies are the two shapes the lock discipline has to hold
// in: the unsharded store every default deployment runs, where all
// traffic meets on one partition lock and answers bypass the gather,
// and a partitioned one.
var stressTopologies = []int{1, 4}

// TestStressConcurrentMixedOps hammers one store with concurrent
// appends, updates, removes and every query variant. Run under -race
// (make race-shard) it proves the per-shard lock discipline: writers
// contend only within a shard, readers only take read locks, and the
// scatter-gather merge never observes a torn store.
func TestStressConcurrentMixedOps(t *testing.T) {
	for _, shards := range stressTopologies {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { stressConcurrentMixedOps(t, shards) })
	}
}

func stressConcurrentMixedOps(t *testing.T, shards int) {
	st, err := Open(t.TempDir(), Options{Shards: shards, Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	oct := vecmath.FirstOctant(3)
	for _, normal := range [][]float64{{1, 1, 1}, {2, 1, 3}} {
		if _, err := st.AddNormal(normal, oct); err != nil {
			t.Fatal(err)
		}
	}
	seed := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		if _, err := st.Append([]float64{seed.Float64() * 60, seed.Float64() * 60, seed.Float64() * 60}); err != nil {
			t.Fatal(err)
		}
	}

	// Liveness errors are expected — two writers may race to remove
	// the same id — but nothing else is.
	acceptable := func(err error) bool {
		return err == nil || strings.Contains(err.Error(), "not live")
	}

	const (
		writers   = 4
		readers   = 4
		opsEach   = 400
		idHorizon = 2600 // appends push live ids a bit past the preload
	)
	var wg sync.WaitGroup
	fail := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < opsEach; i++ {
				v := []float64{rng.Float64() * 60, rng.Float64() * 60, rng.Float64() * 60}
				switch rng.Intn(4) {
				case 0:
					if _, err := st.Append(v); err != nil {
						fail <- err
						return
					}
				case 1:
					if err := st.Update(uint32(rng.Intn(idHorizon)), v); !acceptable(err) {
						fail <- err
						return
					}
				default:
					if err := st.Remove(uint32(rng.Intn(idHorizon))); !acceptable(err) {
						fail <- err
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for i := 0; i < opsEach; i++ {
				q := core.Query{
					A:  []float64{rng.Float64() * 5, rng.Float64() * 5, rng.Float64() * 5},
					B:  rng.Float64() * 400,
					Op: core.LE,
				}
				switch rng.Intn(4) {
				case 0:
					ids, stq, err := st.Query(q)
					if err != nil {
						fail <- err
						return
					}
					if stq.Accepted+stq.Matched != len(ids) {
						t.Errorf("stats report %d results, got %d ids", stq.Accepted+stq.Matched, len(ids))
						return
					}
				case 1:
					if _, _, err := st.Count(q); err != nil {
						fail <- err
						return
					}
				case 2:
					q.A = []float64{1 + rng.Float64(), 1 + rng.Float64(), 1 + rng.Float64()}
					if _, _, err := st.TopK(q, 1+rng.Intn(8)); err != nil {
						fail <- err
						return
					}
				default:
					if _, _, err := st.QueryBatch(q.A, q.Op, []float64{q.B, q.B * 0.5}); err != nil {
						fail <- err
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// The store is still coherent: a fresh query agrees with a
	// per-shard brute-force pass.
	q := core.Query{A: []float64{1, 1, 1}, B: 90, Op: core.LE}
	ids, _, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	brute := 0
	for _, p := range st.parts {
		p.multi.Store().Each(func(_ uint32, v []float64) bool {
			if q.Satisfies(v) {
				brute++
			}
			return true
		})
	}
	if len(ids) != brute {
		t.Fatalf("post-stress query returned %d ids, brute force says %d", len(ids), brute)
	}
}

// TestStressDurableConcurrent runs a shorter mixed workload against a
// durable store (per-shard WALs, auto-checkpoints) and verifies the
// reopened store matches what was in memory at close.
func TestStressDurableConcurrent(t *testing.T) {
	for _, shards := range stressTopologies {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { stressDurableConcurrent(t, shards) })
	}
}

func stressDurableConcurrent(t *testing.T, shards int) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Shards: shards, Dim: 2, CheckpointEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 200; i++ {
				switch rng.Intn(3) {
				case 0:
					st.Append([]float64{rng.Float64() * 10, rng.Float64() * 10})
				case 1:
					st.Update(uint32(rng.Intn(600)), []float64{rng.Float64() * 10, rng.Float64() * 10})
				default:
					st.Query(core.Query{A: []float64{1, 2}, B: rng.Float64() * 30, Op: core.LE})
				}
			}
		}(w)
	}
	wg.Wait()
	q := core.Query{A: []float64{1, 2}, B: 18, Op: core.LE}
	want, _, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != wantLen {
		t.Fatalf("reopened Len=%d want %d", st2.Len(), wantLen)
	}
	got, _, err := st2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !equalIDs(got, want) {
		t.Fatal("reopened store answers differently")
	}
}

// TestShardedReadIsOneCut checks that a read over several partitions
// sees all of them in one state. One goroutine appends [1, 1] until
// the store holds cutPoints points while the test keeps asking
// a = (1, 1), b = 10, ≤, which every point satisfies: appends are
// sequential, so the answer at any one LSN is the id prefix 0..m−1,
// and a read that took its partitions one after another, around
// commits, answers something else. Both answers of a two-threshold
// batch must be the same prefix.
func TestShardedReadIsOneCut(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { shardedReadIsOneCut(t, shards) })
	}
}

func shardedReadIsOneCut(t *testing.T, shards int) {
	const cutPoints = 20000
	st, err := Open(t.TempDir(), Options{Shards: shards, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// Bounded: the appender stops at cutPoints however slowly the
		// reads go.
		for i := 0; i < cutPoints; i++ {
			if _, err := st.Append([]float64{1, 1}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// prefix reports the m for which ids is a permutation of 0..m−1,
	// or −1.
	seen := make([]bool, cutPoints)
	prefix := func(ids []uint32) int {
		clear(seen)
		for _, id := range ids {
			if int(id) >= len(ids) || seen[id] {
				return -1
			}
			seen[id] = true
		}
		return len(ids)
	}
	a := []float64{1, 1}
	reads, bad := 0, 0
	var first string
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		default:
		}
		ids, _, err := st.Query(core.Query{A: a, B: 10, Op: core.LE})
		if err != nil {
			t.Fatal(err)
		}
		batch, _, err := st.QueryBatch(a, core.LE, []float64{10, 20})
		if err != nil {
			t.Fatal(err)
		}
		m := prefix(ids)
		m10, m20 := prefix(batch[0]), prefix(batch[1])
		reads += 2
		if m < 0 {
			bad++
			if first == "" {
				first = fmt.Sprintf("a query's %d ids are not an id prefix", len(ids))
			}
		}
		if m10 < 0 || m10 != m20 {
			bad++
			if first == "" {
				first = fmt.Sprintf("a batch answered %d and %d ids, not one id prefix", len(batch[0]), len(batch[1]))
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d reads were not one cut; first: %s", bad, reads, first)
	}
	t.Logf("%d reads, all id prefixes", reads)
}
