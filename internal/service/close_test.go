package service

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"planar/internal/core"
	"planar/internal/vecmath"
)

// TestCloseUnderWriters races Close against writers on the direct and
// the grouped route, on RAM and paged stores at N = 1 and 2. Every
// write either acks or is refused with ErrClosed, and after a reopen
// every acked append and update is there: a closed store never acks a
// write it then loses.
func TestCloseUnderWriters(t *testing.T) {
	for _, paged := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			for _, grouped := range []bool{false, true} {
				name := fmt.Sprintf("paged=%v/shards=%d/grouped=%v", paged, shards, grouped)
				t.Run(name, func(t *testing.T) { closeUnderWriters(t, paged, shards, grouped) })
			}
		}
	}
}

func closeUnderWriters(t *testing.T, paged bool, shards int, grouped bool) {
	dir := t.TempDir()
	opts := Options{Dim: 3, Shards: shards, Paged: paged}
	if grouped {
		opts.IngestBatch, opts.IngestBlock = 8, true
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 300
	// want[w] holds the last acked vector of every point writer w made.
	want := make([]map[uint32][]float64, writers)
	var acked, refused atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		want[w] = map[uint32][]float64{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []uint32
			for i := 0; i < perWriter; i++ {
				v := []float64{float64(w + 1), float64(i + 1), 1}
				var id uint32
				var err error
				if i%3 == 2 && len(mine) > 0 {
					id = mine[len(mine)-1]
					err = db.Update(id, v)
				} else {
					id, err = db.Append(v)
				}
				switch {
				case err == nil:
					if _, ok := want[w][id]; !ok {
						mine = append(mine, id)
					}
					want[w][id] = v
					acked.Add(1)
				case errors.Is(err, ErrClosed):
					refused.Add(1)
				default:
					t.Errorf("writer %d, write %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	for acked.Load() < writers*perWriter/4 {
		runtime.Gosched()
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	re, err := Open(dir, Options{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	points := 0
	for w := range want {
		for id, v := range want[w] {
			got, err := re.vector(id)
			if err != nil {
				t.Fatalf("acked point %d lost: %v", id, err)
			}
			if !slices.Equal(got, v) {
				t.Fatalf("point %d reopened as %v, last acked write was %v", id, got, v)
			}
			points++
		}
	}
	if got := re.Len(); got != points {
		t.Fatalf("reopened store holds %d points, %d were acked", got, points)
	}
	if refused.Load() == 0 {
		t.Fatal("no write was refused: Close raced none of them")
	}
}

// TestQueryAfterClose closes a checkpointed and reopened store — on
// the paged tier its trees are faulted from the page file — and asks
// every query method, a checkpoint and a new index of it: each is
// refused with ErrClosed instead of reading a closed file.
func TestQueryAfterClose(t *testing.T) {
	for _, paged := range []bool{false, true} {
		t.Run(fmt.Sprintf("paged=%v", paged), func(t *testing.T) {
			eachTopology(t, func(t *testing.T, shards int) {
				dir := filepath.Join(t.TempDir(), "db")
				db, err := Open(dir, Options{Dim: 3, Shards: shards, Paged: paged})
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5000; i++ {
					if _, err := db.Append([]float64{float64(i%97 + 1), float64(i%89 + 1), float64(i%83 + 1)}); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := db.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(3)); err != nil {
					t.Fatal(err)
				}
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = Open(dir, Options{}); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}

				q := core.Query{A: []float64{1, 2, 3}, B: 200, Op: core.LE}
				_, _, errQuery := db.Query(q)
				_, _, errBatch := db.QueryBatch(q.A, q.Op, []float64{100, 200})
				_, _, errTopK := db.TopK(q, 5)
				_, _, errCount := db.Count(q)
				_, _, errBounds := db.SelectivityBounds(q)
				_, errExplain := db.Explain(q)
				_, errIndex := db.AddNormal([]float64{3, 2, 1}, vecmath.FirstOctant(3))
				for name, err := range map[string]error{
					"Query": errQuery, "QueryBatch": errBatch, "TopK": errTopK,
					"Count": errCount, "SelectivityBounds": errBounds, "Explain": errExplain,
					"AddNormal": errIndex, "Checkpoint": db.Checkpoint(),
				} {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("%s after Close: %v, want ErrClosed", name, err)
					}
				}
			})
		})
	}
}

// TestCheckpointRacesClose races checkpoints against Close on RAM and
// paged stores at N = 1 and 2. A paged checkpoint drains the
// background writer before it takes its partition's lock; Close must
// not close the page file under that drain. Each trial dirties a
// store whose page cache is far smaller than its trees, then one
// goroutine alternates checkpoints with updates while the test
// updates and closes: every checkpoint and update either succeeds or
// is refused with ErrClosed.
func TestCheckpointRacesClose(t *testing.T) {
	for _, paged := range []bool{false, true} {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("paged=%v/shards=%d", paged, shards), func(t *testing.T) {
				for trial := 0; trial < 5; trial++ {
					checkpointRacesClose(t, paged, shards)
				}
			})
		}
	}
}

func checkpointRacesClose(t *testing.T, paged bool, shards int) {
	const points, updates = 3000, 200
	db, err := Open(t.TempDir(), Options{Dim: 3, Shards: shards, Paged: paged, PageCacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	vec := func(i int) []float64 { return []float64{float64(i%97 + 1), float64(i%89 + 1), float64(i%83 + 1)} }
	for i := 0; i < points; i++ {
		if _, err := db.Append(vec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.AddNormal([]float64{1, 2, 3}, vecmath.FirstOctant(3)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	update := func(i int) error {
		if err := db.Update(uint32(i%points), vec(i*7)); err != nil && !errors.Is(err, ErrClosed) {
			return err
		}
		return nil
	}
	done := make(chan error, 1)
	go func() {
		for round := 0; ; round++ {
			err := db.Checkpoint()
			if errors.Is(err, ErrClosed) {
				done <- nil
				return
			}
			if err != nil {
				done <- fmt.Errorf("checkpoint: %w", err)
				return
			}
			for i := 0; i < updates; i++ {
				if err := update(round*updates + i); err != nil {
					done <- err
					return
				}
			}
		}
	}()
	for i := 0; i < updates; i++ {
		if err := update(points + i); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
