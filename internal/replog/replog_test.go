package replog

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"planar/internal/wal"
)

func TestCommitAssignsDenseLSNs(t *testing.T) {
	s := NewSequencer(1, 8, 1)
	for i := 0; i < 5; i++ {
		lsn, err := s.Commit(wal.OpAppend, uint32(i), []float64{1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("commit %d got LSN %d", i, lsn)
		}
	}
	if s.Last() != 5 || s.Next() != 6 {
		t.Fatalf("last=%d next=%d", s.Last(), s.Next())
	}
}

func TestReadFromRingAndTooOld(t *testing.T) {
	s := NewSequencer(1, 4, 1)
	for i := 0; i < 10; i++ {
		if _, err := s.Commit(wal.OpAppend, uint32(i), []float64{float64(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Ring holds LSNs 7..10.
	if base := s.RingBase(); base != 7 {
		t.Fatalf("ring base %d, want 7", base)
	}
	recs, tooOld := s.ReadFrom(8, 0)
	if tooOld || len(recs) != 3 || recs[0].LSN != 8 || recs[2].LSN != 10 {
		t.Fatalf("ReadFrom(8): tooOld=%v recs=%v", tooOld, recs)
	}
	if _, tooOld = s.ReadFrom(3, 0); !tooOld {
		t.Fatal("evicted LSN not reported tooOld")
	}
	recs, tooOld = s.ReadFrom(11, 0)
	if tooOld || recs != nil {
		t.Fatalf("future LSN: tooOld=%v recs=%v", tooOld, recs)
	}
	recs, _ = s.ReadFrom(7, 2)
	if len(recs) != 2 || recs[0].LSN != 7 {
		t.Fatalf("max clamp: %v", recs)
	}
}

func TestCommitBatchAssignsContiguousRange(t *testing.T) {
	s := NewSequencer(1, 8, 1)
	if _, err := s.Commit(wal.OpAppend, 0, []float64{0}, nil); err != nil {
		t.Fatal(err)
	}
	recs := []wal.Record{
		{Op: wal.OpAppend, ID: 1, Vec: []float64{1}},
		{Op: wal.OpUpdate, ID: 0, Vec: []float64{2}},
		{Op: wal.OpRemove, ID: 1},
	}
	var journaled uint64
	base, err := s.CommitBatch(recs, func(b uint64) error {
		journaled = b
		// LSNs are assigned before the journal runs so the WAL
		// append can frame the batch.
		for j, r := range recs {
			if r.LSN != b+uint64(j) {
				t.Errorf("journal saw record %d with LSN %d, want %d", j, r.LSN, b+uint64(j))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if base != 2 || journaled != 2 {
		t.Fatalf("base=%d journaled=%d, want 2", base, journaled)
	}
	if s.Last() != 4 || s.Next() != 5 {
		t.Fatalf("last=%d next=%d, want 4/5", s.Last(), s.Next())
	}
	got, tooOld := s.ReadFrom(1, 0)
	if tooOld || len(got) != 4 {
		t.Fatalf("ReadFrom(1): tooOld=%v n=%d", tooOld, len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) {
			t.Fatalf("ring LSN order: %v", got)
		}
	}
	// Ring vectors are copies: mutating the caller's batch must not
	// reach replication readers.
	recs[0].Vec[0] = 99
	if got[1].Vec[0] != 1 {
		t.Fatal("ring shares vector storage with the committed batch")
	}

	// A failed journal assigns nothing.
	wantErr := errors.New("disk full")
	if _, err := s.CommitBatch([]wal.Record{{Op: wal.OpRemove, ID: 0}}, func(uint64) error { return wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("journal error not surfaced: %v", err)
	}
	if s.Next() != 5 {
		t.Fatalf("failed batch advanced sequence to %d", s.Next())
	}
	if _, err := s.CommitBatch(nil, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestCommitBatchWakesWaiters(t *testing.T) {
	s := NewSequencer(1, 8, 1)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Wait(ctx, 3)
	}()
	time.Sleep(5 * time.Millisecond)
	recs := []wal.Record{
		{Op: wal.OpRemove, ID: 0},
		{Op: wal.OpRemove, ID: 1},
		{Op: wal.OpRemove, ID: 2},
	}
	if _, err := s.CommitBatch(recs, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("wait across batch commit: %v", err)
	}
}

func TestCommitAtEnforcesSequence(t *testing.T) {
	s := NewSequencer(5, 8, 1)
	if err := s.CommitAt(5, wal.OpAppend, 0, []float64{1}, nil); err != nil {
		t.Fatal(err)
	}
	err := s.CommitAt(7, wal.OpAppend, 1, []float64{1}, nil)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("gap accepted: %v", err)
	}
	err = s.CommitAt(5, wal.OpAppend, 1, []float64{1}, nil)
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("replayed LSN accepted: %v", err)
	}
}

func TestJournalRunsUnderSequenceLock(t *testing.T) {
	s := NewSequencer(1, 8, 1)
	var order []uint64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Commit(wal.OpRemove, 0, nil, func(lsn uint64) error {
				order = append(order, lsn) // safe: called under s.mu
				return nil
			})
		}()
	}
	wg.Wait()
	if len(order) != 32 {
		t.Fatalf("journaled %d records", len(order))
	}
	for i, lsn := range order {
		if lsn != uint64(i+1) {
			t.Fatalf("journal order %v", order)
		}
	}
}

func TestWaitBlocksUntilCommit(t *testing.T) {
	s := NewSequencer(1, 8, 1)
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Wait(ctx, 3)
	}()
	for i := 0; i < 3; i++ {
		time.Sleep(5 * time.Millisecond)
		s.Commit(wal.OpRemove, 0, nil, nil)
	}
	if err := <-done; err != nil {
		t.Fatalf("wait: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Wait(ctx, 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait on future LSN: %v", err)
	}
}

func TestReadSegmentFrom(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.log")
	w, err := wal.Create(path, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if err := w.Append(wal.Record{Op: wal.OpAppend, LSN: uint64(i), ID: uint32(i), Vec: []float64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	recs, err := ReadSegmentFrom(path, 4, 0, func(id uint32) uint32 { return id * 10 })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[0].LSN != 4 || recs[0].ID != 40 {
		t.Fatalf("recs=%v", recs)
	}
	recs, err = ReadSegmentFrom(path, 1, 2, nil)
	if err != nil || len(recs) != 2 {
		t.Fatalf("max: recs=%v err=%v", recs, err)
	}
	recs, err = ReadSegmentFrom(filepath.Join(t.TempDir(), "missing.log"), 1, 0, nil)
	if err != nil || recs != nil {
		t.Fatalf("missing file: recs=%v err=%v", recs, err)
	}
}

// TestRingMatchesSliceModel drives the circular ring with a seeded mix
// of Commit and CommitBatch (batch sizes from 1 to beyond the ring
// capacity) and compares every observable — RingBase, the tooOld
// boundary, and ReadFrom for every from/max — against a plain slice
// holding the whole history.
func TestRingMatchesSliceModel(t *testing.T) {
	const dim = 3
	for _, ringSize := range []int{1, 2, 5, 8} {
		rng := rand.New(rand.NewSource(int64(ringSize)))
		start := uint64(1 + rng.Intn(20))
		s := NewSequencer(start, ringSize, dim)
		var model []wal.Record // model[i] has LSN start+i
		gen := func() wal.Record {
			r := wal.Record{Op: wal.Op(1 + rng.Intn(3)), ID: rng.Uint32()}
			if r.Op != wal.OpRemove {
				r.Vec = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			}
			return r
		}
		check := func(step int) {
			t.Helper()
			next := start + uint64(len(model))
			wantBase := start
			if len(model) > ringSize {
				wantBase = next - uint64(ringSize)
			}
			if got := s.RingBase(); got != wantBase {
				t.Fatalf("ring %d step %d: RingBase %d, want %d", ringSize, step, got, wantBase)
			}
			if s.Next() != next || s.Last() != next-1 {
				t.Fatalf("ring %d step %d: next=%d last=%d, want %d/%d", ringSize, step, s.Next(), s.Last(), next, next-1)
			}
			for from := uint64(0); from <= next+1; from++ {
				for max := 0; max <= ringSize+1; max++ {
					got, tooOld := s.ReadFrom(from, max)
					lo := from
					if lo == 0 {
						lo = 1
					}
					if wantOld := lo < wantBase && lo < next; tooOld != wantOld {
						t.Fatalf("ring %d step %d: ReadFrom(%d,%d) tooOld=%v, want %v", ringSize, step, from, max, tooOld, wantOld)
					}
					var want []wal.Record
					if !tooOld && lo < next {
						want = model[lo-start:]
						if max > 0 && len(want) > max {
							want = want[:max]
						}
					}
					if len(got) != len(want) {
						t.Fatalf("ring %d step %d: ReadFrom(%d,%d) returned %d records, want %d", ringSize, step, from, max, len(got), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("ring %d step %d: ReadFrom(%d,%d)[%d] = %+v, want %+v", ringSize, step, from, max, i, got[i], want[i])
						}
					}
				}
			}
		}
		check(0)
		for step := 1; step <= 60; step++ {
			if rng.Intn(2) == 0 {
				r := gen()
				lsn, err := s.Commit(r.Op, r.ID, r.Vec, nil)
				if err != nil {
					t.Fatal(err)
				}
				r.LSN = lsn
				model = append(model, r)
			} else {
				batch := make([]wal.Record, 1+rng.Intn(ringSize+3))
				for j := range batch {
					batch[j] = gen()
				}
				if _, err := s.CommitBatch(batch, nil); err != nil {
					t.Fatal(err)
				}
				model = append(model, batch...) // CommitBatch stamped the LSNs
			}
			check(step)
		}
	}
}

// TestReadFromDoesNotAliasRing pins the copy-out contract: records
// returned by ReadFrom keep their values while a second goroutine
// overwrites every ring slot several times over. Run with -race.
func TestReadFromDoesNotAliasRing(t *testing.T) {
	const ringSize, dim = 8, 2
	s := NewSequencer(1, ringSize, dim)
	vecOf := func(lsn uint64) []float64 { return []float64{float64(lsn), -float64(lsn)} }
	for lsn := uint64(1); lsn <= ringSize; lsn++ {
		if _, err := s.Commit(wal.OpUpdate, uint32(lsn), vecOf(lsn), nil); err != nil {
			t.Fatal(err)
		}
	}
	got, tooOld := s.ReadFrom(1, 0)
	if tooOld || len(got) != ringSize {
		t.Fatalf("ReadFrom(1): tooOld=%v n=%d", tooOld, len(got))
	}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < 4*ringSize; i++ {
			lsn := s.Next()
			if _, err := s.Commit(wal.OpUpdate, uint32(lsn), vecOf(lsn), nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	// Read concurrently with the overwriting commits, then once more
	// after all of them.
	for pass := 0; pass < 2; pass++ {
		for i, r := range got {
			lsn := uint64(i + 1)
			if r.LSN != lsn || r.ID != uint32(lsn) || !reflect.DeepEqual(r.Vec, vecOf(lsn)) {
				t.Fatalf("pass %d: record %d changed under later commits: %+v", pass, i, r)
			}
		}
		if pass == 0 {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	}
	if base := s.RingBase(); base != 4*ringSize+1 {
		t.Fatalf("ring base %d after %d further commits", base, 4*ringSize)
	}
	// A returned vector has no spare capacity reaching into its
	// neighbour's storage.
	if v := got[0].Vec; cap(v) != len(v) {
		t.Fatalf("returned vector has cap %d > len %d", cap(v), len(v))
	}
}

// TestCommitDoesNotAllocate pins the constant-cost commit: on a full
// ring with nobody waiting, Commit and CommitBatch allocate nothing.
func TestCommitDoesNotAllocate(t *testing.T) {
	const ringSize = 16
	s := NewSequencer(1, ringSize, 2)
	vec := []float64{1, 2}
	batch := []wal.Record{{Op: wal.OpAppend, ID: 1, Vec: vec}, {Op: wal.OpRemove, ID: 1}}
	journal := func(uint64) error { return nil }
	run := func() {
		if _, err := s.Commit(wal.OpUpdate, 7, vec, journal); err != nil {
			t.Fatal(err)
		}
		if _, err := s.CommitBatch(batch, journal); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < ringSize; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("commit on a full ring allocated %v times per run, want 0", allocs)
	}
}
