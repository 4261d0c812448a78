package pager

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond for up to 5s; the writer runs on wall-clock
// ticks, so tests observe its effects instead of sleeping fixed
// amounts.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestCacheDirtyCounter(t *testing.T) {
	c := NewCache(1<<20, PayloadSize)
	fr, err := c.Get(1, fillSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.DirtyFrames(); got != 0 {
		t.Fatalf("clean cache reports %d dirty frames", got)
	}
	c.MarkDirty(fr)
	c.MarkDirty(fr) // idempotent: must not double-count
	if got := c.DirtyFrames(); got != 1 {
		t.Fatalf("one dirty frame counted as %d", got)
	}
	nf := c.NewFrame(2) // born dirty
	if got := c.DirtyFrames(); got != 2 {
		t.Fatalf("NewFrame did not count as dirty: %d", got)
	}
	c.MarkClean(fr)
	c.MarkClean(fr) // idempotent the other way
	if got := c.DirtyFrames(); got != 1 {
		t.Fatalf("MarkClean left %d dirty frames, want 1", got)
	}
	c.Unpin(fr)
	c.Unpin(nf)
	c.Drop(2) // dropping a dirty frame must release its count
	if got := c.DirtyFrames(); got != 0 {
		t.Fatalf("Drop left %d dirty frames", got)
	}
	if st := c.Stats(); st.DirtyFrames != 0 {
		t.Fatalf("Stats dirty frames = %d, want 0", st.DirtyFrames)
	}
}

// TestCacheDirtySkipsAndSoftOverflow fills a floor-sized cache with
// dirty unpinned frames and streams clean reads through: eviction
// must spin past the dirty frames (counted, not silent) and record
// the soft-capacity overflow when nothing was evictable.
func TestCacheDirtySkipsAndSoftOverflow(t *testing.T) {
	c := NewCache(0, PayloadSize) // floor capacity
	target := c.Stats().Target
	for k := uint64(0); k < uint64(target)+8; k++ {
		fr, err := c.Get(k, fillSeed(byte(k)))
		if err != nil {
			t.Fatal(err)
		}
		c.MarkDirty(fr)
		c.Unpin(fr)
	}
	st := c.Stats()
	if st.DirtySkips == 0 {
		t.Fatalf("eviction never recorded a dirty skip (stats %+v)", st)
	}
	if st.SoftOverflows == 0 {
		t.Fatalf("overflowing an all-dirty cache recorded no soft overflow (stats %+v)", st)
	}
	if st.DirtyFrames != st.Resident {
		t.Fatalf("dirty frames %d != resident %d: a dirty frame was evicted", st.DirtyFrames, st.Resident)
	}
}

func TestCachePressureHook(t *testing.T) {
	c := NewCache(1<<20, PayloadSize)
	var fired atomic.Int64
	c.SetPressure(3, func() { fired.Add(1) })
	frames := make([]*Frame, 0, 5)
	for k := uint64(0); k < 5; k++ {
		fr, err := c.Get(k, fillSeed(byte(k)))
		if err != nil {
			t.Fatal(err)
		}
		c.MarkDirty(fr)
		frames = append(frames, fr)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("pressure hook fired %d times crossing the threshold once, want 1", got)
	}
	for _, fr := range frames {
		c.MarkClean(fr)
	}
	for _, fr := range frames {
		c.MarkDirty(fr)
	}
	if got := fired.Load(); got != 2 {
		t.Fatalf("pressure hook fired %d times after a second crossing, want 2", got)
	}
	for _, fr := range frames {
		c.Unpin(fr)
	}
}

func TestWriterIntervalFlush(t *testing.T) {
	var remaining atomic.Int64
	remaining.Store(10)
	w := NewWriter(WriterOptions{Interval: time.Millisecond, BatchPages: 4}, func(max int) (int, error) {
		n := remaining.Load()
		if n > int64(max) {
			n = int64(max)
		}
		remaining.Add(-n)
		return int(n), nil
	})
	defer w.Close()
	waitFor(t, "interval writeback to drain the backlog", func() bool { return remaining.Load() == 0 })
	st := w.Stats()
	if st.Pages != 10 {
		t.Fatalf("writer flushed %d pages, want 10", st.Pages)
	}
	if st.Bytes != 10*PageSize {
		t.Fatalf("writer bytes %d, want %d", st.Bytes, 10*PageSize)
	}
	if st.Rounds == 0 || st.Errors != 0 {
		t.Fatalf("stats %+v: want rounds > 0, errors == 0", st)
	}
}

func TestWriterKick(t *testing.T) {
	var remaining atomic.Int64
	remaining.Store(5)
	// Interval effectively never fires; only Kick can explain a flush.
	w := NewWriter(WriterOptions{Interval: time.Hour, BatchPages: 8}, func(max int) (int, error) {
		n := remaining.Swap(0)
		return int(n), nil
	})
	defer w.Close()
	time.Sleep(5 * time.Millisecond)
	if remaining.Load() != 5 {
		t.Fatal("writer flushed without a kick before its interval")
	}
	w.Kick()
	waitFor(t, "kicked writeback round", func() bool { return remaining.Load() == 0 })
}

func TestWriterDrainAndClose(t *testing.T) {
	var remaining atomic.Int64
	remaining.Store(17)
	w := NewWriter(WriterOptions{Interval: time.Hour, BatchPages: 4}, func(max int) (int, error) {
		n := remaining.Load()
		if n > int64(max) {
			n = int64(max)
		}
		remaining.Add(-n)
		return int(n), nil
	})
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if remaining.Load() != 0 {
		t.Fatalf("Drain left %d pages behind", remaining.Load())
	}
	if st := w.Stats(); st.Pages != 17 {
		t.Fatalf("Drain accounted %d pages, want 17", st.Pages)
	}
	w.Close()
	w.Close() // idempotent
	w.Kick()  // harmless after Close
}

func TestWriterErrorIsAdvisory(t *testing.T) {
	boom := errors.New("disk full")
	var fail atomic.Bool
	fail.Store(true)
	var backlog atomic.Int64
	backlog.Store(2)
	w := NewWriter(WriterOptions{Interval: time.Hour, BatchPages: 4}, func(max int) (int, error) {
		if fail.Load() {
			return 0, boom
		}
		if backlog.Load() > 0 {
			backlog.Add(-1)
			return 1, nil
		}
		return 0, nil
	})
	defer w.Close()
	w.Kick()
	waitFor(t, "failed round to be counted", func() bool { return w.Stats().Errors == 1 })
	// The writer must survive the error and serve later rounds.
	fail.Store(false)
	w.Kick()
	waitFor(t, "post-error round", func() bool { return backlog.Load() < 2 })
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if backlog.Load() != 0 {
		t.Fatalf("Drain left %d pages behind", backlog.Load())
	}
}

// TestWriterPressureIntegration wires a cache's pressure hook to a
// writer whose flush callback cleans frames, and checks that dirtying
// past the high-water mark alone (no interval, no manual kick) brings
// the dirty count back down. The hook fires only on the exact upward
// crossing, so the test holds mu while it dirties all ten frames: the
// kicked round's first callback blocks until the backlog is complete
// and then drains it in one round of 4+4+2.
func TestWriterPressureIntegration(t *testing.T) {
	c := NewCache(1<<20, PayloadSize)
	var mu sync.Mutex
	var backlog []*Frame
	var batches []int
	w := NewWriter(WriterOptions{Interval: time.Hour, BatchPages: 4}, func(max int) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for len(backlog) > 0 && n < max {
			fr := backlog[len(backlog)-1]
			backlog = backlog[:len(backlog)-1]
			c.MarkClean(fr)
			c.Unpin(fr)
			n++
		}
		batches = append(batches, n)
		return n, nil
	})
	defer w.Close()
	c.SetPressure(6, w.Kick)
	mu.Lock()
	for k := uint64(0); k < 10; k++ {
		fr, err := c.Get(k, fillSeed(byte(k)))
		if err != nil {
			mu.Unlock()
			t.Fatal(err)
		}
		c.MarkDirty(fr)
		backlog = append(backlog, fr)
	}
	mu.Unlock()
	waitFor(t, "pressure kick to clean the cache", func() bool { return c.DirtyFrames() == 0 })
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(batches, []int{4, 4, 2}) {
		t.Fatalf("kicked round flushed %v, want [4 4 2]", batches)
	}
}
