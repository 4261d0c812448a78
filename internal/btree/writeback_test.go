package btree

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"planar/internal/pager"
)

// mutateTwins applies an identical random mutation stream to a RAM
// tree and its paged twin.
func mutateTwins(t *testing.T, rng *rand.Rand, ram, paged *Tree, ops int) {
	t.Helper()
	for op := 0; op < ops; op++ {
		if rng.Intn(3) < 2 {
			k := math.Round(rng.Float64()*8000) / 8
			id := uint32(rng.Intn(1 << 20))
			if ram.Insert(k, id) != paged.Insert(k, id) {
				t.Fatalf("Insert(%v,%d) diverged", k, id)
			}
		} else {
			if e, ok := ram.Min(); ok {
				if ram.Delete(e.Key, e.ID) != paged.Delete(e.Key, e.ID) {
					t.Fatalf("Delete(%v) diverged", e)
				}
			}
		}
	}
}

// TestWritebackPagedThenFlush checks the background-writeback path:
// shadow-writing dirty frames mid-epoch must leave FlushPaged with
// nothing to rewrite for those slots, and the committed file must
// reopen to the same tree as an untouched RAM twin.
func TestWritebackPagedThenFlush(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	var entries []Entry
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{Key: math.Round(rng.Float64()*8000) / 8, ID: uint32(i)})
	}
	ram, paged, f, _ := buildPaged(t, entries, 1<<20)
	defer f.Close()

	mutateTwins(t, rng, ram, paged, 600)
	n, err := paged.WritebackPaged(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("writeback found no dirty frames after 600 mutations")
	}
	// A second pass finds nothing: everything is flushed.
	n2, err := paged.WritebackPaged(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("second writeback rewrote %d pages", n2)
	}

	m, delta, err := paged.FlushPaged()
	if err != nil {
		t.Fatal(err)
	}
	if delta < n {
		t.Fatalf("flush delta %d < %d pages already written back", delta, n)
	}
	if err := f.Commit(m.AppendTo(nil), 2); err != nil {
		t.Fatal(err)
	}

	reopened, err := pager.Open(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	m2, err := DecodePagedMeta(reopened.Meta())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := OpenPaged(reopened, pager.NewCache(1<<20, pager.PayloadSize), m2)
	if err != nil {
		t.Fatal(err)
	}
	comparePagedRAM(t, ram, cold, rng, 1000)
}

// TestWritebackPagedRemark mutates slots again after their frames
// were written back: the re-mark hook must re-dirty the frame so the
// later write reaches disk (same page, still pre-flip, still safe).
func TestWritebackPagedRemark(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	var entries []Entry
	for i := 0; i < 2000; i++ {
		entries = append(entries, Entry{Key: math.Round(rng.Float64()*8000) / 8, ID: uint32(i)})
	}
	ram, paged, f, _ := buildPaged(t, entries, 1<<20)
	defer f.Close()

	for round := 0; round < 4; round++ {
		mutateTwins(t, rng, ram, paged, 300)
		if _, err := paged.WritebackPaged(1 << 20); err != nil {
			t.Fatal(err)
		}
	}
	// The final round's mutations hit frames already flushed in the
	// earlier rounds; those writes must still be committed.
	reopenMatches(t, ram, paged, f, rng)
}

// TestWritebackPagedEvictRefault runs writeback under a floor-sized
// cache: flushed frames become evictable mid-epoch, get evicted by
// scan pressure, refault from their shadow pages, and may be mutated
// again — the committed result must still match the RAM twin.
func TestWritebackPagedEvictRefault(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	var entries []Entry
	for i := 0; i < 20000; i++ {
		entries = append(entries, Entry{Key: rng.Float64() * 1000, ID: uint32(i)})
	}
	ram, paged, f, cache := buildPaged(t, entries, 0) // floor-sized cache
	defer f.Close()

	for round := 0; round < 3; round++ {
		mutateTwins(t, rng, ram, paged, 400)
		if _, err := paged.WritebackPaged(1 << 20); err != nil {
			t.Fatal(err)
		}
		// Scan to push flushed frames out of the tiny cache.
		if !reflect.DeepEqual(collectAll(ram), collectAll(paged)) {
			t.Fatalf("round %d: scan diverges after writeback", round)
		}
	}
	if cache.Stats().Evictions == 0 {
		t.Fatal("floor-sized cache never evicted: test exercised nothing")
	}
	reopenMatches(t, ram, paged, f, rng)
}

// TestWritebackPagedBatchLimit checks the max-pages argument bounds
// one call and that repeated bounded calls drain the backlog.
func TestWritebackPagedBatchLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	var entries []Entry
	for i := 0; i < 3000; i++ {
		entries = append(entries, Entry{Key: math.Round(rng.Float64()*8000) / 8, ID: uint32(i)})
	}
	ram, paged, f, _ := buildPaged(t, entries, 1<<20)
	defer f.Close()
	mutateTwins(t, rng, ram, paged, 500)

	total := 0
	for {
		n, err := paged.WritebackPaged(3)
		if err != nil {
			t.Fatal(err)
		}
		if n > 3 {
			t.Fatalf("WritebackPaged(3) wrote %d pages", n)
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total == 0 {
		t.Fatal("bounded writeback drained nothing")
	}
	if n, err := paged.WritebackPaged(1 << 20); err != nil || n != 0 {
		t.Fatalf("backlog not drained: n=%d err=%v", n, err)
	}
}

// The tests below drive one writeback chunk through its three phases
// and interleave foreground operations with them through the arena's
// writeHook, which runs in the write phase — after stage, before the
// pwrites and complete — with only the arena's io mutex held.

// stagedLeaves returns the leaf slots the current chunk staged, each
// with the middle entry of its staged copy. Called from a writeHook.
func stagedLeaves(tr *Tree) (slots []int32, mid []Entry) {
	pg := tr.pg
	for i, st := range pg.staged {
		if st.inner || tr.lnum[st.slot] == 0 {
			continue
		}
		keys, ids := leafColumns(pg.stageBuf[i*leafPayload:])
		j := tr.lnum[st.slot] / 2
		slots = append(slots, st.slot)
		mid = append(mid, Entry{Key: keys[j], ID: ids[j]})
	}
	return slots, mid
}

// reopenMatches flushes and commits the paged tree, reopens the file
// cold, and checks the reopened tree against the RAM twin.
func reopenMatches(t *testing.T, ram, paged *Tree, f *pager.File, rng *rand.Rand) {
	t.Helper()
	m, _, err := paged.FlushPaged()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Commit(m.AppendTo(nil), 2); err != nil {
		t.Fatal(err)
	}
	reopened, err := pager.Open(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	m2, err := DecodePagedMeta(reopened.Meta())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := OpenPaged(reopened, pager.NewCache(1<<20, pager.PayloadSize), m2)
	if err != nil {
		t.Fatal(err)
	}
	comparePagedRAM(t, ram, cold, rng, 1000)
}

func writebackEntries(seed int64, n int) []Entry {
	rng := rand.New(rand.NewSource(seed))
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: math.Round(rng.Float64()*8000) / 8, ID: uint32(i)}
	}
	return entries
}

// TestWritebackInsertOnStagedSlot: an Insert lands on a staged leaf
// between stage and complete. Complete must leave the slot dirty and
// unflushed (its staged copy is stale), the next writeback must
// rewrite it, and the committed file must hold the insert.
func TestWritebackInsertOnStagedSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	ram, paged, f, _ := buildPaged(t, writebackEntries(85, 3000), 1<<20)
	defer f.Close()
	mutateTwins(t, rng, ram, paged, 200)

	var hit int32 = -1
	paged.pg.writeHook = func() error {
		if hit >= 0 {
			return nil
		}
		slots, mid := stagedLeaves(paged)
		if len(slots) == 0 {
			t.Fatal("first chunk staged no leaf")
		}
		hit = slots[0]
		e := Entry{Key: mid[0].Key, ID: 1 << 30}
		if !paged.Insert(e.Key, e.ID) || !ram.Insert(e.Key, e.ID) {
			t.Fatalf("Insert(%v) in the write phase failed", e)
		}
		return nil
	}
	if _, err := paged.WritebackPaged(1 << 20); err != nil {
		t.Fatal(err)
	}
	paged.pg.writeHook = nil
	pg := paged.pg
	if !pg.ldirty[hit] || pg.lflushed[hit] {
		t.Fatalf("re-touched staged leaf %d: dirty=%v flushed=%v, want dirty and unflushed", hit, pg.ldirty[hit], pg.lflushed[hit])
	}
	if paged.pg.cache.DirtyFrames() == 0 {
		t.Fatal("no dirty frame after a staged slot was re-touched")
	}
	n, err := paged.WritebackPaged(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 || !pg.lflushed[hit] {
		t.Fatalf("next writeback wrote %d pages, leaf %d flushed=%v: the stale copy was never rewritten", n, hit, pg.lflushed[hit])
	}
	reopenMatches(t, ram, paged, f, rng)
}

// TestWritebackDeleteFreesStagedSlot: deletes between stage and
// complete free staged leaves, and inserts re-use the freed slots with
// fresh pages. Complete must touch neither: no MarkClean on a dropped
// frame (Drop already uncounted it) and none on the fresh frame now
// behind the slot, whose page was never written.
func TestWritebackDeleteFreesStagedSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(86))
	ram, paged, f, cache := buildPaged(t, writebackEntries(86, 3000), 1<<20)
	defer f.Close()
	mutateTwins(t, rng, ram, paged, 400)

	staged := map[int32]int64{} // slot → staged page
	paged.pg.writeHook = func() error {
		if len(staged) > 0 {
			return nil
		}
		for _, st := range paged.pg.staged {
			if !st.inner {
				staged[st.slot] = st.page
			}
		}
		// Empty the tree but one entry — every staged leaf but at most
		// the survivor's is merged away and freed — then refill it.
		for _, e := range collectAll(ram)[1:] {
			if !paged.Delete(e.Key, e.ID) || !ram.Delete(e.Key, e.ID) {
				t.Fatalf("Delete(%v) in the write phase failed", e)
			}
		}
		for i := 0; i < 1500; i++ {
			k, id := math.Round(rng.Float64()*8000)/8, uint32(1<<30+i)
			paged.Insert(k, id)
			ram.Insert(k, id)
		}
		return nil
	}
	if _, err := paged.WritebackPaged(1 << 20); err != nil {
		t.Fatal(err)
	}
	paged.pg.writeHook = nil
	moved := 0
	for s, page := range staged {
		if paged.pg.leafPage[s] != page {
			moved++
		}
	}
	if moved == 0 {
		t.Fatalf("none of the %d staged leaves was freed or remapped: the test exercised nothing", len(staged))
	}
	if _, _, err := paged.FlushPaged(); err != nil {
		t.Fatal(err)
	}
	if n := cache.DirtyFrames(); n != 0 {
		t.Fatalf("DirtyFrames = %d after FlushPaged, want 0", n)
	}
	reopenMatches(t, ram, paged, f, rng)
}

// TestWritebackWriteErrorLeavesSlotDirty: a write phase that fails
// must clear the tentative flushed bits, so the slots stay in the
// to-flush set and FlushPaged writes them.
func TestWritebackWriteErrorLeavesSlotDirty(t *testing.T) {
	rng := rand.New(rand.NewSource(87))
	ram, paged, f, cache := buildPaged(t, writebackEntries(87, 3000), 1<<20)
	defer f.Close()
	mutateTwins(t, rng, ram, paged, 400)
	dirty := cache.DirtyFrames()

	errInjected := errors.New("injected pwrite failure")
	var staged []int32
	paged.pg.writeHook = func() error {
		staged, _ = stagedLeaves(paged)
		return errInjected
	}
	n, err := paged.WritebackPaged(1 << 20)
	paged.pg.writeHook = nil
	if !errors.Is(err, errInjected) || n != 0 {
		t.Fatalf("WritebackPaged = %d, %v; want 0, the injected error", n, err)
	}
	if len(staged) == 0 {
		t.Fatal("failed chunk staged no leaf")
	}
	for _, s := range staged {
		if !paged.pg.ldirty[s] || paged.pg.lflushed[s] {
			t.Fatalf("leaf %d after a failed write: dirty=%v flushed=%v, want dirty and unflushed", s, paged.pg.ldirty[s], paged.pg.lflushed[s])
		}
	}
	if got := cache.DirtyFrames(); got != dirty {
		t.Fatalf("DirtyFrames = %d after a failed writeback, want the %d before it", got, dirty)
	}
	reopenMatches(t, ram, paged, f, rng)
}

// TestWritebackParkedDoesNotBlockWrites parks a writeback in its write
// phase and runs foreground work against the tree and its file: an
// Insert must return — the arena mutex and the file's allocator lock
// are free while pages are written — and FlushPaged must wait for the
// parked chunk instead of counting its slots as flushed.
func TestWritebackParkedDoesNotBlockWrites(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	ram, paged, f, _ := buildPaged(t, writebackEntries(88, 3000), 1<<20)
	defer f.Close()
	mutateTwins(t, rng, ram, paged, 400)

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	muHeld := false
	paged.pg.writeHook = func() error {
		once.Do(func() {
			if paged.pg.mu.TryLock() {
				paged.pg.mu.Unlock()
			} else {
				muHeld = true
			}
			close(parked)
			<-release
		})
		return nil
	}
	wbErr := make(chan error, 1)
	go func() {
		_, err := paged.WritebackPaged(1 << 20)
		wbErr <- err
	}()
	<-parked
	if muHeld {
		t.Fatal("the arena mutex is held in the write phase")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			k := math.Round(rng.Float64()*8000) / 8
			paged.Insert(k, uint32(1<<30+i))
			ram.Insert(k, uint32(1<<30+i))
		}
		f.NumPages()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("foreground Insert blocked behind a writeback parked in its write phase")
	}

	flushed := make(chan error, 1)
	go func() {
		_, _, err := paged.FlushPaged()
		flushed <- err
	}()
	select {
	case err := <-flushed:
		t.Fatalf("FlushPaged returned (%v) while a writeback chunk was parked mid-write", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-wbErr; err != nil {
		t.Fatal(err)
	}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	paged.pg.writeHook = nil
	reopenMatches(t, ram, paged, f, rng)
}

// BenchmarkWritebackConcurrentInsert times foreground Inserts into a
// paged tree while a goroutine runs WritebackPaged in a loop, paced
// like pager.Writer's round: full batches back to back, a short pause
// once one comes back partial (a flusher spinning on an idle tree
// would only measure sync.Mutex starvation). max-stall-µs is the
// slowest single Insert: with the page I/O outside the arena mutex it
// tracks an Insert's own cost plus at most one stage or complete, not
// a batch of pwrites.
func BenchmarkWritebackConcurrentInsert(b *testing.B) {
	_, paged, f, _ := buildPaged(b, writebackEntries(89, 20000), 1<<20)
	defer f.Close()
	stop, done := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			n, err := paged.WritebackPaged(128)
			if err != nil {
				done <- err
				return
			}
			if n < 128 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	rng := rand.New(rand.NewSource(89))
	var maxStall time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := math.Round(rng.Float64()*8000) / 8
		start := time.Now()
		paged.Insert(k, uint32(1<<30+i))
		if d := time.Since(start); d > maxStall {
			maxStall = d
		}
	}
	b.StopTimer()
	close(stop)
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(maxStall.Nanoseconds())/1e3, "max-stall-µs")
}
