package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gather starts a pipeline whose commit func records every batch and
// assigns ids/LSNs sequentially, mimicking the store.
type recorder struct {
	mu      sync.Mutex
	batches [][]Intent
	nextLSN uint64
	gate    chan struct{} // when non-nil, commit blocks until it closes
}

func (r *recorder) commit(lane int, intents []Intent, results []Result) error {
	if r.gate != nil {
		<-r.gate
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := make([]Intent, len(intents))
	copy(cp, intents)
	r.batches = append(r.batches, cp)
	for i := range intents {
		r.nextLSN++
		results[i] = Result{ID: uint32(i), LSN: r.nextLSN}
	}
	return nil
}

func TestSubmitResolvesInOrder(t *testing.T) {
	rec := &recorder{}
	p, err := New(Config{BatchSize: 8, Commit: rec.commit})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	var futs []*Future
	for i := 0; i < 20; i++ {
		f, err := p.Submit(0, Intent{Op: 1, Vec: []float64{float64(i)}})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	var lastLSN uint64
	for i, f := range futs {
		res := f.Wait()
		if res.Err != nil {
			t.Fatalf("intent %d: %v", i, res.Err)
		}
		if res.LSN <= lastLSN {
			t.Fatalf("intent %d: LSN %d not after %d — lane order broken", i, res.LSN, lastLSN)
		}
		lastLSN = res.LSN
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	total := 0
	for _, b := range rec.batches {
		if len(b) > 8 {
			t.Fatalf("batch of %d exceeds BatchSize 8", len(b))
		}
		total += len(b)
	}
	if total != 20 {
		t.Fatalf("committed %d intents, want 20", total)
	}
	// One lane: intents commit in submission order across batches.
	i := 0
	for _, b := range rec.batches {
		for _, in := range b {
			if in.Vec[0] != float64(i) {
				t.Fatalf("commit order broken at %d: %v", i, in.Vec)
			}
			i++
		}
	}
}

// TestLoneWriterIsNotHeldForABatch pins group commit's latency under
// light load: a committer takes what is queued and commits it, so a
// writer that waits for each ack before submitting the next is never
// held back for a batch that will not fill. 200 acks in 100 ms leaves
// each one 500 µs against a few µs of work.
func TestLoneWriterIsNotHeldForABatch(t *testing.T) {
	rec := &recorder{}
	p, err := New(Config{BatchSize: 256, Commit: rec.commit})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const acks = 200
	start := time.Now()
	for i := 0; i < acks; i++ {
		f, err := p.Submit(0, Intent{Op: 3, ID: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		if res := f.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Fatalf("%d sequential acks took %v, want under 100ms", acks, took)
	}
	p.Close() // the last batch is counted after its ack
	if st := p.Stats(); st.Batches != acks {
		t.Fatalf("%d sequential acks committed in %d batches, want one each", acks, st.Batches)
	}
}

func TestShedOnFullRing(t *testing.T) {
	rec := &recorder{gate: make(chan struct{})}
	p, err := New(Config{BatchSize: 1, Commit: rec.commit})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The committer is gated, so submissions pile up: 4×BatchSize = 4
	// queued in the ring plus up to one batch in flight. Keep pushing
	// until the ring refuses.
	var futs []*Future
	var refused bool
	for i := 0; i < 10; i++ {
		f, err := p.Submit(0, Intent{Op: 3, ID: uint32(i)})
		if errors.Is(err, ErrBacklog) {
			refused = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	if !refused {
		t.Fatal("full ring never shed")
	}
	if got := p.Stats().Shed; got == 0 {
		t.Fatal("shed counter not bumped")
	}
	close(rec.gate)
	for _, f := range futs {
		if res := f.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

func TestBlockingBackpressure(t *testing.T) {
	rec := &recorder{gate: make(chan struct{})}
	p, err := New(Config{BatchSize: 1, Block: true, Commit: rec.commit})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const writers = 6 // more than the ring's 4 plus one in flight
	var done atomic.Int32
	var wg sync.WaitGroup
	futs := make([]*Future, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := p.Submit(0, Intent{Op: 3, ID: uint32(i)})
			if err != nil {
				t.Error(err)
				return
			}
			futs[i] = f
			done.Add(1)
		}(i)
	}
	// With the committer gated, at most ring+inflight submissions can
	// get through; the rest must be parked, not shed.
	time.Sleep(20 * time.Millisecond)
	if n := done.Load(); n == writers {
		t.Fatal("no producer blocked on the full ring")
	}
	close(rec.gate)
	wg.Wait()
	for _, f := range futs {
		if res := f.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if got := p.Stats().Shed; got != 0 {
		t.Fatalf("blocking mode shed %d intents", got)
	}
}

func TestCloseDrainsQueuedIntents(t *testing.T) {
	rec := &recorder{gate: make(chan struct{})}
	const batch, n = 4, 10
	p, err := New(Config{BatchSize: batch, Commit: rec.commit})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for i := 0; i < n; i++ {
		f, err := p.Submit(0, Intent{Op: 3, ID: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	// Close has shut the queue while the gated committer holds at most
	// one batch: the rest are still queued and only the drain can
	// commit them.
	for shut := false; !shut; runtime.Gosched() {
		p.closing.RLock()
		shut = p.closed
		p.closing.RUnlock()
	}
	if depth := p.Stats().QueueDepth; depth < n-batch {
		t.Fatalf("%d intents queued at Close, want at least %d", depth, n-batch)
	}
	close(rec.gate)
	<-closed
	// Every accepted intent resolved — drain never drops acked work.
	for i, f := range futs {
		if res := f.Wait(); res.Err != nil {
			t.Fatalf("intent %d failed in drain: %v", i, res.Err)
		}
	}
	committed := 0
	for _, b := range rec.batches {
		committed += len(b)
	}
	if committed != n {
		t.Fatalf("drain committed %d intents, want %d", committed, n)
	}
	if _, err := p.Submit(0, Intent{Op: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	p.Close() // idempotent
}

func TestCloseStopsCommitterGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		rec := &recorder{}
		p, err := New(Config{Lanes: 4, BatchSize: 8, Commit: rec.commit})
		if err != nil {
			t.Fatal(err)
		}
		var futs []*Future
		for i := 0; i < 64; i++ {
			f, err := p.Submit(i%4, Intent{Op: 3, ID: uint32(i)})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		p.Close()
		for _, f := range futs {
			f.Wait()
		}
	}
	// Committers exit on Close; allow slack for runtime goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestWholeBatchErrorFansOut(t *testing.T) {
	boom := errors.New("journal: disk full")
	p, err := New(Config{BatchSize: 4,
		Commit: func(int, []Intent, []Result) error { return boom }})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var futs []*Future
	for i := 0; i < 4; i++ {
		f, err := p.Submit(0, Intent{Op: 3, ID: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		if res := f.Wait(); !errors.Is(res.Err, boom) {
			t.Fatalf("batch error not fanned out: %v", res.Err)
		}
	}
}

func TestPerIntentErrorsStayScoped(t *testing.T) {
	bad := errors.New("apply: dead point")
	p, err := New(Config{BatchSize: 8,
		Commit: func(_ int, intents []Intent, results []Result) error {
			for i, in := range intents {
				if in.ID%2 == 1 {
					results[i] = Result{Err: bad}
				} else {
					results[i] = Result{ID: in.ID, LSN: uint64(in.ID) + 1}
				}
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var futs []*Future
	for i := 0; i < 8; i++ {
		f, err := p.Submit(0, Intent{Op: 2, ID: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for i, f := range futs {
		res := f.Wait()
		if i%2 == 1 && !errors.Is(res.Err, bad) {
			t.Fatalf("intent %d: want scoped error, got %v", i, res.Err)
		}
		if i%2 == 0 && res.Err != nil {
			t.Fatalf("intent %d: neighbor's error leaked: %v", i, res.Err)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	rec := &recorder{}
	p, err := New(Config{BatchSize: 64, Commit: rec.commit})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for i := 0; i < 32; i++ {
		f, err := p.Submit(0, Intent{Op: 3, ID: uint32(i)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		f.Wait()
	}
	p.Close()
	st := p.Stats()
	if st.Submitted != 32 || st.Records != 32 {
		t.Fatalf("submitted=%d records=%d, want 32", st.Submitted, st.Records)
	}
	if st.Batches == 0 || st.Batches > 32 {
		t.Fatalf("batches=%d", st.Batches)
	}
	if st.FsyncsSaved != st.Records-st.Batches {
		t.Fatalf("fsyncsSaved=%d, want %d", st.FsyncsSaved, st.Records-st.Batches)
	}
	if st.AckP50 == 0 || st.AckP99 < st.AckP50 {
		t.Fatalf("ack percentiles p50=%v p99=%v", st.AckP50, st.AckP99)
	}
	var sized uint64
	for _, c := range st.BatchSizes {
		sized += c
	}
	if sized != st.Batches {
		t.Fatalf("batch-size histogram holds %d batches, want %d", sized, st.Batches)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("drained pipeline reports depth %d", st.QueueDepth)
	}
}

func TestResolvedFuture(t *testing.T) {
	f := Resolved(Result{ID: 7, LSN: 9})
	res := f.Wait()
	if res.ID != 7 || res.LSN != 9 || res.Err != nil {
		t.Fatalf("resolved future: %+v", res)
	}
}

func TestRaceManyWriters(t *testing.T) {
	rec := &recorder{}
	p, err := New(Config{Lanes: 4, BatchSize: 32, Block: true, Commit: rec.commit})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				f, err := p.Submit((w*perWriter+i)%4, Intent{Op: 1, Vec: []float64{float64(w), float64(i)}})
				if err != nil {
					t.Error(err)
					return
				}
				if res := f.Wait(); res.Err != nil {
					t.Error(res.Err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	p.Close()
	if st := p.Stats(); st.Records != writers*perWriter {
		t.Fatalf("records=%d, want %d", st.Records, writers*perWriter)
	}
}

// TestCloseRacesSubmit closes a pipeline while producers are still
// submitting, in both backpressure modes. Each submission ends one of
// three ways — ErrClosed, ErrBacklog (shed mode only) or a future that
// resolves without error — and the committed intents are exactly the
// accepted ones, each once, a producer's in its submission order. A
// send racing the close of its queue would panic.
func TestCloseRacesSubmit(t *testing.T) {
	for _, block := range []bool{true, false} {
		t.Run(fmt.Sprintf("block=%v", block), func(t *testing.T) {
			rec := &recorder{}
			p, err := New(Config{Lanes: 2, BatchSize: 2, Block: block, Commit: rec.commit})
			if err != nil {
				t.Fatal(err)
			}
			const producers, perProducer = 8, 5000
			accepted := make([][]*Future, producers)
			var wg sync.WaitGroup
			for w := 0; w < producers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						f, err := p.Submit(w%2, Intent{Op: 3, ID: uint32(w*perProducer + i)})
						switch {
						case err == nil:
							accepted[w] = append(accepted[w], f)
						case errors.Is(err, ErrClosed):
							return
						case errors.Is(err, ErrBacklog) && !block:
							runtime.Gosched()
						default:
							t.Errorf("producer %d: submit %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			for p.Stats().Submitted < 100 {
				runtime.Gosched()
			}
			p.Close()
			wg.Wait()

			want := map[uint32]bool{}
			for w := range accepted {
				for _, f := range accepted[w] {
					if res := f.Wait(); res.Err != nil {
						t.Fatalf("accepted intent %d failed: %v", f.intent.ID, res.Err)
					}
					want[f.intent.ID] = true
				}
			}
			last := make([]int64, producers)
			for i := range last {
				last[i] = -1
			}
			got := 0
			for _, b := range rec.batches {
				for _, in := range b {
					if !want[in.ID] {
						t.Fatalf("intent %d committed but not accepted, or committed twice", in.ID)
					}
					delete(want, in.ID)
					got++
					w := in.ID / perProducer
					if int64(in.ID) <= last[w] {
						t.Fatalf("producer %d: intent %d committed after %d", w, in.ID, last[w])
					}
					last[w] = int64(in.ID)
				}
			}
			if len(want) != 0 {
				t.Fatalf("%d accepted intents never committed", len(want))
			}
			if got == producers*perProducer {
				t.Fatal("every submission was accepted: Close raced none of them")
			}
			if st := p.Stats(); st.Records != uint64(got) || st.Submitted != uint64(got) {
				t.Fatalf("stats: submitted %d, records %d; committed %d", st.Submitted, st.Records, got)
			}
			if _, err := p.Submit(0, Intent{Op: 3}); !errors.Is(err, ErrClosed) {
				t.Fatalf("submit after close: %v", err)
			}
		})
	}
}
