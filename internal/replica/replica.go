// Package replica implements the follower side of WAL-shipping
// replication. A Replica bootstraps a local store from a primary's
// consistent snapshot, then tails the primary's commit stream over
// HTTP long-polls, applying records in LSN order through the same
// journaling machinery the primary uses — so a replica restart
// resumes from its own durable state without re-bootstrapping.
//
// The loop is self-healing: connection failures retry with capped
// exponential backoff plus jitter; a cursor the primary no longer
// retains (tooOld) or any divergence (CRC, LSN gap, id mismatch,
// replica ahead of primary) discards the local store and
// re-bootstraps from a fresh snapshot. Promote turns the replica into
// a writable primary: the applier stops and the read-only guard
// lifts, and because applied records populate the replication ring,
// the promoted store can immediately serve downstream replicas.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"planar/internal/service"
)

// Replica states, as reported in Status.State.
const (
	StateConnecting    = "connecting"    // no local store yet, primary unreachable
	StateBootstrapping = "bootstrapping" // downloading / materialising a snapshot
	StateStreaming     = "streaming"     // tailing the commit stream
	StateReconnecting  = "reconnecting"  // stream broke, backing off before retry
	StatePromoted      = "promoted"      // applier stopped, store writable
	StateStopped       = "stopped"       // Close was called
)

// pollBatch bounds how many records one poll may return — the apply
// queue bound.
const pollBatch = 512

// errRebootstrap marks conditions that invalidate the local store:
// the loop discards the data directory and bootstraps again.
var errRebootstrap = errors.New("replica: local state unusable, re-bootstrap required")

// Options configures a Replica.
type Options struct {
	// Primary is the base URL of the upstream server, e.g.
	// "http://10.0.0.1:7171". Required.
	Primary string
	// Dir is the local data directory. Required. A directory holding a
	// compatible store resumes from its last applied LSN; otherwise it
	// is (re)built from a primary snapshot.
	Dir string
	// Client issues the HTTP requests (nil = a dedicated client with
	// no overall timeout — long-polls hold connections open).
	Client *http.Client
	// PollWait is how long the primary may hold an empty long-poll
	// before answering (0 = 1s).
	PollWait time.Duration
	// ReadyMaxLag is the lag (primary LSN minus applied LSN) above
	// which Ready reports false (0 = any lag is ready while streaming).
	ReadyMaxLag uint64
	// SyncEveryWrite and CheckpointEvery configure the local store
	// exactly as on a primary (see service.Options).
	SyncEveryWrite  bool
	CheckpointEvery int
}

// Status is a point-in-time view of the replication loop.
type Status struct {
	State       string `json:"state"`
	LastApplied uint64 `json:"lastApplied"`
	PrimaryLast uint64 `json:"primaryLast"`
	Lag         uint64 `json:"lag"`
	Bootstraps  int    `json:"bootstraps"`
	Reconnects  int    `json:"reconnects"`
	LastError   string `json:"lastError,omitempty"`
}

// Replica tails a primary into a local read-only store.
type Replica struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	db     *service.DB
	status Status
}

// Start launches the replication loop and returns immediately; the
// loop connects, bootstraps and streams in the background. Use Status
// and Ready to observe progress, Promote for failover, Close to stop.
func Start(opts Options) (*Replica, error) {
	if opts.Primary == "" {
		return nil, errors.New("replica: Primary URL required")
	}
	if opts.Dir == "" {
		return nil, errors.New("replica: Dir required")
	}
	opts.Primary = strings.TrimRight(opts.Primary, "/")
	if opts.Client == nil {
		opts.Client = &http.Client{}
	}
	if opts.PollWait <= 0 {
		opts.PollWait = time.Second
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Replica{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		status: Status{State: StateConnecting},
	}
	go r.run()
	return r, nil
}

// run is the replication loop: ensure a local store exists (resuming
// or bootstrapping), then stream batches until something breaks.
func (r *Replica) run() {
	defer close(r.done)
	var bo backoff
	for r.ctx.Err() == nil {
		db, err := r.ensureDB()
		if err != nil {
			r.note(StateConnecting, err)
			if !bo.sleep(r.ctx) {
				return
			}
			continue
		}
		switch err := r.streamOnce(db); {
		case err == nil:
			bo.reset()
		case r.ctx.Err() != nil:
			return
		case errors.Is(err, service.ErrDiverged) || errors.Is(err, errRebootstrap):
			log.Printf("replica: %v; discarding %s and re-bootstrapping from %s", err, r.opts.Dir, r.opts.Primary)
			r.discard(db)
			bo.reset()
		default:
			r.note(StateReconnecting, err)
			r.mu.Lock()
			r.status.Reconnects++
			r.mu.Unlock()
			if !bo.sleep(r.ctx) {
				return
			}
		}
	}
}

// ensureDB returns the open local store, resuming an existing
// directory when possible and bootstrapping from the primary
// otherwise. The too-old / divergence checks in streamOnce decide
// whether a resumed store is actually usable.
func (r *Replica) ensureDB() (*service.DB, error) {
	r.mu.Lock()
	db := r.db
	r.mu.Unlock()
	if db != nil {
		return db, nil
	}
	if db, err := service.Open(r.opts.Dir, r.dbOptions()); err == nil {
		db.SetReadOnly(true)
		// Read the LSN before taking r.mu: LastLSN locks the sequencer,
		// and the status mutex is a leaf in the lock order.
		lsn := db.LastLSN()
		r.mu.Lock()
		r.db = db
		r.status.LastApplied = lsn
		r.mu.Unlock()
		return db, nil
	}
	return r.bootstrap()
}

// bootstrap downloads a consistent snapshot, materialises it into a
// scratch directory, and swaps it in as the data directory — so a
// crash mid-bootstrap leaves either the old state or the scratch dir,
// never a half-written store.
func (r *Replica) bootstrap() (*service.DB, error) {
	r.setState(StateBootstrapping)
	resp, err := r.get("/v1/replication/snapshot")
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: snapshot: primary answered %s", resp.Status)
	}
	st, err := ReadSnapshot(resp.Body)
	if err != nil {
		return nil, err
	}
	tmp := r.opts.Dir + ".bootstrap"
	if err := os.RemoveAll(tmp); err != nil {
		return nil, err
	}
	if err := service.MaterializeReplState(tmp, st); err != nil {
		return nil, err
	}
	if err := os.RemoveAll(r.opts.Dir); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, r.opts.Dir); err != nil {
		return nil, err
	}
	db, err := service.Open(r.opts.Dir, r.dbOptions())
	if err != nil {
		return nil, err
	}
	db.SetReadOnly(true)
	lsn := db.LastLSN()
	r.mu.Lock()
	r.db = db
	r.status.Bootstraps++
	r.status.LastApplied = lsn
	r.mu.Unlock()
	log.Printf("replica: bootstrapped %s from %s at LSN %d (%d shards)", r.opts.Dir, r.opts.Primary, st.LSN, st.Shards)
	return db, nil
}

// streamOnce issues one long-poll and applies the batch it returns.
// An empty batch (poll timeout on an idle primary) is a success.
func (r *Replica) streamOnce(db *service.DB) error {
	from := db.LastLSN() + 1
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	q.Set("max", strconv.Itoa(pollBatch))
	q.Set("waitms", strconv.FormatInt(r.opts.PollWait.Milliseconds(), 10))
	resp, err := r.get("/v1/replication/stream?" + q.Encode())
	if err != nil {
		return err
	}
	defer func() {
		// Drain so the keep-alive connection is reusable; both calls
		// are best-effort on a response we are done with.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("replica: stream: primary answered %s", resp.Status)
	}
	h, recs, err := ReadStream(resp.Body)
	if err != nil {
		return err
	}
	if h.TooOld {
		return fmt.Errorf("replica: cursor %d predates primary retention: %w", from, errRebootstrap)
	}
	if h.Future {
		return fmt.Errorf("replica: cursor %d is ahead of primary (last %d): %w", from, h.Last, service.ErrDiverged)
	}
	for _, rec := range recs {
		if rec.LSN != from {
			return fmt.Errorf("replica: stream gap: got LSN %d, want %d: %w", rec.LSN, from, service.ErrDiverged)
		}
		if err := db.ApplyReplicated(rec); err != nil {
			return err
		}
		from = rec.LSN + 1
	}
	lsn := db.LastLSN()
	r.mu.Lock()
	r.status.State = StateStreaming
	r.status.PrimaryLast = h.Last
	r.status.LastApplied = lsn
	r.status.LastError = ""
	r.mu.Unlock()
	return nil
}

// discard closes and deletes the local store so the next loop
// iteration bootstraps from scratch.
func (r *Replica) discard(db *service.DB) {
	if err := db.Close(); err != nil {
		log.Printf("replica: closing diverged store: %v", err)
	}
	if err := os.RemoveAll(r.opts.Dir); err != nil {
		log.Printf("replica: removing diverged store: %v", err)
	}
	r.mu.Lock()
	r.db = nil
	r.mu.Unlock()
}

func (r *Replica) get(path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, r.opts.Primary+path, nil)
	if err != nil {
		return nil, err
	}
	return r.opts.Client.Do(req)
}

func (r *Replica) dbOptions() service.Options {
	// Sharded-ness is decided by the directory layout the bootstrap
	// materialised, mirroring the primary's topology.
	return service.Options{
		SyncEveryWrite:  r.opts.SyncEveryWrite,
		CheckpointEvery: r.opts.CheckpointEvery,
	}
}

func (r *Replica) setState(state string) {
	r.mu.Lock()
	r.status.State = state
	r.mu.Unlock()
}

func (r *Replica) note(state string, err error) {
	r.mu.Lock()
	r.status.State = state
	r.status.LastError = err.Error()
	r.mu.Unlock()
}

// Status returns a snapshot of the loop's progress.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.status
	if st.PrimaryLast > st.LastApplied {
		st.Lag = st.PrimaryLast - st.LastApplied
	}
	return st
}

// DB returns the current local store, or nil before the first
// successful open. The pointer changes across a re-bootstrap; callers
// serving requests should call DB per request rather than caching it.
func (r *Replica) DB() *service.DB {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.db
}

// Ready reports whether this replica should receive traffic: it has a
// store and is streaming (or promoted) with lag within ReadyMaxLag.
// The reason string explains a false answer.
func (r *Replica) Ready() (bool, string) {
	st := r.Status()
	r.mu.Lock()
	hasDB := r.db != nil
	r.mu.Unlock()
	if !hasDB {
		return false, "no local store yet (" + st.State + ")"
	}
	switch st.State {
	case StatePromoted:
		return true, ""
	case StateStreaming:
		if r.opts.ReadyMaxLag > 0 && st.Lag > r.opts.ReadyMaxLag {
			return false, fmt.Sprintf("lag %d exceeds %d", st.Lag, r.opts.ReadyMaxLag)
		}
		return true, ""
	default:
		return false, st.State
	}
}

// Promote stops the applier and lifts the read-only guard, returning
// the now-writable store (nil if no store was ever opened). The
// promoted store's replication ring is already populated, so it can
// serve /v1/replication/stream to downstream replicas immediately.
func (r *Replica) Promote() *service.DB {
	r.cancel()
	<-r.done
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.db != nil {
		r.db.SetReadOnly(false)
	}
	r.status.State = StatePromoted
	return r.db
}

// Close stops the loop and closes the local store. Safe after
// Promote (the store is then left open for the caller).
func (r *Replica) Close() error {
	r.cancel()
	<-r.done
	// Update the status and detach the store under r.mu, but close it
	// after releasing: db.Close syncs and closes the WAL, and holding
	// the status mutex across that disk work would block Status()
	// calls for the duration (and inverts the lock order — r.mu is a
	// leaf).
	r.mu.Lock()
	if r.status.State == StatePromoted {
		r.mu.Unlock()
		return nil
	}
	r.status.State = StateStopped
	db := r.db
	r.db = nil
	r.mu.Unlock()
	if db == nil {
		return nil
	}
	return db.Close()
}

// backoff is capped exponential backoff with additive jitter:
// 100ms, 200ms, … capped at 5s, plus up to 25% random extra so a
// herd of replicas does not reconnect in lockstep.
type backoff struct {
	d time.Duration
}

func (b *backoff) reset() { b.d = 0 }

// sleep waits the next backoff interval; false means ctx was
// cancelled first.
func (b *backoff) sleep(ctx context.Context) bool {
	if b.d == 0 {
		b.d = 100 * time.Millisecond
	} else if b.d *= 2; b.d > 5*time.Second {
		b.d = 5 * time.Second
	}
	jitter := time.Duration(rand.Int63n(int64(b.d)/4 + 1))
	t := time.NewTimer(b.d + jitter)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
