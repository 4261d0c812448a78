// Command planarserve runs a durable planar index store behind a
// JSON HTTP API (see internal/httpapi for the endpoint reference).
//
//	planarserve -data ./db -dim 4 -addr :8080
//
// The data directory holds a CRC-checked snapshot plus a write-ahead
// log; kill the process at any point and reopen to recover. With
// -paged (or -page-cache-mb N) a fresh directory instead uses the
// disk-paged tier: trees live in a CRC-checked page file and fault
// through a bounded page cache, so the resident set can be far
// smaller than the dataset. Directories reopen in whichever layout
// they were created with.
//
// With -ingest-batch N the write path group-commits: mutations queue
// on a buffered channel per commit lane, a committer takes whatever is
// queued (up to N), applies it under one lock and journals it as a
// single WAL frame with one fsync. Requests still ack only after their
// record is durable; see DESIGN.md §13.
//
// With -replicate-from the process runs as a read replica instead: it
// bootstraps from the primary's snapshot, tails its commit stream,
// and serves the full read API while writes answer 403 (or proxy
// upstream with -proxy-writes). POST /v1/replication/promote fails it
// over into a writable primary. A replica takes its dimension, layout
// and write path from the primary, so it refuses the flags that set
// them. See DESIGN.md §8.
//
// SIGINT/SIGTERM shut down gracefully: the listener drains in-flight
// requests up to -shutdown-timeout, then the WAL is synced and the
// store closed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"planar/internal/httpapi"
	"planar/internal/replica"
	"planar/internal/service"
)

func main() {
	var (
		dataDir    = flag.String("data", "planar-data", "data directory (snapshot + write-ahead log)")
		dataDirAlt = flag.String("data-dir", "", "alias for -data")
		dim        = flag.Int("dim", 0, "φ dimensionality (required for a fresh directory)")
		addr       = flag.String("addr", ":8080", "listen address")
		syncWrites = flag.Bool("sync", false, "fsync the log after every mutation")
		checkpoint = flag.Int("checkpoint", 10000, "auto-checkpoint after this many mutations (0 = manual only)")
		shards     = flag.Int("shards", 0, "partition the store across N shards (0 = unsharded; existing directories keep their layout)")
		paged      = flag.Bool("paged", false, "use the disk-paged storage tier for a fresh directory (existing directories keep their layout)")
		cacheMB    = flag.Int("page-cache-mb", 0, "page-cache budget in MiB for the paged tier (implies -paged; 0 = default budget)")

		ingestBatch = flag.Int("ingest-batch", 0, "group-commit writes in batches up to this size (0 = synchronous per-request path)")
		ingestShed  = flag.Bool("ingest-shed", false, "answer 429 when the ingest queue is full instead of blocking the request")

		role          = flag.String("role", "", "primary or replica (default: replica iff -replicate-from is set)")
		replicateFrom = flag.String("replicate-from", "", "primary base URL to replicate from (enables replica role)")
		proxyWrites   = flag.Bool("proxy-writes", false, "replica: proxy mutations to the primary instead of rejecting them")
		readyMaxLag   = flag.Uint64("ready-max-lag", 4096, "replica: /readyz fails above this many unapplied LSNs (0 = any lag is ready)")
		shutdownWait  = flag.Duration("shutdown-timeout", 10*time.Second, "how long to drain in-flight requests on SIGINT/SIGTERM")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(set, *replicateFrom != ""); err != nil {
		log.Fatalf("planarserve: %v", err)
	}
	if *dataDirAlt != "" {
		*dataDir = *dataDirAlt
	}
	if *cacheMB < 0 {
		log.Fatal("planarserve: -page-cache-mb must be >= 0")
	}
	if *cacheMB > 0 {
		*paged = true
	}
	if *ingestBatch < 0 {
		log.Fatal("planarserve: -ingest-batch must be >= 0")
	}
	if *ingestBatch == 0 && *ingestShed {
		log.Fatal("planarserve: -ingest-shed needs -ingest-batch")
	}

	isReplica := *replicateFrom != ""
	switch *role {
	case "", "primary", "replica":
		if *role == "replica" && !isReplica {
			log.Fatal("planarserve: -role replica requires -replicate-from")
		}
		if *role == "primary" && isReplica {
			log.Fatal("planarserve: -role primary conflicts with -replicate-from")
		}
	default:
		log.Fatalf("planarserve: unknown role %q (primary or replica)", *role)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var (
		api *httpapi.Server
		rep *replica.Replica
		db  *service.DB
		err error
	)
	if isReplica {
		rep, err = replica.Start(replica.Options{
			Primary:         *replicateFrom,
			Dir:             *dataDir,
			ReadyMaxLag:     *readyMaxLag,
			SyncEveryWrite:  *syncWrites,
			CheckpointEvery: *checkpoint,
		})
		if err == nil {
			api, err = httpapi.New(nil, httpapi.WithReplica(rep, *replicateFrom, *proxyWrites))
		}
	} else {
		db, err = service.Open(*dataDir, service.Options{
			Dim:             *dim,
			SyncEveryWrite:  *syncWrites,
			CheckpointEvery: *checkpoint,
			Shards:          *shards,
			Paged:           *paged,
			PageCacheBytes:  *cacheMB << 20,
			IngestBatch:     *ingestBatch,
			IngestBlock:     !*ingestShed,
		})
		if err == nil {
			api, err = httpapi.New(db)
		}
	}
	if err != nil {
		log.Fatalf("planarserve: %v", err)
	}

	// No ReadTimeout or WriteTimeout: either would cut the
	// /v1/replication/stream long-poll. The header and idle limits
	// bound what a slow or silent client can hold open.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	if isReplica {
		fmt.Printf("planarserve: replica of %s, data %s, listening on %s\n", *replicateFrom, *dataDir, *addr)
	} else {
		layout := "unsharded"
		if db.Shards() > 1 {
			layout = fmt.Sprintf("%d shards", db.Shards())
		}
		if db.Paged() {
			layout += ", paged"
		}
		fmt.Printf("planarserve: %d points (dim %d), %d indexes, %s, listening on %s\n",
			db.Len(), db.Dim(), db.NumIndexes(), layout, *addr)
	}

	select {
	case err := <-errc:
		log.Fatalf("planarserve: %v", err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting, drain in-flight requests with
	// a deadline, then make the store durable and release it.
	log.Printf("planarserve: signal received, draining for up to %s", *shutdownWait)
	drain, cancel := context.WithTimeout(context.Background(), *shutdownWait)
	defer cancel()
	if err := srv.Shutdown(drain); err != nil {
		log.Printf("planarserve: drain: %v (closing anyway)", err)
		srv.Close()
	}
	if rep != nil {
		if err := rep.Close(); err != nil {
			log.Printf("planarserve: replica close: %v", err)
		}
	} else {
		if err := db.Checkpoint(); err != nil {
			log.Printf("planarserve: final checkpoint: %v", err)
		}
		if err := db.Close(); err != nil {
			log.Printf("planarserve: close: %v", err)
		}
	}
	log.Println("planarserve: shut down cleanly")
}

// primaryOnly names the flags that configure a primary's store. A
// replica takes its dimension, layout and write path from the primary,
// so it has no use for them.
var primaryOnly = []string{"dim", "shards", "paged", "page-cache-mb", "ingest-batch", "ingest-shed"}

// checkFlags refuses a flag that would be accepted and never used: a
// primary-only flag on a replica. set holds the name of every flag
// given on the command line.
func checkFlags(set map[string]bool, replica bool) error {
	if !replica {
		return nil
	}
	for _, name := range primaryOnly {
		if set[name] {
			return fmt.Errorf("-%s configures a primary's store; a replica (-replicate-from) takes it from the primary", name)
		}
	}
	return nil
}
