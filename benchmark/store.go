package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"planar/internal/ingest"
	"planar/internal/service"
	"planar/internal/vecmath"
)

const (
	// pagedCacheBytes is the page cache of the paged layout: 1 MiB
	// against about 6.5 MiB of tree pages at 100 000 points, so the
	// working set does not fit.
	pagedCacheBytes = 1 << 20
	// buildBatch is the group-commit bound of the bulk load.
	buildBatch = 256
)

// servingOptions are the options every measured store is opened with.
// The flush policy is part of the benchmark: with durable=false the log
// is buffered and fsynced at checkpoints and on close, the server's
// default; durable=true fsyncs before every ack. Latencies are gated
// under the default policy because a per-write fsync on this box's
// disk is 300 µs ± 12 % of host time against 5 µs of program time; the
// durable policy runs in the crash phase, where each ack is checked.
func servingOptions(paged, durable bool) service.Options {
	o := service.Options{SyncEveryWrite: durable, CheckpointEvery: 0, Paged: paged}
	if paged {
		o.PageCacheBytes = pagedCacheBytes
	}
	return o
}

// loadStats is what the bulk load's ingest pipeline reported and how
// long its appends took, first submission to last ack.
type loadStats struct {
	ingest ingest.Stats
	took   time.Duration
}

// buildStore creates the data directory the way a user would load a
// store in bulk: open with group commit on, append every point through
// the ingest pipeline, add the indexes, checkpoint, close. shards > 1
// builds the sharded layout.
func buildStore(dir string, ds *dataset, paged bool, shards int) (loadStats, error) {
	opts := servingOptions(paged, false)
	opts.Dim = ds.dim
	opts.Shards = shards
	opts.IngestBatch = buildBatch
	opts.IngestBlock = true
	db, err := service.Open(dir, opts)
	if err != nil {
		return loadStats{}, err
	}
	st, err := load(db, ds)
	if err == nil {
		err = db.Checkpoint()
	}
	if err != nil {
		_ = db.Close()
		return st, err
	}
	return st, db.Close()
}

func load(db *service.DB, ds *dataset) (loadStats, error) {
	var (
		st      loadStats
		err     error
		futures = make([]*ingest.Future, ds.n)
		start   = time.Now()
	)
	for i := range futures {
		if futures[i], err = db.AppendAsync(ds.row(i)); err != nil {
			return st, fmt.Errorf("append %d: %w", i, err)
		}
	}
	for i, f := range futures {
		if res := f.Wait(); res.Err != nil || res.ID != uint32(i) {
			return st, fmt.Errorf("append %d: acked as id %d, err %v", i, res.ID, res.Err)
		}
	}
	st.took = time.Since(start)
	st.ingest, _ = db.IngestStats()
	for _, c := range ds.normals {
		if _, err := db.AddNormal(c, vecmath.FirstOctant(ds.dim)); err != nil {
			return st, err
		}
	}
	return st, nil
}

// crashCopy copies the data directory file by file while its store is
// open and has not been closed: what a restart after a power cut would
// find, given that the harness is the only writer and is between
// requests. Bytes still buffered inside the process are not in the
// copy, exactly as they would not be on disk.
func crashCopy(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// fsType names the filesystem holding dir, for the run record.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// residentMB is the process's resident set now.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	if _, err := fmt.Sscan(string(raw), &size, &resident); err != nil {
		return 0
	}
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

func ms(d time.Duration) float64      { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64      { return float64(d.Nanoseconds()) / 1e3 }
func seconds(d time.Duration) float64 { return d.Seconds() }
