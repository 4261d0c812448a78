package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/service"
	"planar/internal/wal"
)

// The traced run's fixed-work measurements: the cost-model fit and the
// probes of layers no request ladder reaches.

// fitModel fits the paper's cost model to the execute stage,
// exec_ns = alpha*log2(n) + beta*|II|*d' + gamma*|answer|, by least
// squares over the queries of all three read classes, and reports how
// much of this workload's own classes it leaves unexplained.
func (b *bench) fitModel(set setFn) error {
	type obs struct {
		x   [3]float64
		y   float64
		own bool
	}
	var all []obs
	own := map[string]bool{}
	for _, c := range b.classes {
		own[c.spec.name] = true
	}
	explain := func(a []float64, t float64) (int, error) {
		p, err := b.db.Explain(core.Query{A: a, B: t, Op: core.LE})
		return p.Verified, err
	}
	logN := math.Log2(float64(b.sh.len()))
	for _, spec := range []classSpec{selectClass, verifyClass, emitClass} {
		c, err := calibrateClass(spec, b.ds, b.sh, explain)
		if err != nil {
			return err
		}
		for i := range c.queries {
			q := core.Query{A: c.queries[i].a, B: c.queries[i].b, Op: core.LE}
			best := math.Inf(1)
			var st core.Stats
			for rep := 0; rep < 3; rep++ {
				_, got, err := b.db.Multi().InequalityIDs(q)
				if err != nil {
					return err
				}
				if e := float64(got.ExecNanos); e < best {
					best, st = e, got
				}
			}
			all = append(all, obs{
				x:   [3]float64{logN, float64(st.Verified * b.ds.dim), float64(st.Accepted + st.Matched)},
				y:   best,
				own: own[spec.name],
			})
		}
	}
	// normal equations, 3 unknowns
	var ata [3][3]float64
	var aty [3]float64
	for _, o := range all {
		for i := 0; i < 3; i++ {
			aty[i] += o.x[i] * o.y
			for j := 0; j < 3; j++ {
				ata[i][j] += o.x[i] * o.x[j]
			}
		}
	}
	coef, ok := solve3(ata, aty)
	if !ok {
		return fmt.Errorf("cost model: singular fit")
	}
	var resid, total float64
	for _, o := range all {
		if o.own {
			fit := coef[0]*o.x[0] + coef[1]*o.x[1] + coef[2]*o.x[2]
			resid += math.Abs(o.y - fit)
			total += o.y
		}
	}
	set("model.alpha_ns", coef[0], "ns")
	set("model.beta_ns", coef[1], "ns")
	set("model.gamma_ns", coef[2], "ns")
	set("model.residual_share", resid/total, "share")
	return nil
}

// solve3 solves a 3×3 linear system by Gaussian elimination with
// partial pivoting.
func solve3(a [3][3]float64, y [3]float64) ([3]float64, bool) {
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if a[p][col] == 0 {
			return y, false
		}
		a[col], a[p] = a[p], a[col]
		y[col], y[p] = y[p], y[col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 3; c++ {
				a[r][c] -= f * a[col][c]
			}
			y[r] -= f * y[col]
		}
	}
	var x [3]float64
	for r := 2; r >= 0; r-- {
		x[r] = y[r]
		for c := r + 1; c < 3; c++ {
			x[r] -= a[r][c] * x[c]
		}
		x[r] /= a[r][r]
	}
	return x, true
}

// probeLog measures on the log twin the device flush a durable ack
// would pay, and replay.
func (b *bench) probeLog(set setFn, tw *twins) error {
	var syncs []float64
	v := make([]float64, b.ds.dim)
	for i := 0; i < 50; i++ {
		if err := tw.log.Append(wal.Record{Op: wal.OpUpdate, LSN: tw.lsn, ID: 0, Vec: v}); err != nil {
			return err
		}
		tw.lsn++
		start := time.Now()
		if err := tw.log.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, us(time.Since(start)))
	}
	set("wal.sync_us", median(syncs), "us")

	start := time.Now()
	n, err := wal.Replay(tw.logPath, func(wal.Record) error { return nil })
	if err != nil {
		return err
	}
	set("wal.replay_us_per_rec", us(time.Since(start))/float64(max(n, 1)), "us")
	return nil
}

const probeReps = 3

// probeCodec times a snapshot's save, load and restore on the core
// twin, and on the paged layout the cold open of the page file.
func (b *bench) probeCodec(set setFn, tw *twins, runDir string) error {
	path := filepath.Join(runDir, "probe.plnr")
	var saves, loads, restores []float64
	for i := 0; i < probeReps; i++ {
		start := time.Now()
		if err := codec.Capture(tw.multi).Save(path); err != nil {
			return err
		}
		saves = append(saves, ms(time.Since(start)))
		start = time.Now()
		snap, err := codec.Load(path)
		if err != nil {
			return err
		}
		loads = append(loads, ms(time.Since(start)))
		start = time.Now()
		if _, err := snap.Restore(); err != nil {
			return err
		}
		restores = append(restores, ms(time.Since(start)))
	}
	set("codec.snapshot_save_ms", median(saves), "ms")
	set("codec.snapshot_load_ms", median(loads), "ms")
	set("core.restore_ms", median(restores), "ms")

	set("codec.paged_open_ms", 0, "ms")
	if b.spec.paged {
		var opens []float64
		for i := 0; i < probeReps; i++ {
			dir := filepath.Join(runDir, "probe-pages")
			if err := crashCopy(b.dir, dir); err != nil {
				return err
			}
			start := time.Now()
			ps, _, err := codec.OpenPaged(filepath.Join(dir, "pages.plnr"), pagedCacheBytes)
			if err != nil {
				return err
			}
			opens = append(opens, ms(time.Since(start)))
			if err := ps.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		set("codec.paged_open_ms", median(opens), "ms")
	}
	return nil
}

// probeOpen times service.Open on crash copies of the measured store.
func (b *bench) probeOpen(set setFn, runDir string) error {
	var opens []float64
	for i := 0; i < probeReps; i++ {
		dir := filepath.Join(runDir, "probe-open")
		if err := crashCopy(b.dir, dir); err != nil {
			return err
		}
		start := time.Now()
		db, err := service.Open(dir, servingOptions(b.spec.paged, false))
		if err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(start)))
		if err := db.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	set("service.open_ms", median(opens), "ms")
	return nil
}

// probeShards compares service.DB.Query on a two-shard store with the
// single service twin, on this workload's first class: the cost of
// scatter and merge where there is nothing to gain from them.
func (b *bench) probeShards(set setFn, tw *twins, runDir string) error {
	dir := filepath.Join(runDir, "sharded")
	if _, err := buildStore(dir, b.ds, false, 2); err != nil {
		return fmt.Errorf("building the sharded store: %w", err)
	}
	db, err := service.Open(dir, servingOptions(false, false))
	if err != nil {
		return err
	}
	defer db.Close()
	var single, sharded []float64
	queries := b.classes[0].queries
	for rep := 0; rep < 4; rep++ {
		for i := range queries {
			q := core.Query{A: queries[i].a, B: queries[i].b, Op: core.LE}
			start := time.Now()
			if _, _, err := tw.svc.Query(q); err != nil {
				return err
			}
			single = append(single, us(time.Since(start)))
			start = time.Now()
			if _, _, err := db.Query(q); err != nil {
				return err
			}
			sharded = append(sharded, us(time.Since(start)))
		}
	}
	set("shard.scatter_overhead_us", median(sharded)-median(single), "us")
	return nil
}

// probeReadUnderWrite is the median latency of this workload's first
// class through service.DB.Query while a second goroutine updates the
// same store as fast as it can. It runs last: the twin no longer agrees
// with the oracle afterwards.
func (b *bench) probeReadUnderWrite(set setFn, tw *twins) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		v := make([]float64, b.ds.dim)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for j := range v {
				v[j] = rng.Float64()
			}
			// ids below the initial count that a delete freed are skipped
			_ = tw.svc.Update(uint32(rng.Intn(b.ds.n)), v)
		}
	}()
	var lat []float64
	queries := b.classes[0].queries
	for rep := 0; rep < 4; rep++ {
		for i := range queries {
			q := core.Query{A: queries[i].a, B: queries[i].b, Op: core.LE}
			start := time.Now()
			_, _, _ = tw.svc.Query(q)
			lat = append(lat, us(time.Since(start)))
		}
	}
	close(stop)
	wg.Wait()
	set("service.read_under_write_us", median(lat), "us")
}
