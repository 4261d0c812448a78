package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"planar/internal/core"
	"planar/internal/service"
)

// config sizes a run. The defaults are the benchmark of record; the
// smoke test shrinks them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // directory the run may write under

	points         int
	setups         int // set-ups per run; setup_s is their median
	steadyWrites   int // updates applied before writes are timed
	minRounds      int
	tailWrites     int // writes per round of a read-only workload's write tail
	crashes        int // crash copies recovered from during each timed phase
	durableCrashes int // crash copies recovered from under the durable policy
	crashWrites    int // durable writes before each of those
}

func defaultConfig() config {
	return config{
		seed: 1, seconds: 12, scratch: filepath.Join(".bench_build", "planar-benchmark"),
		points: 100_000, setups: 3, steadyWrites: 20_000, minRounds: 8,
		tailWrites: 250, crashes: 6, durableCrashes: 3, crashWrites: 25,
	}
}

const (
	dim        = 4 // d'
	numIndexes = 4
	// tailShare of a read-only workload's timed seconds goes to the
	// rounds of writes that follow its reads.
	tailShare = 0.4
	// The tail checkpoints after every fourth round only: a checkpoint
	// takes twice as long as a round's writes, and the tail is there for
	// the writes.
	tailCheckpointEvery = 4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func commitOf() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// measure runs rounds of the given shape for the budget, and at least
// cfg.minRounds of them, every checkpointEvery-th one closed by a
// checkpoint. At the end of such a round everything acknowledged is
// checkpointed, so that is where crash recoveries are taken from,
// cfg.crashes of them spread evenly over the budget: the store's speed
// on this box changes by the second, and only a recovery that falls in
// a fast second tells what recovery costs.
func (b *bench) measure(cfg config, reads, writes, checkpointEvery int, budget time.Duration) ([]roundStats, error) {
	var (
		rounds []roundStats
		spent  time.Duration // inside rounds; recoveries do not count
		every  = budget / time.Duration(cfg.crashes+1)
		due    = every
	)
	for len(rounds) < cfg.minRounds || spent < budget {
		checkpoint := writes > 0 && (len(rounds)+1)%checkpointEvery == 0
		start := time.Now()
		rounds = append(rounds, b.round(reads, writes, checkpoint))
		spent += time.Since(start)
		b.rss = append(b.rss, residentMB())
		if spent >= due && (writes == 0 || checkpoint) {
			due += every
			if err := b.recoverOnce(); err != nil {
				return nil, err
			}
		}
	}
	return rounds, nil
}

// summary is one kind of request over the quiet rounds of a phase:
// the median over those rounds of each round's own median, 99th
// percentile and rate. A round's rate is its requests over the time
// spent inside them, what one closed-loop client sustains on this kind
// of request alone. Taking each statistic per round and then the median
// keeps a burst that hits a few rounds out of the tail, where pooling
// every sample would let one such round set the 99th percentile.
type summary struct {
	p50, p99   float64 // µs
	opsPerSec  float64
	samples    int // requests in the quiet rounds
	quietShare float64
}

// summarize scores the rounds by the median latency of one kind of
// request, so reads are chosen on the rounds' median read and writes on
// their median write.
func summarize(rounds []roundStats, kind func(roundStats) []float64) summary {
	var p50s, p99s, rates []float64
	for _, r := range rounds {
		lat := append([]float64(nil), kind(r)...)
		sort.Float64s(lat)
		var sum float64
		for _, l := range lat {
			sum += l
		}
		p50s = append(p50s, percentile(lat, 0.50))
		p99s = append(p99s, percentile(lat, 0.99))
		rates = append(rates, float64(len(lat))/(sum/1e6))
	}
	quiet := quietRounds(p50s)
	s := summary{quietShare: float64(len(quiet)) / float64(max(len(rounds), 1))}
	pick := func(xs []float64) float64 {
		var chosen []float64
		for _, i := range quiet {
			chosen = append(chosen, xs[i])
		}
		return median(chosen)
	}
	s.p50, s.p99, s.opsPerSec = pick(p50s), pick(p99s), pick(rates)
	for _, i := range quiet {
		s.samples += len(kind(rounds[i]))
	}
	return s
}

func readsOf(r roundStats) []float64  { return r.reads }
func writesOf(r roundStats) []float64 { return r.writes }

// quietCheckpoint is the median of the checkpoints that were quiet by
// their own duration, in milliseconds, and their share.
func quietCheckpoint(rounds []roundStats) (float64, float64) {
	var all []float64
	for _, r := range rounds {
		if r.checkpoint > 0 {
			all = append(all, r.checkpoint)
		}
	}
	var quiet []float64
	for _, i := range quietRounds(all) {
		quiet = append(quiet, all[i])
	}
	return median(quiet), float64(len(quiet)) / float64(max(len(all), 1))
}

// openFresh builds a store in dir, reopens it as it is served and
// attaches b to it.
func (b *bench) openFresh(dir string) (loadStats, error) {
	st, err := buildStore(dir, b.ds, b.spec.paged, 1)
	if err != nil {
		return st, fmt.Errorf("building the store: %w", err)
	}
	db, err := service.Open(dir, servingOptions(b.spec.paged, false))
	if err != nil {
		return st, fmt.Errorf("reopening the store: %w", err)
	}
	b.dir = dir
	return st, b.attach(db)
}

// prepare runs the set-ups and leaves b attached to the last store:
// fresh directory, bulk load, checkpoint, close, reopen as served,
// warm-up. It returns each set-up's duration; calibrating the query
// classes and checking them against the oracle is the harness's own
// work and is left out.
func (b *bench) prepare(cfg config, runDir string, w io.Writer) ([]float64, error) {
	var (
		times  []float64
		master = b.sh
	)
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		dir := filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		start := time.Now()
		if _, err := b.openFresh(dir); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)

		if i == 0 {
			if err := b.calibrate(); err != nil {
				_ = b.db.Close()
				return nil, err
			}
		}
		// Discarded set-ups warm up against a copy of the oracle.
		b.sh = master
		if !last {
			b.sh = master.clone()
		}
		start = time.Now()
		if b.spec.writes > 0 {
			if err := b.steady(cfg.steadyWrites, nil); err != nil {
				_ = b.db.Close()
				return nil, err
			}
		}
		b.round(b.spec.reads, b.spec.writes, true)
		elapsed += time.Since(start)
		times = append(times, seconds(elapsed))
		fmt.Fprintf(w, "setup %d: %.3f s\n", i+1, seconds(elapsed))
		if last {
			break
		}
		if err := b.db.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// recoverOnce copies the open store's directory as a crash would leave
// it, opens the copy and asks it one query. The time from Open to the
// answer goes to b.recoveries. The answer and then every point of the recovered
// store are compared with the oracle: an acknowledged write that is
// missing, or present under another id, is a failure.
func (b *bench) recoverOnce() error {
	copyDir := b.dir + "-crash"
	if err := crashCopy(b.dir, copyDir); err != nil {
		return err
	}
	defer os.RemoveAll(copyDir)
	q := &b.classes[0].queries[0]
	b.attempted++
	start := time.Now()
	db, err := service.Open(copyDir, servingOptions(b.spec.paged, false))
	if err != nil {
		b.fail("recovery: %v", err)
		return nil
	}
	defer db.Close()
	ids, _, err := db.Query(core.Query{A: q.a, B: q.b, Op: core.LE})
	b.recoveries = append(b.recoveries, seconds(time.Since(start)))
	if err != nil {
		b.fail("recovery: first query: %v", err)
		return nil
	}
	if !b.agrees(ids, q) {
		b.fail("recovery: first query has %d ids, oracle has %d", len(ids), len(b.want))
	}
	store := db.Multi().Store()
	if store.Len() != b.sh.len() {
		b.fail("recovery: %d live points, %d acknowledged", store.Len(), b.sh.len())
		return nil
	}
	for _, id := range b.sh.ids {
		if !store.Live(id) || !equalVec(store.Vector(id), b.sh.vec(id)) {
			b.fail("recovery: acknowledged point %d is missing or differs", id)
			break
		}
	}
	return nil
}

func equalVec(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// crashPhase reopens the store under the durable flush policy and
// recovers from cfg.durableCrashes crash copies, each taken mid-round
// after cfg.crashWrites more acknowledged writes and no checkpoint, so
// that every one of those writes has to come back from the log.
func (b *bench) crashPhase(cfg config) error {
	if err := b.db.Close(); err != nil {
		return err
	}
	db, err := service.Open(b.dir, servingOptions(b.spec.paged, true))
	if err != nil {
		return fmt.Errorf("reopening under the durable policy: %w", err)
	}
	if err := b.attach(db); err != nil {
		return err
	}
	for i := 0; i < cfg.durableCrashes; i++ {
		for j := 0; j < cfg.crashWrites; j++ {
			b.write()
			b.read()
		}
		if err := b.recoverOnce(); err != nil {
			return err
		}
	}
	return nil
}

// newBench makes the run's directory under cfg.scratch, its dataset and
// its oracle, and prints the run record. The caller removes the
// directory.
func newBench(cfg config, w io.Writer) (*bench, string, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runDir, err := os.MkdirTemp(cfg.scratch, spec.name+"-")
	if err != nil {
		return nil, "", err
	}
	ds := genDataset(cfg.seed, cfg.points, dim, numIndexes)
	b := &bench{
		spec: spec, ds: ds, sh: newShadow(ds),
		rng: rand.New(rand.NewSource(cfg.seed ^ 0x5eed)),
	}
	fmt.Fprintf(w, "workload %s: %s\n", spec.name, spec.why)
	fmt.Fprintf(w, "run: commit=%s %s GOMAXPROCS=%d numcpu=%d fs=%s seed=%d points=%d seconds=%g trace=%v\n",
		commitOf(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), fsType(runDir),
		cfg.seed, cfg.points, cfg.seconds, cfg.trace)
	return b, runDir, nil
}

// budgets splits the run's timed seconds between the workload's own
// rounds and, for a read-only workload, the tail of write rounds that
// follows them.
func budgets(cfg config, spec workloadSpec) (rounds, tail time.Duration) {
	rounds = time.Duration(cfg.seconds * float64(time.Second))
	if spec.writes == 0 {
		tail = time.Duration(tailShare * float64(rounds))
	}
	return rounds - tail, tail
}

// runE2E is one untraced run: the end-to-end metrics of one workload.
func runE2E(cfg config, w io.Writer) (result, error) {
	b, runDir, err := newBench(cfg, w)
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(runDir)
	spec := b.spec

	setups, err := b.prepare(cfg, runDir, w)
	if err != nil {
		return result{}, err
	}
	defer func() { _ = b.db.Close() }()
	b.checkAllQueries()
	// Set-up leaves garbage of its own; hand it back so that the
	// resident set sampled during the rounds is the serving store's.
	debug.FreeOSMemory()
	for _, c := range b.classes {
		fmt.Fprintf(w, "class %s: |II| %.0f (target %.0f), answer %.0f (target %.0f), skew up to %.3g\n",
			c.spec.name, c.meanII, c.spec.iiShare*float64(cfg.points),
			c.meanAnswer, c.spec.answerShare*float64(cfg.points), c.skewMax)
	}

	// The read-only workloads report the write path from a tail of write
	// rounds run after their reads, on the same store.
	readBudget, tailBudget := budgets(cfg, spec)
	calUS := calibrate()
	rounds, err := b.measure(cfg, spec.reads, spec.writes, spec.checkpointEvery, readBudget)
	if err != nil {
		return result{}, err
	}
	writeRounds := rounds
	if spec.writes == 0 {
		if err := b.steady(cfg.steadyWrites, nil); err != nil {
			return result{}, err
		}
		if writeRounds, err = b.measure(cfg, 0, cfg.tailWrites, tailCheckpointEvery, tailBudget); err != nil {
			return result{}, err
		}
	}
	if err := b.crashPhase(cfg); err != nil {
		return result{}, err
	}
	if err := b.db.Checkpoint(); err != nil {
		return result{}, err
	}
	diskBytes, err := dirBytes(b.dir)
	if err != nil {
		return result{}, err
	}

	reads, writes := summarize(rounds, readsOf), summarize(writeRounds, writesOf)
	checkpoint, checkpointShare := quietCheckpoint(writeRounds)
	quietShare := min(reads.quietShare, writes.quietShare, checkpointShare)
	fmt.Fprintf(w, "rounds: %d read, %d write; quiet_share %.2f (reads %.2f, writes %.2f, checkpoints %.2f) disturbed=%v cal_us=%.0f; pooled %d reads, %d writes\n",
		len(rounds), len(writeRounds), quietShare, reads.quietShare, writes.quietShare, checkpointShare,
		quietShare < disturbedLow, calUS, reads.samples, writes.samples)
	if reads.samples < p99MinSample || writes.samples < p99MinSample {
		fmt.Fprintf(w, "p99 unresolved: fewer than %d pooled samples of reads or of writes\n", p99MinSample)
	}

	res := result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: map[string]metric{
			"setup_s":              {median(setups), "s"},
			"read_ops_s":           {reads.opsPerSec, "1/s"},
			"read_p50_us":          {reads.p50, "us"},
			"read_p99_us":          {reads.p99, "us"},
			"write_ops_s":          {writes.opsPerSec, "1/s"},
			"write_p50_us":         {writes.p50, "us"},
			"write_p99_us":         {writes.p99, "us"},
			"checkpoint_ms":        {checkpoint, "ms"},
			"recover_s":            {minOf(b.recoveries), "s"},
			"rss_mb":               {median(b.rss), "MB"},
			"disk_bytes_per_point": {float64(diskBytes) / float64(b.sh.len()), "B"},
		},
	}
	if b.failed > 0 {
		fmt.Fprintf(w, "FAILED %d of %d operations; first: %s\n", b.failed, b.attempted, b.firstFail)
	}
	return res, nil
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// printMetrics lists a run's metrics by name, with their units.
func printMetrics(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-34s %14.6f (%d failed of %d attempted)\n", "failed_share",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
}
