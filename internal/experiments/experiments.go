// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 7) as plain-text tables. Each
// experiment is registered under the paper's figure/table id and is
// runnable through cmd/planarbench, which prints its tables, or the
// root benchmark suite, whose BenchmarkPaper runs each of its cells
// as the sub-benchmark BenchmarkPaper/<id>/<cell> at DefaultConfig.
//
// A cell is one named, measured operation: the planar side or the
// baseline of a printed figure, or a build or update the figure
// times. It runs over a fixture its experiment builds on first use,
// shared with its sibling cells. One loop (sweep.measure) times every
// cell for the printed tables, and checks each planar answer against
// the baseline's answer to the same query outside the timed region:
// a mismatch fails the experiment.
//
// Absolute times depend on the machine; what the experiments are
// meant to reproduce is the paper's shape: who wins, by roughly what
// factor, and where the crossovers are. EXPERIMENTS.md records
// paper-vs-measured for each id.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"time"

	"planar/internal/core"
	"planar/internal/dataset"
	"planar/internal/queries"
	"planar/internal/scan"
)

// Config scales the workloads. The paper's settings (1M synthetic
// points, 100-run averages, 5K objects per moving set) are available
// through PaperConfig; DefaultConfig is laptop-scale and preserves
// every experiment's shape.
type Config struct {
	Points     int   // synthetic dataset cardinality
	RealPoints int   // rows for the simulated real-world datasets
	Queries    int   // queries averaged per measurement
	MovingN    int   // moving objects per set
	Seed       int64 // global reproducibility seed
}

// DefaultConfig returns laptop-scale settings.
func DefaultConfig() Config {
	return Config{Points: 100000, RealPoints: 20000, Queries: 20, MovingN: 400, Seed: 1}
}

// PaperConfig returns the paper's full-scale settings.
func PaperConfig() Config {
	return Config{Points: 1000000, RealPoints: 68040, Queries: 100, MovingN: 5000, Seed: 1}
}

// TinyConfig returns settings small enough for unit tests.
func TinyConfig() Config {
	return Config{Points: 2000, RealPoints: 1500, Queries: 5, MovingN: 60, Seed: 1}
}

// Validate rejects degenerate configurations.
func (c Config) Validate() error {
	if c.Points <= 0 || c.RealPoints <= 0 || c.Queries <= 0 || c.MovingN <= 0 {
		return fmt.Errorf("experiments: all config sizes must be positive: %+v", c)
	}
	return nil
}

// Experiment is one reproducible figure or table.
type Experiment struct {
	ID    string
	Title string
	// sweep prints the experiment's tables, declaring each cell where
	// its figure is printed.
	sweep func(s *sweep) error
}

// Run prints the experiment's tables at cfg, measuring every cell.
func (e Experiment) Run(cfg Config, w io.Writer) error {
	return e.sweep(&sweep{Config: cfg, w: w})
}

// Cells lists the experiment's cells at cfg in the order Run measures
// them. Listing builds no dataset, store or index: only the moving
// objects and query parameters some experiments draw up front.
func (e Experiment) Cells(cfg Config) ([]Cell, error) {
	s := &sweep{Config: cfg, w: io.Discard, listing: true}
	err := e.sweep(s)
	return s.cells, err
}

// A Cell is one named, measured operation of an experiment.
type Cell struct {
	Name    string
	prepare func() (op, check, error)
}

// Prepare builds the cell's fixture, unless a sibling cell has built
// it, and returns its operation: run(i) performs the i-th operation
// of the cell's stream, for any i ≥ 0 (query streams repeat).
func (c Cell) Prepare() (run func(i int) error, err error) {
	o, _, err := c.prepare()
	if err != nil {
		return nil, err
	}
	return func(i int) error { _, err := o(i); return err }, nil
}

var registry []Experiment

func register(id, title string, sweep func(s *sweep) error) {
	registry = append(registry, Experiment{ID: id, Title: title, sweep: sweep})
}

// All returns every registered experiment sorted by id.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Find looks an experiment up by id.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config, w io.Writer) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	e, ok := Find(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (use one of %v)", id, ids())
	}
	return e.Run(cfg, w)
}

func ids() []string {
	var out []string
	for _, e := range All() {
		out = append(out, e.ID)
	}
	return out
}

// A sweep is one pass over an experiment. Printing, it builds each
// cell's fixture, measures the cell and writes the tables to w.
// Listing, it only collects the cells: every result reads zero and
// no fixture is built.
type sweep struct {
	Config
	w       io.Writer
	listing bool
	cells   []Cell
}

// op performs the i-th operation of a cell's stream.
type op func(i int) (outcome, error)

// check compares the i-th operation's outcome with a reference answer.
type check func(i int, got outcome) error

// outcome is what one operation answered.
type outcome struct {
	n        int      // answer size: matches, pairs, or indexes or groups built
	ids      []uint32 // the answer's ids, in order, where they are compared (top-k)
	stat     float64  // the planar side's own figure: pruned or examined share, candidates
	fellBack bool
}

// result aggregates one measurement of a cell.
type result struct {
	total    time.Duration
	n        int     // operations timed
	answers  int     // summed outcome sizes
	stat     float64 // summed outcome figures
	fellBack int     // operations answered by a scan
}

// mean is the mean time of one operation (0 in a listing).
func (r result) mean() time.Duration {
	if r.n == 0 {
		return 0
	}
	return r.total / time.Duration(r.n)
}

func (r result) avgStat() float64 { return r.stat / float64(r.n) }

func (r result) avgAnswer() float64 { return float64(r.answers) / float64(r.n) }

// measure declares a cell and, when printing, times n operations of
// it: the one timing loop of every figure, whose measure is their
// mean. Each outcome is checked outside the timed region; a mismatch
// fails the experiment.
func (s *sweep) measure(name string, n int, prepare func() (op, check, error)) (result, error) {
	if s.listing {
		s.cells = append(s.cells, Cell{Name: name, prepare: prepare})
		return result{}, nil
	}
	fail := func(err error) (result, error) { return result{}, fmt.Errorf("experiments: %s: %w", name, err) }
	run, chk, err := prepare()
	if err != nil {
		return fail(err)
	}
	r := result{n: n}
	for i := 0; i < n; i++ {
		start := time.Now()
		got, err := run(i)
		r.total += time.Since(start)
		if err == nil && chk != nil {
			err = chk(i, got)
		}
		if err != nil {
			return fail(err)
		}
		r.answers += got.n
		r.stat += got.stat
		if got.fellBack {
			r.fellBack++
		}
	}
	return r, nil
}

func (s *sweep) print(text string) error {
	_, err := io.WriteString(s.w, text)
	return err
}

// peek reads a figure off a fixture that a measured cell has built; a
// listing builds nothing and reads the zero value.
func peek[T any](s *sweep, read func() T) T {
	var zero T
	if s.listing {
		return zero
	}
	return read()
}

// lazily returns a getter that builds a fixture on its first call and
// returns the same fixture after, so the cells sharing it build it
// once and only when one of them is prepared.
func lazily[T any](build func() (T, error)) func() (T, error) {
	var (
		v     T
		err   error
		built bool
	)
	return func() (T, error) {
		if !built {
			v, err = build()
			built = true
		}
		return v, err
	}
}

// built is a structure a build cell times. The cell builds it afresh
// on every operation and keeps the last one for the query cells,
// which build their own when the build cell has not run.
type built[T any] struct {
	inputs func() error // builds what build reads, untimed; may be nil
	build  func() (T, error)
	last   *T
}

func (b *built[T]) get() (T, error) {
	if b.last == nil {
		v, err := b.build()
		if err != nil {
			return v, err
		}
		b.last = &v
	}
	return *b.last, nil
}

// cell prepares the build cell: op(i) builds afresh, keeps the result
// and answers size(result), or 0 when size is nil.
func (b *built[T]) cell(size func(T) int) func() (op, check, error) {
	return func() (op, check, error) {
		if b.inputs != nil {
			if err := b.inputs(); err != nil {
				return nil, nil, err
			}
		}
		return func(int) (outcome, error) {
			v, err := b.build()
			if err != nil {
				return outcome{}, err
			}
			b.last = &v
			if size == nil {
				return outcome{}, nil
			}
			return outcome{n: size(v)}, nil
		}, nil, nil
	}
}

// same checks an outcome against the reference's answer to the same
// operation: the answer size, and the ids in order where the outcome
// carries them.
func same(ref op) check {
	return func(i int, got outcome) error {
		want, err := ref(i)
		if err != nil {
			return err
		}
		if got.n != want.n || !slices.Equal(got.ids, want.ids) {
			return fmt.Errorf("operation %d disagrees with the baseline: %d results against %d", i, got.n, want.n)
		}
		return nil
	}
}

// synth is a synthetic fixture: a store, its Eq18 generator and an
// index set over it.
type synth struct {
	store *core.PointStore
	m     *core.Multi
	g     queries.Eq18
}

// lazySynth is SynthSetup's fixture, built on first use.
func lazySynth(kind dataset.Kind, n, dim, rq, budget int, seed int64) func() (synth, error) {
	return lazily(func() (synth, error) {
		store, m, g, err := SynthSetup(kind, n, dim, rq, budget, seed)
		return synth{store, m, g}, err
	})
}

// SynthSetup builds a synthetic dataset, its store, an Eq18
// generator and a Multi with the requested index budget: the fixture
// of the synthetic figures.
func SynthSetup(kind dataset.Kind, n, dim, rq, budget int, seed int64) (*core.PointStore, *core.Multi, queries.Eq18, error) {
	d := dataset.Synthetic(kind, n, dim, seed)
	store, err := d.Store()
	if err != nil {
		return nil, nil, queries.Eq18{}, err
	}
	g, err := queries.NewEq18(d.AxisMaxes(), rq)
	if err != nil {
		return nil, nil, queries.Eq18{}, err
	}
	m, err := core.NewMulti(store)
	if err != nil {
		return nil, nil, queries.Eq18{}, err
	}
	if budget > 0 {
		if _, err := g.BuildIndexes(m, budget, rand.New(rand.NewSource(seed+1000))); err != nil {
			return nil, nil, queries.Eq18{}, err
		}
	}
	return store, m, g, nil
}

// Draw returns the first n queries of g's stream for seed: the query
// stream of the Eq18 figures (the synthetic ones draw theirs for
// Config.Seed+42).
func Draw(g queries.Eq18, seed int64, n int) []core.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]core.Query, n)
	for i := range qs {
		qs[i] = g.Query(rng)
	}
	return qs
}

// indexed prepares the planar side of a query stream: op(i) answers
// the i-th of n queries drawn from the fixture's generator for seed
// through its index set, checked against the scan.
func indexed(fx func() (synth, error), seed int64, n int) func() (op, check, error) {
	return func() (op, check, error) {
		f, err := fx()
		if err != nil {
			return nil, nil, err
		}
		qs := Draw(f.g, seed, n)
		return func(i int) (outcome, error) {
			n := 0
			st, err := f.m.Inequality(qs[i%len(qs)], func(uint32) bool { n++; return true })
			return outcome{n: n, stat: st.PruningFraction(), fellBack: st.FellBack}, err
		}, same(scanned(f.store, qs)), nil
	}
}

// baseline prepares the scan of the query stream indexed answers.
func baseline(fx func() (synth, error), seed int64, n int) func() (op, check, error) {
	return func() (op, check, error) {
		f, err := fx()
		if err != nil {
			return nil, nil, err
		}
		return scanned(f.store, Draw(f.g, seed, n)), nil, nil
	}
}

// scanned answers the i-th query of qs by sequential scan.
func scanned(store *core.PointStore, qs []core.Query) op {
	return func(i int) (outcome, error) {
		return outcome{n: scan.Inequality(store, qs[i%len(qs)], func(uint32) bool { return true })}, nil
	}
}

// A ladder grows one index set along a sweep's budgets, a printed row
// at a time, so a row's index set is the same whether or not the rows
// before it were measured. Rows are measured in order.
type ladder struct {
	budgets []int
	rungs   int // budgets climbed
	climb   func(budget int) error
}

func (l *ladder) to(budget int) error {
	for ; l.rungs < len(l.budgets) && l.budgets[l.rungs] <= budget; l.rungs++ {
		if err := l.climb(l.budgets[l.rungs]); err != nil {
			return err
		}
	}
	return nil
}

// eq18Ladder climbs m's budgets the way the Eq18 sweeps do: each rung
// adds the missing indexes with a generator seeded by seed+budget.
func eq18Ladder(m *core.Multi, g queries.Eq18, budgets []int, seed int64) *ladder {
	have := 0
	return &ladder{budgets: budgets, climb: func(budget int) error {
		if budget <= have {
			return nil
		}
		added, err := g.BuildIndexes(m, budget-have, rand.New(rand.NewSource(seed+int64(budget))))
		have += added
		return err
	}}
}

// cloneWithSelection rebuilds a Multi over the same store and
// normals but with angle-minimisation selection, for the selection
// ablation.
func cloneWithSelection(m *core.Multi) (*core.Multi, error) {
	out, err := core.NewMulti(m.Store(), core.WithSelection(core.SelectAngle))
	if err != nil {
		return nil, err
	}
	for i := 0; i < m.NumIndexes(); i++ {
		ix := m.Index(i)
		if _, err := out.AddNormal(ix.Normal(), ix.Signs()); err != nil {
			return nil, err
		}
	}
	return out, nil
}
