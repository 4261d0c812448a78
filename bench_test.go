// Benchmark suite reproducing every table and figure of the paper's
// evaluation (Section 7), plus the ablations called out in DESIGN.md.
// Each benchmark measures the operation the corresponding figure
// plots, at a laptop-scale workload; cmd/planarbench regenerates the
// full tables (including at paper scale with -paper).
package planar

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"planar/internal/adaptive"
	"planar/internal/btree"
	"planar/internal/constraint"
	"planar/internal/core"
	"planar/internal/dataset"
	"planar/internal/exec"
	"planar/internal/mbrtree"
	"planar/internal/moving"
	"planar/internal/queries"
	"planar/internal/reduce"
	"planar/internal/scan"
	"planar/internal/sqlfunc"
	"planar/internal/vecmath"
)

const (
	benchPoints = 50000
	benchReal   = 20000
	benchMoving = 300
)

// synthFixture lazily builds and caches synthetic stores with index
// sets, keyed by configuration, so repeated benchmarks share setup.
type synthKey struct {
	kind   dataset.Kind
	dim    int
	rq     int
	budget int
}

type synthFix struct {
	store *core.PointStore
	multi *core.Multi
	gen   queries.Eq18
}

var (
	synthMu    sync.Mutex
	synthCache = map[synthKey]*synthFix{}
)

func getSynth(b *testing.B, kind dataset.Kind, dim, rq, budget int) *synthFix {
	b.Helper()
	synthMu.Lock()
	defer synthMu.Unlock()
	key := synthKey{kind, dim, rq, budget}
	if f, ok := synthCache[key]; ok {
		return f
	}
	d := dataset.Synthetic(kind, benchPoints, dim, 1)
	store, err := d.Store()
	if err != nil {
		b.Fatal(err)
	}
	g, err := queries.NewEq18(d.AxisMaxes(), rq)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMulti(store)
	if err != nil {
		b.Fatal(err)
	}
	if budget > 0 {
		if _, err := g.BuildIndexes(m, budget, rand.New(rand.NewSource(7))); err != nil {
			b.Fatal(err)
		}
	}
	f := &synthFix{store: store, multi: m, gen: g}
	synthCache[key] = f
	return f
}

func queryList(g queries.Eq18, n int, seed int64) []core.Query {
	rng := rand.New(rand.NewSource(seed))
	out := make([]core.Query, n)
	for i := range out {
		out[i] = g.Query(rng)
	}
	return out
}

// benchIndexed runs one indexed inequality query per iteration and
// reports the average pruning fraction as a metric.
func benchIndexed(b *testing.B, m *core.Multi, qs []core.Query) {
	b.Helper()
	var pruned float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := m.Inequality(qs[i%len(qs)], func(uint32) bool { return true })
		if err != nil {
			b.Fatal(err)
		}
		pruned += st.PruningFraction()
	}
	b.ReportMetric(100*pruned/float64(b.N), "pruned%")
}

func benchScan(b *testing.B, store *core.PointStore, qs []core.Query) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scan.Count(store, qs[i%len(qs)])
	}
}

// ---------------------------------------------------------------
// Figure 6(a): Consumption SQL function.

var consumptionOnce struct {
	sync.Once
	cc  *sqlfunc.CriticalConsume
	err error
}

func getConsumption(b *testing.B) *sqlfunc.CriticalConsume {
	b.Helper()
	consumptionOnce.Do(func() {
		d := dataset.Consumption(benchReal, 1)
		tbl, err := sqlfunc.FromData(d, dataset.ConsumptionColumns)
		if err != nil {
			consumptionOnce.err = err
			return
		}
		consumptionOnce.cc, consumptionOnce.err = sqlfunc.NewCriticalConsume(
			tbl, "active_power", "voltage", "current",
			core.Domain{Lo: 0.1, Hi: 1.0}, 100, rand.New(rand.NewSource(2)))
	})
	if consumptionOnce.err != nil {
		b.Fatal(consumptionOnce.err)
	}
	return consumptionOnce.cc
}

func BenchmarkFig6a_Consumption(b *testing.B) {
	cc := getConsumption(b)
	thresholds := make([]float64, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range thresholds {
		thresholds[i] = 0.1 + 0.9*rng.Float64()
	}
	b.Run("planar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := cc.Query(thresholds[i%len(thresholds)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cc.QueryScan(thresholds[i%len(thresholds)])
		}
	})
}

// ---------------------------------------------------------------
// Figures 6(b,c): image feature datasets.

func benchImage(b *testing.B, d *dataset.Data) {
	store, err := d.Store()
	if err != nil {
		b.Fatal(err)
	}
	g, err := queries.NewEq18(d.AxisMaxes(), 4)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMulti(store)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.BuildIndexes(m, 100, rand.New(rand.NewSource(4))); err != nil {
		b.Fatal(err)
	}
	qs := queryList(g, 64, 5)
	b.Run("planar", func(b *testing.B) { benchIndexed(b, m, qs) })
	b.Run("baseline", func(b *testing.B) { benchScan(b, store, qs) })
}

func BenchmarkFig6b_CMoment(b *testing.B) {
	benchImage(b, dataset.CMoment(benchReal, 1))
}

func BenchmarkFig6c_CTexture(b *testing.B) {
	benchImage(b, dataset.CTexture(benchReal, 1))
}

// ---------------------------------------------------------------
// Figure 6(d) / 13(a): index construction.

func BenchmarkFig6d_IndexBuild(b *testing.B) {
	for _, mk := range []struct {
		name string
		data *dataset.Data
	}{
		{"cmoment", dataset.CMoment(benchReal, 1)},
		{"ctexture", dataset.CTexture(benchReal, 1)},
		{"consumption", dataset.Consumption(benchReal, 1)},
	} {
		b.Run(mk.name, func(b *testing.B) {
			store, err := mk.data.Store()
			if err != nil {
				b.Fatal(err)
			}
			doms := make([]core.Domain, mk.data.Dim())
			for i := range doms {
				doms[i] = core.Domain{Lo: 1, Hi: 12}
			}
			rng := rand.New(rand.NewSource(6))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := core.NewMulti(store)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := m.SampleBudget(1, doms, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------
// Figures 7 and 9: dim × RQ sweep at 100 indexes.

func BenchmarkFig7Fig9_QueryByDimRQ(b *testing.B) {
	for _, dim := range []int{2, 6, 10, 14} {
		for _, rq := range []int{2, 12} {
			f := getSynth(b, dataset.KindIndependent, dim, rq, 100)
			qs := queryList(f.gen, 64, 8)
			b.Run(fmt.Sprintf("dim%d/RQ%d/planar", dim, rq), func(b *testing.B) {
				benchIndexed(b, f.multi, qs)
			})
		}
		f := getSynth(b, dataset.KindIndependent, dim, 4, 100)
		qs := queryList(f.gen, 64, 8)
		b.Run(fmt.Sprintf("dim%d/baseline", dim), func(b *testing.B) {
			benchScan(b, f.store, qs)
		})
	}
}

// ---------------------------------------------------------------
// Figures 8 and 10: budget sweep at RQ=4.

func BenchmarkFig8Fig10_QueryByBudget(b *testing.B) {
	for _, budget := range []int{1, 10, 100} {
		for _, kind := range dataset.Kinds {
			f := getSynth(b, kind, 6, 4, budget)
			qs := queryList(f.gen, 64, 9)
			b.Run(fmt.Sprintf("%s/ind%d", kind, budget), func(b *testing.B) {
				benchIndexed(b, f.multi, qs)
			})
		}
	}
}

// ---------------------------------------------------------------
// Figure 11: inequality-parameter sweep.

func BenchmarkFig11_InequalityParameter(b *testing.B) {
	f := getSynth(b, dataset.KindIndependent, 6, 4, 100)
	for _, ineq := range []float64{0.10, 0.50, 1.00} {
		g := f.gen
		g.Ineq = ineq
		qs := queryList(g, 64, 10)
		b.Run(fmt.Sprintf("ineq%.2f", ineq), func(b *testing.B) {
			benchIndexed(b, f.multi, qs)
		})
	}
}

// ---------------------------------------------------------------
// Figure 12: scalability in n.

func BenchmarkFig12_Scalability(b *testing.B) {
	for _, n := range []int{10000, 50000, 100000} {
		d := dataset.Independent(n, 6, 1)
		store, err := d.Store()
		if err != nil {
			b.Fatal(err)
		}
		g, err := queries.NewEq18(d.AxisMaxes(), 4)
		if err != nil {
			b.Fatal(err)
		}
		m, err := core.NewMulti(store)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := g.BuildIndexes(m, 50, rand.New(rand.NewSource(11))); err != nil {
			b.Fatal(err)
		}
		qs := queryList(g, 64, 12)
		b.Run(fmt.Sprintf("n%d/planar", n), func(b *testing.B) { benchIndexed(b, m, qs) })
		b.Run(fmt.Sprintf("n%d/baseline", n), func(b *testing.B) { benchScan(b, store, qs) })
	}
}

// ---------------------------------------------------------------
// Figure 13(a): build time by dimension.

func BenchmarkFig13a_BuildByDim(b *testing.B) {
	for _, dim := range []int{2, 6, 10, 14} {
		d := dataset.Independent(benchPoints, dim, 1)
		store, err := d.Store()
		if err != nil {
			b.Fatal(err)
		}
		g, err := queries.NewEq18(d.AxisMaxes(), 12)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("dim%d", dim), func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := core.NewMulti(store)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := g.BuildIndexes(m, 1, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------
// Figure 13(b): memory footprint (reported as a metric).

func BenchmarkFig13b_Memory(b *testing.B) {
	for _, dim := range []int{2, 14} {
		f := getSynth(b, dataset.KindIndependent, dim, 12, 10)
		b.Run(fmt.Sprintf("dim%d_ind10", dim), func(b *testing.B) {
			var bytes int
			for i := 0; i < b.N; i++ {
				bytes = f.multi.MemoryBytes()
			}
			b.ReportMetric(float64(bytes)/(1<<20), "MB")
		})
	}
}

// ---------------------------------------------------------------
// Figure 13(c): dynamic updates.

func BenchmarkFig13c_Update(b *testing.B) {
	f := getSynth(b, dataset.KindIndependent, 10, 12, 1)
	rng := rand.New(rand.NewSource(14))
	vec := make([]float64, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(rng.Intn(benchPoints))
		for j := range vec {
			vec[j] = 1 + 99*rng.Float64()
		}
		if err := f.multi.Update(id, vec); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------
// Figure 14: moving-object intersection.

func BenchmarkFig14a_LinearIntersection(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	setA := moving.GenLinear2D(benchMoving, 1000, 0.1, 1, rng)
	setB := moving.GenLinear2D(benchMoving, 1000, 0.1, 1, rng)
	space := &moving.LinearSpace{A: setA, B: setB}
	join, err := moving.NewJoin(space, []float64{10, 11, 12, 13, 14, 15})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := mbrtree.Build(setB)
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{10, 11.5, 13, 15}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			moving.Baseline(space, times[i%len(times)], 10)
		}
	})
	b.Run("planar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := join.AtPairs(times[i%len(times)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mbrtree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tree.Join(setA, times[i%len(times)], 10)
		}
	})
}

func BenchmarkFig14b_CircularIntersection(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	omegas := []float64{moving.DegPerMin(1), moving.DegPerMin(3), moving.DegPerMin(5)}
	circ, ws := moving.GenCircular(benchMoving, moving.Vec2{X: 50, Y: 50}, 1, 100, omegas, rng)
	lin := moving.GenLinear2D(benchMoving, 100, 0.1, 1, rng)
	work, err := moving.NewCircularWorkload(circ, ws, lin, []float64{10, 11, 12, 13, 14, 15})
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{10, 12.5, 15}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			work.Baseline(times[i%len(times)], 10)
		}
	})
	b.Run("planar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := work.At(times[i%len(times)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkFig14c_AccelIntersection(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	space := &moving.AccelSpace{
		A: moving.GenAccel3D(benchMoving, 1000, 0.1, 1, 0.01, 0.05, rng),
		L: moving.GenLinear3D(benchMoving, 1000, 0.1, 1, rng),
	}
	join, err := moving.NewJoin(space, []float64{10, 11, 12, 13, 14, 15})
	if err != nil {
		b.Fatal(err)
	}
	times := []float64{10, 12.5, 15}
	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			moving.Baseline(space, times[i%len(times)], 10)
		}
	})
	b.Run("planar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := join.AtPairs(times[i%len(times)], 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------
// Table 3: top-k nearest neighbours.

func BenchmarkTable3_TopK(b *testing.B) {
	f := getSynth(b, dataset.KindIndependent, 6, 4, 100)
	qs := queryList(f.gen, 64, 18)
	for _, k := range []int{50, 1000} {
		b.Run(fmt.Sprintf("k%d/planar", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := f.multi.TopK(qs[i%len(qs)], k); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("k%d/baseline", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				scan.TopK(f.store, qs[i%len(qs)], k)
			}
		})
	}
}

// ---------------------------------------------------------------
// Ablation A: best-index selection heuristic.

func BenchmarkAblationSelect(b *testing.B) {
	f := getSynth(b, dataset.KindIndependent, 6, 8, 30)
	angle, err := core.NewMulti(f.store, core.WithSelection(core.SelectAngle))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < f.multi.NumIndexes(); i++ {
		ix := f.multi.Index(i)
		if _, err := angle.AddNormal(ix.Normal(), ix.Signs()); err != nil {
			b.Fatal(err)
		}
	}
	qs := queryList(f.gen, 64, 19)
	b.Run("volume", func(b *testing.B) { benchIndexed(b, f.multi, qs) })
	b.Run("angle", func(b *testing.B) { benchIndexed(b, angle, qs) })
}

// ---------------------------------------------------------------
// Ablation B: B+ tree backing store vs a plain sorted slice.

func BenchmarkAblationStore(b *testing.B) {
	f := getSynth(b, dataset.KindIndependent, 6, 4, 1)
	ix := f.multi.Index(0) // the one index of a budget-1 Multi
	qs := queryList(f.gen, 64, 20)

	// Sorted-slice twin: same keys, answered with binary search and
	// linear scans over the slice.
	normal := ix.EffectiveNormal()
	type ent struct {
		key float64
		id  uint32
	}
	ents := make([]ent, 0, f.store.Len())
	f.store.Each(func(id uint32, v []float64) bool {
		var key float64
		for i, c := range normal {
			key += c * v[i]
		}
		ents = append(ents, ent{key, id})
		return true
	})
	sort.Slice(ents, func(i, j int) bool { return ents[i].key < ents[j].key })

	b.Run("btree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := f.multi.InequalityIDs(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sortedslice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			// Same three-interval algorithm on the slice.
			tmin, tmax := thresholdsFor(q, ix.Normal())
			lo := sort.Search(len(ents), func(j int) bool { return ents[j].key > tmin })
			hi := sort.Search(len(ents), func(j int) bool { return ents[j].key > tmax })
			count := lo
			for j := lo; j < hi; j++ {
				if q.Satisfies(f.store.Vector(ents[j].id)) {
					count++
				}
			}
			_ = count
		}
	})
}

// thresholdsFor recomputes first-octant interval thresholds for the
// sorted-slice ablation (queries here are all-positive, δ = 0).
func thresholdsFor(q core.Query, c []float64) (tmin, tmax float64) {
	tmin, tmax = 1e308, -1e308
	for i, a := range q.A {
		if a == 0 {
			continue
		}
		t := c[i] * q.B / a
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
		}
	}
	return tmin, tmax
}

// ---------------------------------------------------------------
// Extension benchmarks (DESIGN.md extensions beyond the paper).

func BenchmarkExtCount(b *testing.B) {
	f := getSynth(b, dataset.KindIndependent, 6, 4, 100)
	qs := queryList(f.gen, 64, 23)
	b.Run("indexedCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := f.multi.Count(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("selectivityBounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := f.multi.SelectivityBounds(qs[i%len(qs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scanCount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan.Count(f.store, qs[i%len(qs)])
		}
	})
}

func BenchmarkExtConstraint(b *testing.B) {
	f := getSynth(b, dataset.KindIndependent, 3, 4, 20)
	ev, err := constraint.NewEvaluator(f.multi)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	cs := make([]constraint.Conjunction, 32)
	for i := range cs {
		cs[i] = constraint.Conjunction{}.
			And(core.Query{A: []float64{1 + rng.Float64()*3, 1 + rng.Float64()*3, 1 + rng.Float64()*3}, B: 100 + rng.Float64()*150, Op: core.LE}).
			And(core.Query{A: []float64{2, 1, 3}, B: 200 + rng.Float64()*150, Op: core.LE})
	}
	b.Run("evaluator", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ev.Count(cs[i%len(cs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := constraint.Scan(f.store, cs[i%len(cs)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExtAdaptive(b *testing.B) {
	d := dataset.Independent(benchPoints, 4, 1)
	store, err := d.Store()
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.NewMulti(store)
	if err != nil {
		b.Fatal(err)
	}
	tn, err := adaptive.NewTuner(m, 4, 20)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	dir := []float64{2, 1, 3, 1.5}
	query := func() core.Query {
		a := make([]float64, 4)
		for i, v := range dir {
			a[i] = v * (1 + 0.002*rng.Float64())
		}
		return core.Query{A: a, B: 0.25 * 100 * 7.5, Op: core.LE}
	}
	// Warm the tuner past its first retune.
	for i := 0; i < 40; i++ {
		if _, _, err := tn.InequalityIDs(query()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tn.Inequality(query(), func(uint32) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtReduce(b *testing.B) {
	d := dataset.Correlated(benchPoints, 10, 1)
	store, err := d.Store()
	if err != nil {
		b.Fatal(err)
	}
	g, err := queries.NewEq18(d.AxisMaxes(), 4)
	if err != nil {
		b.Fatal(err)
	}
	f, err := reduce.NewFilter(store, 2)
	if err != nil {
		b.Fatal(err)
	}
	qs := queryList(g, 64, 26)
	b.Run("pcafilter", func(b *testing.B) {
		var pruned float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := f.Inequality(qs[i%len(qs)], func(uint32) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
			pruned += st.PruningFraction()
		}
		b.ReportMetric(100*pruned/float64(b.N), "pruned%")
	})
	b.Run("scan", func(b *testing.B) { benchScan(b, store, qs) })
}

// BenchmarkBtreeBulkLoad tracks the core build primitive (Figure 12a
// is built from this).
func BenchmarkBtreeBulkLoad(b *testing.B) {
	ents := make([]btree.Entry, benchPoints)
	rng := rand.New(rand.NewSource(22))
	for i := range ents {
		ents[i] = btree.Entry{Key: rng.Float64(), ID: uint32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]btree.Entry(nil), ents...)
		btree.BulkLoad(cp)
	}
}

// ---------------------------------------------------------------
// Execution-pipeline benchmarks: the planner alone, and the
// abstraction overhead of internal/exec against an inline port of the
// pre-refactor three-interval loop.

// planOnlyFixture builds an exec.Source with many candidate indexes
// directly, so BenchmarkPlan can time the planner alone — no
// per-index read locks, no interval-size estimation, no execution.
func planOnlyFixture(b *testing.B, numIndexes int) (*exec.Source, exec.Query) {
	b.Helper()
	rng := rand.New(rand.NewSource(53))
	dim := 6
	n := 5000
	points := make([][]float64, n)
	for i := range points {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		points[i] = v
	}
	infos := make([]exec.IndexInfo, numIndexes)
	for x := range infos {
		normal := make([]float64, dim)
		for j := range normal {
			normal[j] = 1 + rng.Float64()*9
		}
		ents := make([]btree.Entry, n)
		for id, v := range points {
			k := 0.0
			for j := range v {
				k += normal[j] * v[j]
			}
			ents[id] = btree.Entry{Key: k, ID: uint32(id)}
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Key < ents[j].Key })
		infos[x] = exec.IndexInfo{
			Tree:  btree.BulkLoad(ents),
			C:     normal,
			Delta: make([]float64, dim),
			CS:    normal,
			Signs: vecmath.FirstOctant(dim),
		}
	}
	src := &exec.Source{N: n, Indexes: infos}
	q := exec.Query{A: []float64{2, 5, 1, 3, 4, 2}, B: 9000}
	return src, q
}

// BenchmarkPlan is the layer record for the planner: the whole Plan
// stage (octant checks, scoring every candidate, thresholds) at a
// service-sized and a paper-sized index budget. 0 allocs/op.
func BenchmarkPlan(b *testing.B) {
	for _, r := range []int{4, 100} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			src, q := planOnlyFixture(b, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.B = float64(i % 1000)
				exec.PlanQuery(src, q)
			}
		})
	}
}

// pipelineOverheadFixture assembles an exec.Source over one index the
// way internal/core does, so the pipeline and an inline loop can be
// timed on identical trees.
func pipelineOverheadFixture(b *testing.B) (*exec.Source, []exec.Query, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(41))
	dim := 4
	points := make([][]float64, benchPoints)
	for i := range points {
		v := make([]float64, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		points[i] = v
	}
	normal := []float64{1, 2, 1, 3}
	cs := append([]float64(nil), normal...)
	ents := make([]btree.Entry, len(points))
	for id, v := range points {
		k := 0.0
		for j := range v {
			k += cs[j] * v[j]
		}
		ents[id] = btree.Entry{Key: k, ID: uint32(id)}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Key < ents[j].Key })
	info := exec.IndexInfo{
		Tree:  btree.BulkLoad(ents),
		C:     normal,
		Delta: make([]float64, dim),
		CS:    cs,
		Signs: vecmath.FirstOctant(dim),
	}
	rows := make([]float64, 0, len(points)*dim)
	live := make([]bool, len(points))
	for id, v := range points {
		rows = append(rows, v...)
		live[id] = true
	}
	src := &exec.Source{
		N:       len(points),
		Indexes: []exec.IndexInfo{info},
		Rows:    rows,
		RowLive: live,
		RowDim:  dim,
	}
	qs := make([]exec.Query, 32)
	for i := range qs {
		qs[i] = exec.Query{
			A: []float64{1 + rng.Float64()*4, 1 + rng.Float64()*4, 1 + rng.Float64()*4, 1 + rng.Float64()*4},
			B: rng.Float64() * 12000,
		}
	}
	return src, qs, points
}

// BenchmarkPipelineOverhead compares exec.Run against an inline port
// of the pre-refactor Algorithm-1 loop (plan once, then walk the
// smaller and intermediate intervals directly). The delta is the cost
// of the sink/dispatch abstraction.
func BenchmarkPipelineOverhead(b *testing.B) {
	src, qs, points := pipelineOverheadFixture(b)
	b.Run("inline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			plan := exec.PlanQuery(src, q)
			matched := 0
			tree := src.Indexes[0].Tree
			tree.AscendLE(plan.Tmin, func(e btree.Entry) bool { matched++; return true })
			tree.RangeChunks(plan.Tmin, plan.Tmax, func(_ []float64, ids []uint32) bool {
				for _, id := range ids {
					if q.Satisfies(points[id]) {
						matched++
					}
				}
				return true
			})
			_ = matched
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			matched := 0
			_, err := exec.Run(src, qs[i%len(qs)], exec.FuncSink(func(uint32) bool {
				matched++
				return true
			}))
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
