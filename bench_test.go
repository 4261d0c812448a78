// Benchmark suite for the paper's evaluation (Section 7) and the
// system around it. BenchmarkPaper runs every cell of every experiment
// in internal/experiments — the operations cmd/planarbench times for
// its tables, over the same fixtures and query streams — and the
// system benchmarks below time the planner, the pipeline's overhead,
// the bulk load and the B+ tree against a sorted slice.
package planar

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"planar/internal/btree"
	"planar/internal/core"
	"planar/internal/dataset"
	"planar/internal/exec"
	"planar/internal/experiments"
	"planar/internal/vecmath"
)

// BenchmarkPaper runs each cell of each experiment at DefaultConfig
// as BenchmarkPaper/<id>/<cell>, one operation (a query, a build or
// an update) per iteration. A cell builds its fixture only when it is
// selected: -bench 'Paper/fig7/dim6/' builds the dim=6 fixtures alone.
func BenchmarkPaper(b *testing.B) {
	cfg := experiments.DefaultConfig()
	for _, e := range experiments.All() {
		cells, err := e.Cells(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for i, c := range cells {
			cells[i] = experiments.Cell{} // a fixture goes once its last cell has run
			b.Run(e.ID+"/"+c.Name, func(b *testing.B) {
				run, err := c.Prepare()
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := run(i); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationStore is the B+ tree backing store against a plain
// sorted slice, on the experiments' fixture (Indp, dim=6, RQ=4, one
// index, DefaultConfig) and query stream.
func BenchmarkAblationStore(b *testing.B) {
	cfg := experiments.DefaultConfig()
	store, m, g, err := experiments.SynthSetup(dataset.KindIndependent, cfg.Points, 6, 4, 1, cfg.Seed)
	if err != nil {
		b.Fatal(err)
	}
	ix := m.Index(0) // the one index of a budget-1 Multi
	qs := experiments.Draw(g, cfg.Seed+42, cfg.Queries)

	// Sorted-slice twin: same keys, answered with binary search and
	// linear scans over the slice.
	normal := ix.EffectiveNormal()
	type ent struct {
		key float64
		id  uint32
	}
	ents := make([]ent, 0, store.Len())
	store.Each(func(id uint32, v []float64) bool {
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
			if _, _, err := m.InequalityIDs(qs[i%len(qs)]); err != nil {
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
				if q.Satisfies(store.Vector(ents[j].id)) {
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

// BenchmarkBtreeBulkLoad tracks the core build primitive (Figure 12a
// is built from this).
func BenchmarkBtreeBulkLoad(b *testing.B) {
	ents := make([]btree.Entry, 50000)
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
	points := make([][]float64, 50000)
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
// smaller and intermediate intervals directly, by rank and chunk as
// the executor does). The delta is the cost of the sink/dispatch
// abstraction.
func BenchmarkPipelineOverhead(b *testing.B) {
	src, qs, points := pipelineOverheadFixture(b)
	b.Run("inline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			plan := exec.PlanQuery(src, q)
			tree := src.Indexes[0].Tree
			acc := tree.RankLE(plan.Tmin)
			matched := 0
			tree.RankChunks(0, acc, func(ids []uint32) bool {
				for range ids {
					matched++
				}
				return true
			})
			tree.RankChunks(acc, tree.RankLE(plan.Tmax), func(ids []uint32) bool {
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
