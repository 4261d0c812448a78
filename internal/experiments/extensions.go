package experiments

import (
	"fmt"
	"math/rand"

	"planar/internal/adaptive"
	"planar/internal/constraint"
	"planar/internal/core"
	"planar/internal/dataset"
	"planar/internal/reduce"
	"planar/internal/stats"
)

func init() {
	register("ext-count", "Extension: O(log n) COUNT(*) and selectivity bounds via order statistics", extCount)
	register("ext-constraint", "Extension: linear constraint (conjunctive) queries over planar indexes", extConstraint)
	register("ext-adaptive", "Extension: workload-adaptive index tuning (the paper's future work)", extAdaptive)
	register("ext-reduce", "Extension: PCA dimensionality-reduction filter (the paper's future work)", extReduce)
}

// extReduce runs the exact PCA filter on correlated high-dimensional
// data — the regime the paper's future-work remark targets — and
// compares against the full-dimension scan.
func extReduce(s *sweep) error {
	fx := lazySynth(dataset.KindCorrelated, s.Points, 10, 4, 0, s.Seed)
	out := stats.NewTable(
		fmt.Sprintf("Extension — PCA filter (Corr, n=%d, d=10, RQ=4)", s.Points),
		"components", "varexpl%", "filter", "pruned%", "scan")
	var base result
	for ri, r := range []int{1, 2, 4} {
		filter := lazily(func() (*reduce.Filter, error) {
			f, err := fx()
			if err != nil {
				return nil, err
			}
			return reduce.NewFilter(f.store, r)
		})
		res, err := s.measure(fmt.Sprintf("r%d/filter", r), s.Queries, func() (op, check, error) {
			pf, err := filter()
			if err != nil {
				return nil, nil, err
			}
			f, _ := fx()
			qs := Draw(f.g, s.Seed+42, s.Queries)
			return func(i int) (outcome, error) {
				n := 0
				st, err := pf.Inequality(qs[i%len(qs)], func(uint32) bool { n++; return true })
				return outcome{n: n, stat: st.PruningFraction()}, err
			}, same(scanned(f.store, qs)), nil
		})
		if err != nil {
			return err
		}
		if ri == 0 {
			// The scan does not depend on r: one measurement serves
			// every row.
			if base, err = s.measure("scan", s.Queries, baseline(fx, s.Seed+42, s.Queries)); err != nil {
				return err
			}
		}
		comps := peek(s, func() int { pf, _ := filter(); return pf.Reducer().Components() })
		expl := peek(s, func() float64 { pf, _ := filter(); return pf.VarianceExplained() })
		out.AddRow(comps, 100*expl, res.mean(), 100*res.stat/float64(s.Queries), base.mean())
	}
	return s.print(out.String())
}

// extCount compares exact COUNT(*) through the index (order
// statistics + II verification) against counting by scan, and shows
// the width of the zero-cost selectivity bounds.
func extCount(s *sweep) error {
	// The fixture and its query stream, drawn once.
	type counting struct {
		synth
		qs []core.Query
	}
	fx := lazily(func() (counting, error) {
		store, m, g, err := SynthSetup(dataset.KindIndependent, s.Points, 6, 4, 100, s.Seed)
		return counting{synth{store, m, g}, Draw(g, s.Seed+42, s.Queries)}, err
	})
	// counted answers COUNT(*) by testing every stored point.
	counted := func(c counting) op {
		return func(i int) (outcome, error) {
			q, n := c.qs[i%len(c.qs)], 0
			c.store.Each(func(_ uint32, v []float64) bool {
				if q.Satisfies(v) {
					n++
				}
				return true
			})
			return outcome{n: n}, nil
		}
	}
	index, err := s.measure("indexed", s.Queries, func() (op, check, error) {
		c, err := fx()
		return func(i int) (outcome, error) {
			n, _, err := c.m.Count(c.qs[i%len(c.qs)])
			return outcome{n: n}, err
		}, same(counted(c)), err
	})
	if err != nil {
		return err
	}
	scan, err := s.measure("scan", s.Queries, func() (op, check, error) {
		c, err := fx()
		return counted(c), nil, err
	})
	if err != nil {
		return err
	}
	// The bounds must contain the scan's count.
	bounds, err := s.measure("bounds", s.Queries, func() (op, check, error) {
		c, err := fx()
		return func(i int) (outcome, error) {
				lo, hi, err := c.m.SelectivityBounds(c.qs[i%len(c.qs)])
				return outcome{n: lo, stat: float64(hi-lo) / float64(c.store.Len())}, err
			}, func(i int, _ outcome) error {
				lo, hi, err := c.m.SelectivityBounds(c.qs[i%len(c.qs)])
				want, _ := counted(c)(i)
				if err == nil && (want.n < lo || want.n > hi) {
					err = fmt.Errorf("bounds [%d,%d] miss count %d", lo, hi, want.n)
				}
				return err
			}, err
	})
	if err != nil {
		return err
	}
	out := stats.NewTable(
		fmt.Sprintf("Extension — COUNT(*) (Indp, n=%d, dim=6, RQ=4, #index=100)", s.Points),
		"metric", "value")
	out.AddRow("indexed COUNT(*)", index.mean())
	out.AddRow("scan COUNT(*)", scan.mean())
	out.AddRow("avg bounds width (% of n)", 100*bounds.stat/float64(s.Queries))
	return s.print(out.String())
}

// extConstraint runs conjunctions of three half-spaces and compares
// the bound-driven evaluator with a full scan.
func extConstraint(s *sweep) error {
	type conj struct {
		ev    *constraint.Evaluator
		store *core.PointStore
	}
	fx := lazily(func() (conj, error) {
		store, m, _, err := SynthSetup(dataset.KindIndependent, s.Points, 3, 4, 30, s.Seed)
		if err != nil {
			return conj{}, err
		}
		// Negative-octant indexes so GE constraints are also indexable.
		negDoms := []core.Domain{{Lo: -4, Hi: -1}, {Lo: -4, Hi: -1}, {Lo: -4, Hi: -1}}
		if _, err := m.SampleBudget(30, negDoms, rand.New(rand.NewSource(s.Seed+5))); err != nil {
			return conj{}, err
		}
		ev, err := constraint.NewEvaluator(m)
		return conj{ev, store}, err
	})
	rng := rand.New(rand.NewSource(s.Seed + 42))
	cs := make([]constraint.Conjunction, s.Queries)
	for i := range cs {
		cs[i] = constraint.Conjunction{}.
			And(core.Query{A: []float64{1 + rng.Float64()*3, 1 + rng.Float64()*3, 1 + rng.Float64()*3}, B: 150 + rng.Float64()*150, Op: core.LE}).
			And(core.Query{A: []float64{1, 2, 1}, B: 60 + rng.Float64()*60, Op: core.GE}).
			And(core.Query{A: []float64{2, 1, 3}, B: 200 + rng.Float64()*200, Op: core.LE})
	}
	conjScan := func(c conj) op {
		return func(i int) (outcome, error) {
			want, err := constraint.Scan(c.store, cs[i%len(cs)])
			return outcome{n: len(want)}, err
		}
	}
	eval, err := s.measure("evaluator", s.Queries, func() (op, check, error) {
		c, err := fx()
		if err != nil {
			return nil, nil, err
		}
		return func(i int) (outcome, error) {
			ids, plan, err := c.ev.IDs(cs[i%len(cs)])
			return outcome{n: len(ids), stat: float64(plan.Candidates)}, err
		}, same(conjScan(c)), nil
	})
	if err != nil {
		return err
	}
	scan, err := s.measure("scan", s.Queries, func() (op, check, error) {
		c, err := fx()
		return conjScan(c), nil, err
	})
	if err != nil {
		return err
	}
	out := stats.NewTable(
		fmt.Sprintf("Extension — conjunctive queries (Indp, n=%d, dim=3)", s.Points),
		"metric", "value")
	out.AddRow("evaluator", eval.mean())
	out.AddRow("scan", scan.mean())
	out.AddRow("avg candidates", eval.avgStat())
	out.AddRow("avg results", eval.avgAnswer())
	return s.print(out.String())
}

// tuning is ext-adaptive's fixture: the tuner, and the queries of each
// phase of the drifting workload, drawn in order.
type tuning struct {
	tn    *adaptive.Tuner
	store *core.PointStore
	qs    [][]core.Query
	seen  int // phases the tuner has answered
}

// extAdaptive replays a drifting workload through the adaptive tuner
// and reports pruning before and after it locks on.
func extAdaptive(s *sweep) error {
	phases := []struct {
		cell, name string
		dir        []float64
		n          int
	}{
		{"A-cold", "direction A (cold)", []float64{2, 1, 3, 1}, 25},
		{"A-tuned", "direction A (tuned)", []float64{2, 1, 3, 1}, 50},
		{"drift-B", "drift to B", []float64{1, 4, 1, 2}, 25},
		{"B-tuned", "direction B (tuned)", []float64{1, 4, 1, 2}, 50},
	}
	fx := lazily(func() (*tuning, error) {
		store, m, _, err := SynthSetup(dataset.KindIndependent, s.Points, 4, 1, 0, s.Seed)
		if err != nil {
			return nil, err
		}
		tn, err := adaptive.NewTuner(m, 4, 20)
		t := &tuning{tn: tn, store: store}
		rng := rand.New(rand.NewSource(s.Seed + 42))
		for _, ph := range phases {
			qs := make([]core.Query, ph.n)
			for i := range qs {
				a := make([]float64, 4)
				for j, v := range ph.dir {
					a[j] = v * (1 + 0.002*rng.Float64())
				}
				qs[i] = core.Query{A: a, B: 0.25 * 100 * (a[0] + a[1] + a[2] + a[3]), Op: core.LE}
			}
			t.qs = append(t.qs, qs)
		}
		return t, err
	})
	out := stats.NewTable(
		fmt.Sprintf("Extension — adaptive index tuning (Indp, n=%d, dim=4, budget=4)", s.Points),
		"phase", "queries", "avg time", "avg pruned%", "retunes")
	for p, ph := range phases {
		res, err := s.measure(ph.cell, ph.n, func() (op, check, error) {
			t, err := fx()
			if err != nil {
				return nil, nil, err
			}
			// The phases before this one shape the tuner: replay any
			// that were not measured, untimed.
			for ; t.seen < p; t.seen++ {
				for _, q := range t.qs[t.seen] {
					if _, _, err := t.tn.InequalityIDs(q); err != nil {
						return nil, nil, err
					}
				}
			}
			t.seen = max(t.seen, p+1)
			qs := t.qs[p]
			return func(i int) (outcome, error) {
				ids, st, err := t.tn.InequalityIDs(qs[i%len(qs)])
				return outcome{n: len(ids), stat: st.PruningFraction()}, err
			}, same(scanned(t.store, qs)), nil
		})
		if err != nil {
			return err
		}
		retunes := peek(s, func() int { t, _ := fx(); return t.tn.Retunes() })
		out.AddRow(ph.name, ph.n, res.mean(), 100*res.stat/float64(ph.n), retunes)
	}
	return s.print(out.String())
}
