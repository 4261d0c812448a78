package experiments

import (
	"fmt"
	"math/rand"

	"planar/internal/core"
	"planar/internal/dataset"
	"planar/internal/stats"
)

func init() {
	register("fig7", "Figure 7: query time, synthetic datasets, dim × RQ, 100 indexes",
		func(s *sweep) error { return synthSweepRQ(s, false) })
	register("fig8", "Figure 8: query time, synthetic datasets, dim × #index, RQ=4",
		func(s *sweep) error { return synthSweepBudget(s, false) })
	register("fig9", "Figure 9: pruning percentage, synthetic datasets, dim × RQ, 100 indexes",
		func(s *sweep) error { return synthSweepRQ(s, true) })
	register("fig10", "Figure 10: pruning percentage, synthetic datasets, dim × #index, RQ=4",
		func(s *sweep) error { return synthSweepBudget(s, true) })
	register("fig11", "Figure 11: selectivity and query time vs inequality parameter", fig11)
	register("fig12", "Figure 12: scalability with the number of data points", fig12)
}

var (
	sweepDims    = []int{2, 6, 10, 14}
	sweepRQs     = []int{2, 4, 8, 12}
	sweepBudgets = []int{1, 10, 50, 100}
)

// synthSweepRQ reproduces Figures 7 (times) and 9 (pruning): 100
// indexes, dimensions 2–14, RQ 2–12, all three synthetic
// distributions.
func synthSweepRQ(s *sweep, pruningOnly bool) error {
	what := "query time"
	if pruningOnly {
		what = "pruning %"
	}
	for _, dim := range sweepDims {
		out := stats.NewTable(
			fmt.Sprintf("dim=%d (%s, n=%d, #index=100)", dim, what, s.Points),
			"RQ", "indp", "corr", "anti", "baseline")
		for _, rq := range sweepRQs {
			row := []interface{}{rq}
			var base interface{} = "-"
			for _, kind := range dataset.Kinds {
				fx := lazySynth(kind, s.Points, dim, rq, 100, s.Seed)
				name := fmt.Sprintf("dim%d/RQ%d/", dim, rq)
				res, err := s.measure(name+kind.String(), s.Queries, indexed(fx, s.Seed+42, s.Queries))
				if err != nil {
					return err
				}
				if pruningOnly {
					row = append(row, 100*res.avgStat())
					continue
				}
				row = append(row, res.mean())
				if kind == dataset.KindIndependent {
					b, err := s.measure(name+"baseline", s.Queries, baseline(fx, s.Seed+42, s.Queries))
					if err != nil {
						return err
					}
					base = b.mean()
				}
			}
			out.AddRow(append(row, base)...)
		}
		if err := s.print(out.String() + "\n"); err != nil {
			return err
		}
	}
	return nil
}

// synthSweepBudget reproduces Figures 8 (times) and 10 (pruning):
// RQ=4, budgets 1–100.
func synthSweepBudget(s *sweep, pruningOnly bool) error {
	what := "query time"
	if pruningOnly {
		what = "pruning %"
	}
	const rq = 4
	for _, dim := range sweepDims {
		out := stats.NewTable(
			fmt.Sprintf("dim=%d (%s, n=%d, RQ=%d)", dim, what, s.Points, rq),
			"#index", "indp", "corr", "anti", "baseline")
		var bases []func() (synth, error)
		var grown []func(budget int) func() (synth, error)
		for _, kind := range dataset.Kinds {
			fx := lazySynth(kind, s.Points, dim, rq, 0, s.Seed)
			bases = append(bases, fx)
			grown = append(grown, growing(fx, sweepBudgets, s.Seed))
		}
		var base interface{} = "-"
		for _, budget := range sweepBudgets {
			row := []interface{}{budget}
			for ki, kind := range dataset.Kinds {
				res, err := s.measure(fmt.Sprintf("dim%d/ind%d/%s", dim, budget, kind), s.Queries,
					indexed(grown[ki](budget), s.Seed+42, s.Queries))
				if err != nil {
					return err
				}
				if pruningOnly {
					row = append(row, 100*res.avgStat())
					continue
				}
				row = append(row, res.mean())
				if ki == 0 && budget == sweepBudgets[0] {
					// The scan does not depend on the budget: one
					// measurement serves every row.
					b, err := s.measure(fmt.Sprintf("dim%d/baseline", dim), s.Queries,
						baseline(bases[0], s.Seed+42, s.Queries))
					if err != nil {
						return err
					}
					base = b.mean()
				}
			}
			out.AddRow(append(row, base)...)
		}
		if err := s.print(out.String() + "\n"); err != nil {
			return err
		}
	}
	return nil
}

// growing returns, for a budget, fx's index set grown along budgets
// to that budget (see ladder).
func growing(fx func() (synth, error), budgets []int, seed int64) func(budget int) func() (synth, error) {
	lad := lazily(func() (*ladder, error) {
		f, err := fx()
		if err != nil {
			return nil, err
		}
		return eq18Ladder(f.m, f.g, budgets, seed), nil
	})
	return func(budget int) func() (synth, error) {
		return func() (synth, error) {
			l, err := lad()
			if err != nil {
				return synth{}, err
			}
			f, _ := fx()
			return f, l.to(budget)
		}
	}
}

// fig11 sweeps the inequality parameter from 0.10 to 1.00 at RQ=4
// and 100 indexes, reporting selectivity and query time. The paper
// observes time peaking around 0.50–0.75.
func fig11(s *sweep) error {
	ineqs := []float64{0.10, 0.25, 0.50, 0.75, 1.00}
	for _, dim := range []int{6, 10} {
		out := stats.NewTable(
			fmt.Sprintf("Figure 11 — dim=%d (n=%d, RQ=4, #index=100)", dim, s.Points),
			"ineq", "sel-indp%", "t-indp", "sel-corr%", "t-corr", "sel-anti%", "t-anti", "baseline")
		var fxs []func() (synth, error)
		for _, kind := range dataset.Kinds {
			fxs = append(fxs, lazySynth(kind, s.Points, dim, 4, 100, s.Seed))
		}
		for _, ineq := range ineqs {
			row := []interface{}{ineq}
			var base interface{}
			for ki, kind := range dataset.Kinds {
				fx := fxs[ki]
				at := func() (synth, error) {
					f, err := fx()
					f.g.Ineq = ineq
					return f, err
				}
				name := fmt.Sprintf("dim%d/ineq%.2f/", dim, ineq)
				res, err := s.measure(name+kind.String(), s.Queries, indexed(at, s.Seed+42, s.Queries))
				if err != nil {
					return err
				}
				row = append(row, 100*res.avgAnswer()/float64(s.Points), res.mean())
				if ki == 0 {
					b, err := s.measure(name+"baseline", s.Queries, baseline(at, s.Seed+42, s.Queries))
					if err != nil {
						return err
					}
					base = b.mean()
				}
			}
			out.AddRow(append(row, base)...)
		}
		if err := s.print(out.String() + "\n"); err != nil {
			return err
		}
	}
	return nil
}

// fig12 measures build and query time while growing the dataset from
// 10% to 100% of cfg.Points (dim=6, RQ=4). Index time should grow
// loglinearly and query time sublinearly.
func fig12(s *sweep) error {
	fractions := []float64{0.1, 0.3, 0.5, 0.7, 1.0}
	budgets := []int{1, 10, 50, 100}

	build := stats.NewTable(
		fmt.Sprintf("Figure 12(a) — index build time (dim=6, up to n=%d)", s.Points),
		"n", "#ind=1", "#ind=10", "#ind=50", "#ind=100")
	var qtables []*stats.Table
	for _, kind := range dataset.Kinds {
		qtables = append(qtables, stats.NewTable(
			fmt.Sprintf("Figure 12 — query time, %s (dim=6, RQ=4)", kind),
			"n", "#ind=1", "#ind=10", "#ind=50", "#ind=100", "baseline"))
	}

	for _, frac := range fractions {
		n := max(int(frac*float64(s.Points)), 10)
		buildRow := []interface{}{n}
		for ki, kind := range dataset.Kinds {
			row := []interface{}{n}
			fx := lazySynth(kind, n, 6, 4, 0, s.Seed)
			for _, budget := range budgets {
				// The query cell runs on the index set the build cell
				// built last, or builds its own.
				m := freshly(fx, budget, s.Seed+int64(budget))
				if ki == 0 {
					res, err := s.measure(fmt.Sprintf("n%d/build/ind%d", n, budget), 1, m.cell(indexCount))
					if err != nil {
						return err
					}
					buildRow = append(buildRow, res.mean())
				}
				res, err := s.measure(fmt.Sprintf("n%d/%s/ind%d", n, kind, budget), s.Queries,
					indexed(m.get, s.Seed+42, s.Queries))
				if err != nil {
					return err
				}
				row = append(row, res.mean())
			}
			res, err := s.measure(fmt.Sprintf("n%d/%s/baseline", n, kind), s.Queries,
				baseline(fx, s.Seed+42, s.Queries))
			if err != nil {
				return err
			}
			qtables[ki].AddRow(append(row, res.mean())...)
		}
		build.AddRow(buildRow...)
	}
	for _, t := range append([]*stats.Table{build}, qtables...) {
		if err := s.print(t.String() + "\n"); err != nil {
			return err
		}
	}
	return nil
}

// fresh builds a new index set of budget Eq18 indexes over f's store,
// sampled with a generator seeded by seed.
func fresh(f synth, budget int, seed int64) (synth, error) {
	m, err := core.NewMulti(f.store)
	if err != nil {
		return f, err
	}
	f.m = m
	_, err = f.g.BuildIndexes(m, budget, rand.New(rand.NewSource(seed)))
	return f, err
}

// freshly is fresh on fx's fixture, as a built structure.
func freshly(fx func() (synth, error), budget int, seed int64) *built[synth] {
	return &built[synth]{
		inputs: func() error { _, err := fx(); return err },
		build: func() (synth, error) {
			f, err := fx()
			if err != nil {
				return f, err
			}
			return fresh(f, budget, seed)
		},
	}
}

func indexCount(f synth) int { return f.m.NumIndexes() }
