package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"planar/internal/core"
	"planar/internal/dataset"
	"planar/internal/queries"
	"planar/internal/sqlfunc"
	"planar/internal/stats"
)

func init() {
	register("fig6a", "Figure 6(a): query time, Consumption SQL function (Critical_Consume)", fig6a)
	register("fig6b", "Figure 6(b): query time, CMoment, RQ × #index",
		func(s *sweep) error { return fig6bc(s, dataset.CMoment) })
	register("fig6c", "Figure 6(c): query time, CTexture, RQ × #index",
		func(s *sweep) error { return fig6bc(s, dataset.CTexture) })
	register("fig6d", "Figure 6(d): index construction time, real-world datasets", fig6d)
}

// consumption is fig6a's fixture: one CriticalConsume whose index
// budget grows along the printed rows.
type consumption struct {
	cc     *sqlfunc.CriticalConsume
	budget *ladder
}

// fig6a reproduces the Consumption experiment: the Critical_Consume
// SQL function answered with 10..200 planar indexes versus a
// sequential scan. The paper reports 62ms baseline vs 9ms with 200
// indexes (~7× speed-up) on 2.07M rows.
func fig6a(s *sweep) error {
	budgets := []int{10, 50, 100, 200}
	fx := lazily(func() (consumption, error) {
		d := dataset.Consumption(s.RealPoints, s.Seed)
		tbl, err := sqlfunc.FromData(d, dataset.ConsumptionColumns)
		if err != nil {
			return consumption{}, err
		}
		rng := rand.New(rand.NewSource(s.Seed))
		cc, err := sqlfunc.NewCriticalConsume(tbl, "active_power", "voltage", "current",
			core.Domain{Lo: 0.1, Hi: 1.0}, 10, rng)
		have := 10
		return consumption{cc, &ladder{budgets: budgets, climb: func(budget int) error {
			if budget <= have {
				return nil
			}
			doms := []core.Domain{{Lo: 1, Hi: 1}, {Lo: -1.0, Hi: -0.1}}
			_, err := cc.Index().AddIndexes(budget-have, doms, rng)
			have = budget
			return err
		}}}, err
	})
	rng := rand.New(rand.NewSource(s.Seed + 7))
	thresholds := make([]float64, s.Queries)
	for i := range thresholds {
		thresholds[i] = 0.1 + 0.9*rng.Float64()
	}
	scan := func(f consumption) op {
		return func(i int) (outcome, error) {
			return outcome{n: len(f.cc.QueryScan(thresholds[i%len(thresholds)]))}, nil
		}
	}
	out := stats.NewTable(
		fmt.Sprintf("Figure 6(a) — Consumption (n=%d), threshold ~ U(0.1, 1.0)", s.RealPoints),
		"#index", "query", "pruned%", "fellback")
	for _, budget := range budgets {
		res, err := s.measure(fmt.Sprintf("ind%d", budget), s.Queries, func() (op, check, error) {
			f, err := fx()
			if err == nil {
				err = f.budget.to(budget)
			}
			if err != nil {
				return nil, nil, err
			}
			return func(i int) (outcome, error) {
				ids, st, err := f.cc.Query(thresholds[i%len(thresholds)])
				return outcome{n: len(ids), stat: st.PruningFraction(), fellBack: st.FellBack}, err
			}, same(scan(f)), nil
		})
		if err != nil {
			return err
		}
		indexes := peek(s, func() int { f, _ := fx(); return f.cc.Index().Multi().NumIndexes() })
		out.AddRow(indexes, res.mean(), 100*res.avgStat(), res.fellBack)
	}
	res, err := s.measure("baseline", s.Queries, func() (op, check, error) {
		f, err := fx()
		return scan(f), nil, err
	})
	if err != nil {
		return err
	}
	out.AddRow("baseline", res.mean(), 0.0, 0)
	return s.print(out.String())
}

// fig6bc reproduces the image-feature experiments: Equation 18
// queries over CMoment (9-d) or CTexture (16-d) sweeping RQ and the
// index budget.
func fig6bc(s *sweep, gen func(n int, seed int64) *dataset.Data) error {
	budgets := []int{1, 10, 50, 100}
	data := lazily(func() (*dataset.Data, error) { return gen(s.RealPoints, s.Seed), nil })
	store := lazily(func() (*core.PointStore, error) { d, _ := data(); return d.Store() })
	out := stats.NewTable(peek(s, func() string {
		d, _ := data()
		return fmt.Sprintf("Figure 6 — %s (n=%d, d=%d)", d.Name, d.Len(), d.Dim())
	}), "RQ", "#index", "query", "pruned%", "baseline")
	for _, rq := range []int{2, 4, 8, 12} {
		fx := lazily(func() (synth, error) {
			st, err := store()
			if err != nil {
				return synth{}, err
			}
			d, _ := data()
			g, err := queries.NewEq18(d.AxisMaxes(), rq)
			if err != nil {
				return synth{}, err
			}
			m, err := core.NewMulti(st)
			return synth{st, m, g}, err
		})
		base, err := s.measure(fmt.Sprintf("RQ%d/baseline", rq), s.Queries, baseline(fx, s.Seed+99, s.Queries))
		if err != nil {
			return err
		}
		grown := growing(fx, budgets, s.Seed)
		for _, budget := range budgets {
			res, err := s.measure(fmt.Sprintf("RQ%d/ind%d", rq, budget), s.Queries,
				indexed(grown(budget), s.Seed+99, s.Queries))
			if err != nil {
				return err
			}
			indexes := peek(s, func() int { f, _ := fx(); return f.m.NumIndexes() })
			out.AddRow(rq, indexes, res.mean(), 100*res.avgStat(), base.mean())
		}
	}
	return s.print(out.String())
}

// realSets are the simulated real-world datasets, by the name each
// generator gives its data.
var realSets = []struct {
	name string
	gen  func(n int, seed int64) *dataset.Data
}{{"cmoment", dataset.CMoment}, {"ctexture", dataset.CTexture}, {"consumption", dataset.Consumption}}

// fig6d times planar index construction over the three real-world
// datasets for growing budgets. The paper reports 0.12–3.11 s per
// index at full scale.
func fig6d(s *sweep) error {
	out := stats.NewTable("Figure 6(d) — index construction time (total for the budget)",
		"dataset", "#index", "build", "per-index")
	for _, set := range realSets {
		store := lazily(func() (*core.PointStore, error) { return set.gen(s.RealPoints, s.Seed).Store() })
		for _, budget := range []int{1, 10, 50, 100, 200} {
			res, err := s.measure(fmt.Sprintf("%s/ind%d", set.name, budget), 1, func() (op, check, error) {
				st, err := store()
				if err != nil {
					return nil, nil, err
				}
				doms := make([]core.Domain, st.Dim())
				for i := range doms {
					doms[i] = core.Domain{Lo: 1, Hi: 12}
				}
				return func(int) (outcome, error) {
					m, err := core.NewMulti(st)
					if err != nil {
						return outcome{}, err
					}
					added, err := m.SampleBudget(budget, doms, rand.New(rand.NewSource(s.Seed)))
					if err == nil && added == 0 {
						err = fmt.Errorf("experiments: no indexes added for %s", set.name)
					}
					return outcome{n: added}, err
				}, nil, nil
			})
			if err != nil {
				return err
			}
			out.AddRow(set.name, res.answers, res.total, res.total/time.Duration(max(res.answers, 1)))
		}
	}
	return s.print(out.String())
}
