package experiments

import (
	"fmt"

	"planar/internal/core"
	"planar/internal/dataset"
	"planar/internal/scan"
	"planar/internal/stats"
)

func init() {
	register("table3", "Table 3: top-k nearest-neighbour time, Indp, dim=6, RQ=4, 100 indexes", table3)
	register("ablation-select", "Ablation: volume-minimisation vs angle-minimisation index selection", ablationSelect)
}

// table3 reproduces the top-k experiment: how many points the planar
// method examines (checked/total) and the query time versus a scan,
// for k in {50, 1000, 10000}. The paper reports ~11–13% checked and
// ~2.5× speed-up.
func table3(s *sweep) error {
	fx := lazySynth(dataset.KindIndependent, s.Points, 6, 4, 100, s.Seed)
	out := stats.NewTable(
		fmt.Sprintf("Table 3 — top-k nearest neighbours (Indp, n=%d, dim=6, RQ=4, #index=100)", s.Points),
		"k", "checked/total%", "planar", "baseline")
	for _, k := range []int{50, 1000, 10000} {
		k = min(k, s.Points)
		// topScan answers the top-k by scan, ids in rank order.
		topScan := func(f synth, qs []core.Query) op {
			return func(i int) (outcome, error) {
				res := scan.TopK(f.store, qs[i%len(qs)], k)
				return outcome{n: len(res), ids: resultIDs(res)}, nil
			}
		}
		planar, err := s.measure(fmt.Sprintf("k%d/planar", k), s.Queries, func() (op, check, error) {
			f, err := fx()
			if err != nil {
				return nil, nil, err
			}
			qs := Draw(f.g, s.Seed+42, s.Queries)
			return func(i int) (outcome, error) {
				res, st, err := f.m.TopK(qs[i%len(qs)], k)
				checked := float64(st.Accepted+st.Verified) / float64(st.N)
				return outcome{n: len(res), ids: resultIDs(res), stat: checked}, err
			}, same(topScan(f, qs)), nil
		})
		if err != nil {
			return err
		}
		base, err := s.measure(fmt.Sprintf("k%d/baseline", k), s.Queries, func() (op, check, error) {
			f, err := fx()
			return topScan(f, Draw(f.g, s.Seed+42, s.Queries)), nil, err
		})
		if err != nil {
			return err
		}
		out.AddRow(k, 100*planar.stat/float64(s.Queries), planar.mean(), base.mean())
	}
	return s.print(out.String())
}

func resultIDs(res []core.Result) []uint32 {
	ids := make([]uint32, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

// ablationSelect compares the paper's two best-index selection
// heuristics (Section 5.1) on the same index set. The paper states
// volume minimisation "usually outperforms" angle minimisation.
func ablationSelect(s *sweep) error {
	out := stats.NewTable(
		fmt.Sprintf("Ablation — best-index selection (n=%d, RQ=8, #index=30)", s.Points),
		"dim", "dataset", "volume", "vol-pruned%", "angle", "ang-pruned%")
	for _, dim := range []int{6, 10} {
		for _, kind := range dataset.Kinds {
			fx := lazySynth(kind, s.Points, dim, 8, 30, s.Seed)
			// Same index set, switched selection: an angle variant
			// sharing the store and normals.
			angle := lazily(func() (synth, error) {
				f, err := fx()
				if err == nil {
					f.m, err = cloneWithSelection(f.m)
				}
				return f, err
			})
			name := fmt.Sprintf("dim%d/%s/", dim, kind)
			resV, err := s.measure(name+"volume", s.Queries, indexed(fx, s.Seed+42, s.Queries))
			if err != nil {
				return err
			}
			resA, err := s.measure(name+"angle", s.Queries, indexed(angle, s.Seed+42, s.Queries))
			if err != nil {
				return err
			}
			out.AddRow(dim, kind.String(), resV.mean(), 100*resV.avgStat(), resA.mean(), 100*resA.avgStat())
		}
	}
	return s.print(out.String())
}
