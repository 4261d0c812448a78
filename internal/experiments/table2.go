package experiments

import (
	"fmt"
	"math"

	"planar/internal/dataset"
	"planar/internal/stats"
)

func init() {
	register("table2", "Table 2: dataset characteristics (computed from the generators)", table2)
}

// table2 regenerates the paper's dataset characteristics table from
// the actual workload generators, so the substitution datasets can be
// audited against the published cardinalities, dimensionalities and
// attribute ranges (paper Table 2: Indp/Corr/Anti 1M × 2–14 in
// (1,100); CMoment 68,040 × 9 in (−4.15, 4.59); CTexture 68,040 × 16
// in (−5.25, 50.21); Consumption 2,075,259 × 4 in (0, 254)).
func table2(s *sweep) error {
	if s.listing {
		return nil // it times nothing: no cells
	}
	out := stats.NewTable(
		fmt.Sprintf("Table 2 — dataset characteristics (generated at n=%d / %d)", s.Points, s.RealPoints),
		"dataset", "#points", "#dim", "range")
	add := func(d *dataset.Data) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < d.Dim(); i++ {
			if v := d.AxisMin(i); v < lo {
				lo = v
			}
			if v := d.AxisMax(i); v > hi {
				hi = v
			}
		}
		out.AddRow(d.Name, d.Len(), d.Dim(), fmt.Sprintf("(%.2f, %.2f)", lo, hi))
	}
	for _, kind := range dataset.Kinds {
		add(dataset.Synthetic(kind, s.Points, 6, s.Seed))
	}
	for _, set := range realSets {
		add(set.gen(s.RealPoints, s.Seed))
	}
	return s.print(out.String())
}
