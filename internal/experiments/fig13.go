package experiments

import (
	"fmt"
	"math/rand"

	"planar/internal/dataset"
	"planar/internal/stats"
)

func init() {
	register("fig13a", "Figure 13(a): index build time vs dimensionality and budget", fig13a)
	register("fig13b", "Figure 13(b): memory consumption vs budget and dimensionality", fig13b)
	register("fig13c", "Figure 13(c): dynamic index update time vs update percentage", fig13c)
}

func fig13a(s *sweep) error {
	out := stats.NewTable(
		fmt.Sprintf("Figure 13(a) — index build time (n=%d)", s.Points),
		"dim", "#ind=1", "#ind=10", "#ind=50", "#ind=100")
	for _, dim := range sweepDims {
		fx := lazySynth(dataset.KindIndependent, s.Points, dim, 12, 0, s.Seed)
		row := []interface{}{dim}
		for _, budget := range sweepBudgets {
			res, err := s.measure(fmt.Sprintf("dim%d/ind%d", dim, budget), 1, freshly(fx, budget, s.Seed).cell(indexCount))
			if err != nil {
				return err
			}
			row = append(row, res.total)
		}
		out.AddRow(row...)
	}
	return s.print(out.String())
}

func fig13b(s *sweep) error {
	if s.listing {
		return nil // it reports memory, not time: no cells
	}
	out := stats.NewTable(
		fmt.Sprintf("Figure 13(b) — memory consumption (n=%d)", s.Points),
		"#index", "dim=2(MB)", "dim=6(MB)", "dim=10(MB)", "dim=14(MB)")
	mb := func(b int) float64 { return float64(b) / (1 << 20) }
	// Build once per dim with the largest budget; intermediate rows
	// reuse prefix sums of per-index footprints.
	type dimState struct {
		storeBytes int
		indexBytes []int
	}
	var dims []dimState
	for _, dim := range sweepDims {
		store, _, g, err := SynthSetup(dataset.KindIndependent, s.Points, dim, 12, 0, s.Seed)
		if err != nil {
			return err
		}
		f, err := fresh(synth{store: store, g: g}, 100, s.Seed)
		if err != nil {
			return err
		}
		st := dimState{storeBytes: f.store.MemoryBytes()}
		for i := 0; i < f.m.NumIndexes(); i++ {
			st.indexBytes = append(st.indexBytes, f.m.Index(i).MemoryBytes())
		}
		dims = append(dims, st)
	}
	for _, budget := range sweepBudgets {
		row := []interface{}{budget}
		for _, st := range dims {
			total := st.storeBytes
			for i := 0; i < budget && i < len(st.indexBytes); i++ {
				total += st.indexBytes[i]
			}
			row = append(row, mb(total))
		}
		out.AddRow(row...)
	}
	// Baseline: the raw data alone.
	row := []interface{}{"baseline"}
	for _, st := range dims {
		row = append(row, mb(st.storeBytes))
	}
	out.AddRow(row...)
	return s.print(out.String())
}

// fig13c updates a growing percentage of points and reports the
// total and per-point per-index update cost. The paper reports 170ms
// per index for 5% of 1M 10-d points (3.4 µs per point per index in
// our units — they write 3.4 ms for 1K points).
func fig13c(s *sweep) error {
	out := stats.NewTable(
		fmt.Sprintf("Figure 13(c) — dynamic updates (n=%d, 1 index)", s.Points),
		"dim", "update%", "total", "per-point")
	for _, dim := range []int{6, 10} {
		for _, pct := range []int{1, 5, 10, 25} {
			// Updates move the points: each row starts from a fresh
			// fixture, and its cell's stream goes on where it stopped.
			update := lazily(func() (op, error) {
				store, _, g, err := SynthSetup(dataset.KindIndependent, s.Points, dim, 12, 0, s.Seed)
				if err != nil {
					return nil, err
				}
				f, err := fresh(synth{store: store, g: g}, 1, s.Seed)
				rng := rand.New(rand.NewSource(s.Seed + int64(pct)))
				vec := make([]float64, dim)
				return func(int) (outcome, error) {
					id := uint32(rng.Intn(s.Points))
					for j := range vec {
						vec[j] = 1 + 99*rng.Float64()
					}
					return outcome{}, f.m.Update(id, vec)
				}, err
			})
			k := max(s.Points*pct/100, 1)
			res, err := s.measure(fmt.Sprintf("dim%d/pct%d", dim, pct), k, func() (op, check, error) {
				o, err := update()
				return o, nil, err
			})
			if err != nil {
				return err
			}
			out.AddRow(dim, pct, res.total, res.mean())
		}
	}
	return s.print(out.String())
}
