package core

import (
	"math/rand"
	"testing"

	"planar/internal/vecmath"
)

// BenchmarkAppendOutsideTranslation times one Append into a 100 000
// point, d = 4 Multi with four first-octant indexes, in range and with
// a point that leaves every index's translation (each op further out,
// so every op widens). Widening is O(d′) arithmetic, so the two should
// cost the same O(d′ + log n) per index.
func BenchmarkAppendOutsideTranslation(b *testing.B) {
	const n, dim = 100_000, 4
	rng := rand.New(rand.NewSource(1))
	s := randomStore(b, rng, n, dim, 0, 100)
	m, err := NewMulti(s)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]NormalSpec, 4)
	for i := range specs {
		normal := make([]float64, dim)
		for j := range normal {
			normal[j] = 0.1 + rng.Float64()
		}
		specs[i] = NormalSpec{Normal: normal, Signs: vecmath.FirstOctant(dim)}
	}
	if _, err := m.AddNormals(specs); err != nil {
		b.Fatal(err)
	}
	v := make([]float64, dim)
	b.Run("in_range", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range v {
				v[j] = rng.Float64() * 100
			}
			if _, err := m.Append(v); err != nil {
				b.Fatal(err)
			}
		}
	})
	out := 0.0
	b.Run("outside", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out++
			v[0] = -out
			for j := 1; j < dim; j++ {
				v[j] = rng.Float64() * 100
			}
			if _, err := m.Append(v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
