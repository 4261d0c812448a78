package kernel

import (
	"fmt"
	"math/rand"
	"testing"

	"planar/internal/vecmath"
)

// The benchmark pair the tentpole is judged on: the batched kernel
// versus the one-at-a-time generic vecmath.Dot over the same rows.
//
//	go test -bench 'FilterLE|DotOneAtATime' -benchmem ./internal/kernel

func benchRows(dim int) ([]float64, []float64, float64) {
	rng := rand.New(rand.NewSource(17))
	a := make([]float64, dim)
	for i := range a {
		a[i] = rng.Float64() * 2
	}
	rows := make([]float64, BlockRows*dim)
	for i := range rows {
		rows[i] = rng.Float64() * 100
	}
	// A threshold near the middle so the match branch stays
	// unpredictable, as in a real intermediate interval.
	return a, rows, float64(dim) * 100
}

func BenchmarkFilterLE(b *testing.B) {
	for _, dim := range []int{2, 3, 4, 8, 11} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			a, rows, bound := benchRows(dim)
			out := make([]uint32, BlockRows)
			b.SetBytes(int64(len(rows) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				FilterLE(a, bound, rows, out)
			}
		})
	}
}

func BenchmarkDotOneAtATime(b *testing.B) {
	for _, dim := range []int{2, 3, 4, 8, 11} {
		b.Run(fmt.Sprintf("d%d", dim), func(b *testing.B) {
			a, rows, bound := benchRows(dim)
			out := make([]uint32, BlockRows)
			b.SetBytes(int64(len(rows) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				for r := 0; r < BlockRows; r++ {
					if vecmath.Dot(a, rows[r*dim:(r+1)*dim]) <= bound {
						out[n] = uint32(r)
						n++
					}
				}
			}
		})
	}
}

// BenchmarkFilterIDsLE is the micro-benchmark of record for verifying
// the intermediate interval: 25 % of 100 000 rows, named by ids in a
// random order (as an index's key order names them), tested in chunks
// of BlockRows four ways in one binary — in place (FilterIDsLE), in
// place through the generic loop (what an unspecialized d' pays, and
// the bar each specialization must clear), by gathering each chunk
// into a block first (Gather + FilterLE, the former executor path),
// and, as the floor, the same number of contiguous rows (FilterLE).
// ns/row is per tested row.
//
//	go test -run xxx -bench FilterIDsLE ./internal/kernel
func BenchmarkFilterIDsLE(b *testing.B) {
	const rows = 100_000
	rng := rand.New(rand.NewSource(45))
	ids := rng.Perm(rows)[:rows/4]
	ids32 := make([]uint32, len(ids))
	for i, id := range ids {
		ids32[i] = uint32(id)
	}
	out := make([]uint32, BlockRows)
	for _, dim := range []int{2, 3, 4, 6, 10} {
		a := make([]float64, dim)
		for i := range a {
			a[i] = rng.Float64() * 2
		}
		data := make([]float64, rows*dim)
		for i := range data {
			data[i] = rng.Float64() * 100
		}
		// The mean scalar product, so the match branch stays
		// unpredictable.
		bound := float64(dim) * 50
		gather := make([]float64, BlockRows*dim)
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids32)), "ns/row")
		}
		b.Run(fmt.Sprintf("d%d/inplace", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(ids32); lo += BlockRows {
					FilterIDsLE(a, bound, data, ids32[lo:min(lo+BlockRows, len(ids32))], out)
				}
			}
			perRow(b)
		})
		b.Run(fmt.Sprintf("d%d/generic", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(ids32); lo += BlockRows {
					filterIDsLEGeneric(a, bound, data, ids32[lo:min(lo+BlockRows, len(ids32))], out)
				}
			}
			perRow(b)
		})
		b.Run(fmt.Sprintf("d%d/gather", dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(ids32); lo += BlockRows {
					blk := ids32[lo:min(lo+BlockRows, len(ids32))]
					Gather(data, dim, blk, gather)
					FilterLE(a, bound, gather[:len(blk)*dim], out)
				}
			}
			perRow(b)
		})
		b.Run(fmt.Sprintf("d%d/contiguous", dim), func(b *testing.B) {
			block := BlockRows * dim
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(ids32)*dim; lo += block {
					FilterLE(a, bound, data[lo:min(lo+block, len(ids32)*dim)], out)
				}
			}
			perRow(b)
		})
	}
}
