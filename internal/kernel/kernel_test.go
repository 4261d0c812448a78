package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"planar/internal/vecmath"
)

// TestFilterLEAgreesWithDot is the exact-equality property test: for
// every dimensionality (specialized and generic) the kernel's verdict
// and the one-at-a-time vecmath.Dot verdict must agree on the same
// inputs — not within a tolerance, exactly. The kernels keep the
// accumulation order of vecmath.Dot, so any divergence is a bug.
func TestFilterLEAgreesWithDot(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 11} {
		for trial := 0; trial < 50; trial++ {
			n := rng.Intn(3 * BlockRows)
			a := make([]float64, d)
			for i := range a {
				a[i] = (rng.Float64() - 0.5) * 8
			}
			rows := make([]float64, n*d)
			for i := range rows {
				rows[i] = (rng.Float64() - 0.5) * 100
			}
			b := (rng.Float64() - 0.5) * 200

			out := make([]uint32, n)
			got := FilterLE(a, b, rows, out)

			var want []uint32
			for r := 0; r < n; r++ {
				if vecmath.Dot(a, rows[r*d:(r+1)*d]) <= b {
					want = append(want, uint32(r))
				}
			}
			if got != len(want) {
				t.Fatalf("d=%d trial=%d: kernel matched %d rows, serial matched %d", d, trial, got, len(want))
			}
			for i, off := range out[:got] {
				if off != want[i] {
					t.Fatalf("d=%d trial=%d: match %d is row %d, serial says %d", d, trial, i, off, want[i])
				}
			}
		}
	}
}

// filterIDsOracle is FilterIDsLE's specification: one vecmath.Dot
// per id, in ids order.
func filterIDsOracle(a []float64, b float64, data []float64, ids []uint32) []uint32 {
	d := len(a)
	var want []uint32
	for i, id := range ids {
		o := int(id) * d
		if vecmath.Dot(a, data[o:o+d]) <= b {
			want = append(want, uint32(i))
		}
	}
	return want
}

// checkFilterIDsLE runs FilterIDsLE and fails unless its offsets are
// exactly the oracle's.
func checkFilterIDsLE(t *testing.T, name string, a []float64, b float64, data []float64, ids []uint32) {
	t.Helper()
	out := make([]uint32, len(ids))
	got := FilterIDsLE(a, b, data, ids, out)
	want := filterIDsOracle(a, b, data, ids)
	if got != len(want) {
		t.Fatalf("%s: kernel matched %d ids, serial matched %d", name, got, len(want))
	}
	for i, off := range out[:got] {
		if off != want[i] {
			t.Fatalf("%s: match %d is offset %d, serial says %d", name, i, off, want[i])
		}
	}
}

// TestFilterIDsLEMatchesDot holds the by-id kernel to the package's
// numerical contract: its verdicts are vecmath.Dot(a, row) <= b
// exactly, for every dimensionality up to 11, on id lists of every
// shape the executor can hand it (empty, repeated, unsorted, the last
// row of data), on thresholds equal to a row's own scalar product
// (the <= edge, where a changed summation order flips the verdict),
// and on signed zeros and magnitudes near 1e300, whose products
// overflow.
func TestFilterIDsLEMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	value := func() float64 {
		switch rng.Intn(16) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		case 2:
			return (rng.Float64() - 0.5) * 1e301
		default:
			// Mixed magnitudes, so the rounding of a sum depends on
			// the order of its terms.
			return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	for d := 1; d <= 11; d++ {
		for trial := 0; trial < 40; trial++ {
			rows := 1 + rng.Intn(2*BlockRows)
			data := make([]float64, rows*d)
			for i := range data {
				data[i] = value()
			}
			a := make([]float64, d)
			for i := range a {
				a[i] = value()
			}
			if trial%10 == 0 {
				// Keep the products finite, so no row's dot is ±Inf
				// or NaN and every threshold below is a real edge.
				for i := range a {
					a[i] = (rng.Float64() - 0.5) * 8
				}
				for i := range data {
					if math.Abs(data[i]) > 1e6 {
						data[i] = rng.Float64()
					}
				}
			}
			last := uint32(rows - 1)
			random := make([]uint32, rng.Intn(BlockRows+1))
			for i := range random {
				random[i] = uint32(rng.Intn(rows))
			}
			descending := make([]uint32, rows)
			for i := range descending {
				descending[i] = uint32(rows - 1 - i)
			}
			idSets := []struct {
				name string
				ids  []uint32
			}{
				{"empty", []uint32{}},
				{"repeated", []uint32{last, 0, last, last, 0}},
				{"unsorted", random},
				{"last row", []uint32{last}},
				{"every row, descending", descending},
			}
			// Thresholds: the scalar products of a few rows and the
			// floats either side of them, a random one, and the
			// infinities.
			bs := []float64{(rng.Float64() - 0.5) * 10, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
			for k := 0; k < 8; k++ {
				pick := rng.Intn(rows)
				edge := vecmath.Dot(a, data[pick*d:(pick+1)*d])
				bs = append(bs, edge, math.Nextafter(edge, math.Inf(-1)), math.Nextafter(edge, math.Inf(1)))
			}
			for _, set := range idSets {
				for _, b := range bs {
					name := fmt.Sprintf("d=%d trial=%d ids=%s b=%v", d, trial, set.name, b)
					checkFilterIDsLE(t, name, a, b, data, set.ids)
				}
			}
		}
	}
}

// FuzzFilterIDsLE holds FilterIDsLE to the vecmath.Dot oracle on
// arbitrary float bits: d' comes from dim, a and the rows from raw (8
// bytes a float), and each byte of idBytes names a row. Besides b,
// every named row's own scalar product is tried as the threshold.
func FuzzFilterIDsLE(f *testing.F) {
	seed := make([]byte, 8*12)
	for i := 0; i < len(seed); i += 8 {
		binary.LittleEndian.PutUint64(seed[i:], math.Float64bits(float64(i/8)-3.5))
	}
	f.Add(uint8(4), 1.5, seed, []byte{0, 1, 1, 0})
	f.Add(uint8(2), 0.0, seed, []byte{3, 2, 1, 0, 2})
	f.Add(uint8(3), -1e300, seed, []byte{})
	// Terms whose sum rounds differently in another order.
	mixed := make([]byte, 0, 8*8)
	for _, v := range []float64{1, 1, 1, 1, 0.1, 0.2, 0.3, 1e-17} {
		mixed = binary.LittleEndian.AppendUint64(mixed, math.Float64bits(v))
	}
	f.Add(uint8(3), 0.6, mixed, []byte{0})
	f.Fuzz(func(t *testing.T, dim uint8, b float64, raw, idBytes []byte) {
		d := 1 + int(dim)%11
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		if len(vals) < 2*d {
			return
		}
		a, data := vals[:d], vals[d:]
		rows := len(data) / d
		data = data[:rows*d]
		ids := make([]uint32, len(idBytes))
		for i, v := range idBytes {
			ids[i] = uint32(int(v) % rows)
		}
		checkFilterIDsLE(t, fmt.Sprintf("d=%d b=%v", d, b), a, b, data, ids)
		for _, id := range ids {
			edge := vecmath.Dot(a, data[int(id)*d:int(id+1)*d])
			checkFilterIDsLE(t, fmt.Sprintf("d=%d b=%v (row %d)", d, edge, id), a, edge, data, ids)
		}
	})
}

// TestFilterLEIgnoresPartialTrailingRow checks that a block whose
// length is not a multiple of d never reads past the last complete
// row.
func TestFilterLEIgnoresPartialTrailingRow(t *testing.T) {
	a := []float64{1, 1, 1}
	rows := []float64{0, 0, 0, -1, -1, -1, 5, 5} // 2 complete rows + 2 strays
	out := make([]uint32, 4)
	n := FilterLE(a, 0, rows, out)
	if n != 2 || out[0] != 0 || out[1] != 1 {
		t.Fatalf("got %d matches %v, want rows 0 and 1", n, out[:n])
	}
}

func TestFilterLEEmpty(t *testing.T) {
	if n := FilterLE([]float64{1, 2}, 0, nil, nil); n != 0 {
		t.Fatalf("empty block matched %d rows", n)
	}
	if n := FilterLE(nil, 0, []float64{1, 2}, nil); n != 0 {
		t.Fatalf("zero-dimensional filter matched %d rows", n)
	}
}

func TestGather(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 2, 3, 4, 6} {
		const rows = 40
		data := make([]float64, rows*dim)
		for i := range data {
			data[i] = rng.Float64()
		}
		ids := []uint32{7, 0, 39, 12, 12, 3}
		dst := make([]float64, len(ids)*dim)
		Gather(data, dim, ids, dst)
		for i, id := range ids {
			for j := 0; j < dim; j++ {
				if dst[i*dim+j] != data[int(id)*dim+j] { //nolint:floatkey // gather is a copy; identity must be exact
					t.Fatalf("dim=%d: gathered row %d coordinate %d differs", dim, i, j)
				}
			}
		}
	}
}

// TestKernelAllocs pins the package contract: no kernel allocates.
func TestKernelAllocs(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	rows := make([]float64, BlockRows*4)
	out := make([]uint32, BlockRows)
	ids := make([]uint32, BlockRows)
	for i := range ids {
		ids[i] = uint32(i)
	}
	dst := make([]float64, BlockRows*4)
	if n := testing.AllocsPerRun(100, func() {
		FilterLE(a, 1, rows, out)
		FilterIDsLE(a, 1, rows, ids, out)
		Gather(rows, 4, ids, dst)
	}); n != 0 {
		t.Fatalf("kernels allocated %v times per run", n)
	}
}
