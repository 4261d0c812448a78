package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// byIDFilter is the signature of FilterIDsLE and its per-d' loops.
type byIDFilter func(a []float64, b float64, data []float64, ids []uint32, out []uint32) int

// checkFilterIDsLE runs FilterIDsLE, and at d' = 4 the Go loop its
// AVX2 body replaces, and fails unless each one's offsets are exactly
// the oracle's. On a CPU with AVX2, FilterIDsLE takes the Go loop only
// for a chunk's last 0–3 ids, so the loop is called here directly.
func checkFilterIDsLE(t *testing.T, name string, a []float64, b float64, data []float64, ids []uint32) {
	t.Helper()
	want := filterIDsOracle(a, b, data, ids)
	paths := map[string]byIDFilter{"FilterIDsLE": FilterIDsLE}
	if len(a) == 4 {
		paths["filterIDsLE4"] = filterIDsLE4
	}
	for path, filter := range paths {
		out := make([]uint32, len(ids))
		got := filter(a, b, data, ids, out)
		if got != len(want) {
			t.Fatalf("%s %s: kernel matched %d ids, serial matched %d", name, path, got, len(want))
		}
		for i, off := range out[:got] {
			if off != want[i] {
				t.Fatalf("%s %s: match %d is offset %d, serial says %d", name, path, i, off, want[i])
			}
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
			type idSet struct {
				name string
				ids  []uint32
			}
			idSets := []idSet{
				{"empty", []uint32{}},
				{"repeated", []uint32{last, 0, last, last, 0}},
				{"unsorted", random},
				{"last row", []uint32{last}},
				{"every row, descending", descending},
			}
			// Chunks of every length up to 9, and a full chunk and one
			// short of it: each vector step takes four ids, so these
			// put tails of 1–3 ids after a multiple of four.
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, BlockRows - 1, BlockRows} {
				ids := make([]uint32, n)
				for i := range ids {
					ids[i] = uint32(rng.Intn(rows))
				}
				idSets = append(idSets, idSet{fmt.Sprintf("%d random", n), ids})
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

// FuzzFilterIDsLE holds FilterIDsLE (and at d' = 4 the Go loop too,
// through checkFilterIDsLE) to the vecmath.Dot oracle on arbitrary
// float bits: d' comes from dim, a and the rows from raw (8
// bytes a float), and each byte of idBytes names a row. Besides b,
// the own scalar product of each of the first four distinct rows named
// is tried as the threshold. The input is capped at 1 024 ids and
// 4 096 values (a and the rows): a byte names one of at most 256 rows,
// so a longer input reaches no path a shorter one does not, and would
// only slow each run and its minimization.
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
	// Two groups of four ids and a tail of one, at d' = 4.
	f.Add(uint8(4), 0.5, seed, []byte{1, 0, 1, 1, 0, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, dim uint8, b float64, raw, idBytes []byte) {
		if len(idBytes) > 1024 || len(raw) > 8*4096 {
			return
		}
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
		// Each row-edge threshold is one more pass over ids, so only the
		// first few distinct ids get one: an input costs O(|ids|), not
		// O(|ids|²).
		var edged []uint32
		for _, id := range ids {
			if len(edged) == 4 {
				break
			}
			if slices.Contains(edged, id) {
				continue
			}
			edged = append(edged, id)
			edge := vecmath.Dot(a, data[int(id)*d:int(id+1)*d])
			checkFilterIDsLE(t, fmt.Sprintf("d=%d b=%v (row %d)", d, edge, id), a, edge, data, ids)
		}
	})
}

// TestFilterIDsLEPanicsPastLastRow: an id one past the last row of
// data makes FilterIDsLE panic with the Go loop's own bounds error, at
// d' = 2, 3, 4 and on the generic loop, whether the id falls in a group
// of four or in a chunk's tail, and whether or not data has capacity
// past its length: a row past len(data) is never read.
func TestFilterIDsLEPanicsPastLastRow(t *testing.T) {
	const rows = 16
	for _, loop := range []struct {
		d      int
		filter byIDFilter
	}{{2, filterIDsLE2}, {3, filterIDsLE3}, {4, filterIDsLE4}, {5, filterIDsLEGeneric}} {
		a := make([]float64, loop.d)
		for _, spare := range []int{0, 2 * loop.d} {
			data := make([]float64, rows*loop.d, rows*loop.d+spare)
			capped := data[:len(data):len(data)]
			for _, n := range []int{1, 4, 8, 9, 11} {
				for pos := 0; pos < n; pos++ {
					ids := make([]uint32, n)
					for i := range ids {
						ids[i] = uint32(i)
					}
					ids[pos] = rows
					got := panicMessage(func() { FilterIDsLE(a, 0, data, ids, make([]uint32, n)) })
					want := panicMessage(func() { loop.filter(a, 0, capped, ids, make([]uint32, n)) })
					if want == "" || got != want {
						t.Fatalf("d'=%d, cap %d past len, %d ids, row %d at %d: FilterIDsLE panicked with %q, the Go loop with %q",
							loop.d, spare, n, rows, pos, got, want)
					}
				}
			}
		}
	}
}

// panicMessage runs f and returns the runtime error it panicked with,
// or "" when it returned.
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = r.(runtime.Error).Error()
		}
	}()
	f()
	return ""
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

// TestKernelAllocs pins the package contract: no kernel allocates,
// FilterIDsLE's d' = 4 path included, on a whole chunk and on one
// whose last three ids take the Go loop.
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
		FilterIDsLE(a, 1, rows, ids[:BlockRows-1], out)
		Gather(rows, 4, ids, dst)
	}); n != 0 {
		t.Fatalf("kernels allocated %v times per run", n)
	}
}
