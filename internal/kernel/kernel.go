// Package kernel provides the batched verification kernels behind the
// execution pipeline's intermediate-interval scan: dimension-
// specialized, unrolled dot-product filters that test a block of φ
// rows at once and emit the offsets of the rows satisfying
// ⟨a, φ⟩ ≤ b into a caller-supplied buffer.
//
// The kernels exist to kill the constant factor of the one loop the
// paper cannot prune (Section 4.3). FilterLE streams a contiguous
// block of rows (the sequential scan); FilterIDsLE reads the rows an
// index chunk names where they live in the row-major backing array,
// fusing the random access with the scalar product, so the
// intermediate interval is verified without copying a row. Both hold
// the coefficient vector in registers and re-slice each row once so
// its coordinates are read without per-coordinate bounds checks.
// FilterLE specializes d' = 2 and 4, FilterIDsLE d' = 2, 3 and 4;
// everything else takes the generic fallback, which is still
// branch-light and allocation-free.
//
// Dispatch: on amd64, FilterIDsLE's d' = 4 case has an AVX2 assembly
// body, chosen once at package init when CPUID reports AVX2 and
// XGETBV shows that the OS saves the YMM registers. It tests four ids
// a step: one 32-byte load per row, a 4×4 transpose into one vector
// per coordinate, one lane per row. A chunk's last 0–3 ids, and every
// id on other CPUs and architectures, go through the Go loop. The
// assembly stops before a group of four naming a row past
// len(data)/4, so the Go loop reaches that id and panics with its own
// bounds error. FilterIDsLE caps data at its length first, so no loop
// reads a row from spare capacity past len(data).
//
// The CPU check is the program's only one: HasAVX2 reports it, and
// httpapi's AVX2 id writer is chosen by it too. Neither body uses
// BMI1/BMI2 instructions, so AVX2 and the OS-saved YMM state are all
// either needs.
//
// Numerical contract: every kernel, the by-id one included,
// accumulates the scalar product in ascending coordinate order with a
// single accumulator — exactly like vecmath.Dot — so a batched
// verdict is bit-for-bit identical to the serial one. The AVX2 body
// keeps it lane by lane: each lane computes
// ((a0·x + a1·y) + a2·z) + a3·w with a separate multiply and add per
// term, each rounded to float64, as Go's amd64 compiler emits for
// vecmath.Dot. It uses no FMA: a fused multiply-add rounds once
// where the Go code rounds twice, which would flip verdicts on the
// ≤ edge. The compare is ordered (VCMPPD predicate 2), false on NaN
// as Go's <= is. Exact floating-point comparison is therefore correct
// here by construction (and the floatkey analyzer exempts this
// package for that reason).
//
// No function in this package allocates.
package kernel

// BlockRows is the number of φ rows a caller should process per
// batch: large enough to amortise dispatch, small enough that a
// block's match offsets stay cache-resident.
const BlockRows = 256

// FilterLE scans the row-major block rows (d = len(a) coordinates per
// row) and writes the offset of every row with ⟨a, row⟩ ≤ b into out,
// returning how many matched. out must have room for len(rows)/d
// offsets. Rows beyond the last complete row are ignored.
func FilterLE(a []float64, b float64, rows []float64, out []uint32) int {
	switch len(a) {
	case 2:
		return filterLE2(a, b, rows, out)
	case 4:
		return filterLE4(a, b, rows, out)
	default:
		return filterLEGeneric(a, b, rows, out)
	}
}

// FilterIDsLE tests the rows of the row-major array data (d = len(a)
// coordinates per row) named by ids, reading each where it lies, and
// writes the offset into ids of every row with ⟨a, row⟩ ≤ b into out,
// returning how many matched. out must have room for len(ids)
// offsets; every id must name a complete row of data. Ids need not be
// sorted or distinct.
func FilterIDsLE(a []float64, b float64, data []float64, ids []uint32, out []uint32) int {
	// The Go loops re-slice each row up to its end, a bound Go checks
	// against cap(data): without this, an id past len(data) would read
	// the spare capacity instead of panicking.
	data = data[:len(data):len(data)]
	switch len(a) {
	case 2:
		return filterIDsLE2(a, b, data, ids, out)
	case 3:
		return filterIDsLE3(a, b, data, ids, out)
	case 4:
		// The vector body stops before a chunk's last 0–3 ids and
		// before a group naming a row past the end of data; the Go
		// loop tests the rest, so it also raises that id's panic.
		done, n := filterIDsLE4Vec(a, b, data, ids[:min(len(ids), len(out))&^3], out)
		m := filterIDsLE4(a, b, data, ids[done:], out[n:])
		for j := n; j < n+m; j++ {
			out[j] += uint32(done)
		}
		return n + m
	default:
		return filterIDsLEGeneric(a, b, data, ids, out)
	}
}

// Gather packs the φ vectors of ids out of the row-major backing
// array data (dim coordinates per row) into the contiguous block dst,
// which must have room for len(ids)·dim values. The program verifies
// ids in place through FilterIDsLE and does not call it. Its callers
// are the bench of record's trace probe, which times the gather +
// FilterLE split the executor used to run, and BenchmarkFilterIDsLE's
// gather leg; it goes with that probe, and the leg with it.
func Gather(data []float64, dim int, ids []uint32, dst []float64) {
	switch dim {
	case 2:
		for i, id := range ids {
			o, p := int(id)*2, i*2
			src := data[o : o+2 : o+2]
			d2 := dst[p : p+2 : p+2]
			d2[0], d2[1] = src[0], src[1]
		}
	case 3:
		for i, id := range ids {
			o, p := int(id)*3, i*3
			src := data[o : o+3 : o+3]
			d3 := dst[p : p+3 : p+3]
			d3[0], d3[1], d3[2] = src[0], src[1], src[2]
		}
	case 4:
		for i, id := range ids {
			o, p := int(id)*4, i*4
			src := data[o : o+4 : o+4]
			d4 := dst[p : p+4 : p+4]
			d4[0], d4[1], d4[2], d4[3] = src[0], src[1], src[2], src[3]
		}
	default:
		for i, id := range ids {
			o := int(id) * dim
			copy(dst[i*dim:(i+1)*dim], data[o:o+dim])
		}
	}
}

// The specializations below hoist the coefficients into locals and
// walk the block by re-slicing from the front, so the compiler proves
// every row access in bounds once per iteration instead of once per
// coordinate. Accumulation is a single left-to-right expression —
// identical rounding to the sequential loop in vecmath.Dot.

func filterLE2(a []float64, b float64, rows []float64, out []uint32) int {
	a0, a1 := a[0], a[1]
	n := 0
	for r := uint32(0); len(rows) >= 2; r++ {
		s := a0*rows[0] + a1*rows[1]
		if s <= b {
			out[n] = r
			n++
		}
		rows = rows[2:]
	}
	return n
}

func filterLE4(a []float64, b float64, rows []float64, out []uint32) int {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	n := 0
	for r := uint32(0); len(rows) >= 4; r++ {
		s := a0*rows[0] + a1*rows[1] + a2*rows[2] + a3*rows[3]
		if s <= b {
			out[n] = r
			n++
		}
		rows = rows[4:]
	}
	return n
}

func filterLEGeneric(a []float64, b float64, rows []float64, out []uint32) int {
	d := len(a)
	if d == 0 {
		return 0
	}
	n := 0
	for r := uint32(0); len(rows) >= d; r++ {
		row := rows[:d:d]
		var s float64
		for i, v := range a {
			s += v * row[i]
		}
		if s <= b {
			out[n] = r
			n++
		}
		rows = rows[d:]
	}
	return n
}

// The by-id specializations re-slice each row as data[o:o+d:o+d], so
// one bounds check covers the row and the sum reads it unchecked; the
// sum is the same left-to-right expression as FilterLE's.

func filterIDsLE2(a []float64, b float64, data []float64, ids []uint32, out []uint32) int {
	a0, a1 := a[0], a[1]
	n := 0
	for i, id := range ids {
		o := int(id) * 2
		row := data[o : o+2 : o+2]
		s := a0*row[0] + a1*row[1]
		if s <= b {
			out[n] = uint32(i)
			n++
		}
	}
	return n
}

func filterIDsLE3(a []float64, b float64, data []float64, ids []uint32, out []uint32) int {
	a0, a1, a2 := a[0], a[1], a[2]
	n := 0
	for i, id := range ids {
		o := int(id) * 3
		row := data[o : o+3 : o+3]
		s := a0*row[0] + a1*row[1] + a2*row[2]
		if s <= b {
			out[n] = uint32(i)
			n++
		}
	}
	return n
}

func filterIDsLE4(a []float64, b float64, data []float64, ids []uint32, out []uint32) int {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	n := 0
	for i, id := range ids {
		o := int(id) * 4
		row := data[o : o+4 : o+4]
		s := a0*row[0] + a1*row[1] + a2*row[2] + a3*row[3]
		if s <= b {
			out[n] = uint32(i)
			n++
		}
	}
	return n
}

func filterIDsLEGeneric(a []float64, b float64, data []float64, ids []uint32, out []uint32) int {
	d := len(a)
	n := 0
	for i, id := range ids {
		o := int(id) * d
		row := data[o : o+d : o+d]
		var s float64
		for j, v := range a {
			s += v * row[j]
		}
		if s <= b {
			out[n] = uint32(i)
			n++
		}
	}
	return n
}
