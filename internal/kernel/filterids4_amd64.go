package kernel

// useAVX2 is chosen once, at package init: the CPU runs AVX2 and the
// OS saves the YMM registers across context switches.
var useAVX2 = detectAVX2()

// HasAVX2 reports the package's init-time decision: the CPU runs AVX2
// and the OS saves the YMM registers. It is the program's one CPU
// check; other packages' AVX2 bodies are chosen by it.
func HasAVX2() bool { return useAVX2 }

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the upper YMM halves.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// filterIDsLE4Vec runs the AVX2 body over whole groups of four ids,
// when the CPU has it. It returns how many ids it tested and how many
// offsets it wrote to out, which must have room for len(ids).
func filterIDsLE4Vec(a []float64, b float64, data []float64, ids []uint32, out []uint32) (done, n int) {
	if !useAVX2 {
		return 0, 0
	}
	return filterIDsLE4AVX2((*[4]float64)(a), b, data, ids, out)
}

//go:noescape
func filterIDsLE4AVX2(a *[4]float64, b float64, data []float64, ids []uint32, out []uint32) (done, n int)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
