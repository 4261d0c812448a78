//go:build !amd64

package kernel

// HasAVX2 is false off amd64: there is no vector body to choose.
func HasAVX2() bool { return false }

// filterIDsLE4Vec has no vector body off amd64: FilterIDsLE's Go loop
// tests every id.
func filterIDsLE4Vec(a []float64, b float64, data []float64, ids []uint32, out []uint32) (done, n int) {
	return 0, 0
}
