//go:build !amd64

package httpapi

// writeIDsVec has no vector body off amd64: appendIDs' table loop
// writes every id.
func writeIDsVec(b []byte, n int, ids []uint32) (done, end int) {
	return 0, n
}
