package httpapi

// writeIDsVec writes the whole groups of four at the head of ids into
// b from b[n] on, each id followed by a comma, through the AVX2 body.
// It returns how many ids it wrote and the cursor after them; b must
// have room for maxIDBytes per id past n.
func writeIDsVec(b []byte, n int, ids []uint32) (done, end int) {
	done = len(ids) &^ 3
	if done == 0 {
		return 0, n
	}
	return done, n + writeIDsAVX2(&b[n], ids[:done])
}

//go:noescape
func writeIDsAVX2(dst *byte, ids []uint32) (n int)
