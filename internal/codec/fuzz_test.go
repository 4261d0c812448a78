package codec

import (
	"bytes"
	"testing"

	"planar/internal/vecmath"
)

// FuzzRead throws arbitrary bytes at the snapshot reader: it must
// either return a valid snapshot or an error — never panic or hang.
func FuzzRead(f *testing.F) {
	// Seed with a valid snapshot and a few mutations of it.
	s := &Snapshot{
		Dim:  2,
		Data: []float64{1, 2, 3, 4},
		Live: []bool{true, true},
		Indexes: []IndexSpec{{
			Normal: []float64{1, 2},
			Signs:  vecmath.SignPattern{1, -1},
		}},
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[8] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0x52, 0x4e, 0x4c, 0x50}) // magic only
	f.Add(hostileHeader())                // header promising 512 GiB

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything the reader accepts must be internally consistent.
		if len(snap.Data) != len(snap.Live)*snap.Dim {
			t.Fatalf("accepted inconsistent snapshot: %d data, %d rows, dim %d",
				len(snap.Data), len(snap.Live), snap.Dim)
		}
	})
}
