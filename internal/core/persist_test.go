package core

import (
	"math"
	"testing"

	"planar/internal/btree"
	"planar/internal/vecmath"
)

// TestPagedPrebuiltBaseMustBeFinite checks that AttachPrebuilt refuses
// a key frame no tree could have been built in, and derives Shift from
// the one it accepts.
func TestPagedPrebuiltBaseMustBeFinite(t *testing.T) {
	s, err := NewPointStore(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMulti(s)
	if err != nil {
		t.Fatal(err)
	}
	p := PrebuiltIndex{Normal: []float64{1, 2}, Signs: vecmath.FirstOctant(2), Delta: []float64{3, 4}, Tree: btree.New()}
	for _, base := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p.Base = base
		if err := m.AttachPrebuilt([]PrebuiltIndex{p}); err == nil {
			t.Fatalf("base %v accepted", base)
		}
	}
	p.Base = 5
	if err := m.AttachPrebuilt([]PrebuiltIndex{p}); err != nil {
		t.Fatal(err)
	}
	if got := m.Index(0).Shift(); got != 6 { // ⟨(1,2), (3,4)⟩ − 5
		t.Fatalf("Shift = %v, want 6", got)
	}
}
