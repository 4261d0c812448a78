package experiments

import (
	"io"
	"testing"

	"planar/internal/dataset"
	"planar/internal/scan"
)

// measured times n queries of f's stream for seed through the index
// set, by the loop every experiment uses.
func measured(t *testing.T, f synth, seed int64, n int) result {
	t.Helper()
	s := &sweep{Config: TinyConfig(), w: io.Discard}
	res, err := s.measure("planar", n, indexed(func() (synth, error) { return f, nil }, seed, n))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSynthSetupAndHelpers(t *testing.T) {
	store, m, g, err := SynthSetup(dataset.KindCorrelated, 500, 3, 4, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 500 || store.Dim() != 3 {
		t.Fatalf("store %d×%d", store.Len(), store.Dim())
	}
	if m.NumIndexes() == 0 {
		t.Fatal("no indexes built")
	}
	if g.RQ != 4 || g.Dim() != 3 {
		t.Fatalf("generator %+v", g)
	}

	// Draw is deterministic per seed.
	q1, q2 := Draw(g, 42, 5), Draw(g, 42, 5)
	for i := range q1 {
		if q1[i].B != q2[i].B {
			t.Fatal("Draw not deterministic")
		}
		for j := range q1[i].A {
			if q1[i].A[j] != q2[i].A[j] {
				t.Fatal("Draw not deterministic")
			}
		}
	}

	// The loop aggregates sane statistics and matches the scan.
	f := synth{store, m, g}
	res := measured(t, f, 7, 5)
	if res.mean() <= 0 {
		t.Fatal("non-positive average time")
	}
	if p := res.avgStat(); p < 0 || p > 1 {
		t.Fatalf("pruning=%v", p)
	}
	if res.fellBack != 0 {
		t.Fatalf("fellBack=%d", res.fellBack)
	}
	var matched int
	for _, q := range Draw(g, 7, 5) {
		matched += scan.Count(store, q)
	}
	if matched != res.answers {
		t.Fatalf("matched %v vs scan %v", res.answers, matched)
	}
	s := &sweep{Config: TinyConfig(), w: io.Discard}
	base, err := s.measure("baseline", 3, baseline(func() (synth, error) { return f, nil }, 7, 3))
	if err != nil {
		t.Fatal(err)
	}
	if base.mean() <= 0 || base.answers == 0 {
		t.Fatalf("baseline time %v, %d matches", base.mean(), base.answers)
	}

	// cloneWithSelection mirrors the index set.
	angle, err := cloneWithSelection(m)
	if err != nil {
		t.Fatal(err)
	}
	if angle.NumIndexes() != m.NumIndexes() {
		t.Fatalf("clone has %d indexes, original %d", angle.NumIndexes(), m.NumIndexes())
	}
	q := Draw(g, 9, 1)[0]
	a, _, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := angle.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("clone answers differently")
	}
}

func TestSynthSetupErrors(t *testing.T) {
	if _, _, _, err := SynthSetup(dataset.KindIndependent, 100, 2, 0, 5, 1); err == nil {
		t.Fatal("RQ=0 accepted")
	}
}
