package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"planar/internal/vecmath"
)

func TestDomainValidation(t *testing.T) {
	cases := []struct {
		d  Domain
		ok bool
	}{
		{Domain{1, 5}, true},
		{Domain{0, 5}, true},
		{Domain{-5, -1}, true},
		{Domain{-5, 0}, true},
		{Domain{5, 1}, false},
		{Domain{-1, 1}, false},
	}
	for _, c := range cases {
		err := c.d.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Domain%v.Validate()=%v want ok=%v", c.d, err, c.ok)
		}
	}
	if (Domain{1, 5}).Sign() != 1 || (Domain{-5, -1}).Sign() != -1 {
		t.Error("Domain.Sign wrong")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		v := (Domain{0, 3}).sample(rng)
		if v <= 0 || v > 3 {
			t.Fatalf("sample out of range: %v", v)
		}
		w := (Domain{-4, -2}).sample(rng)
		if w < 2 || w > 4 {
			t.Fatalf("negative-domain sample magnitude out of range: %v", w)
		}
	}
}

func TestMultiAddNormalDedupes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomStore(t, rng, 100, 2, 1, 10)
	m, err := NewMulti(s)
	if err != nil {
		t.Fatal(err)
	}
	oct := vecmath.FirstOctant(2)
	if ok, err := m.AddNormal([]float64{1, 2}, oct); err != nil || !ok {
		t.Fatalf("first AddNormal: ok=%v err=%v", ok, err)
	}
	// Parallel normal, same octant: redundant (Section 5.2).
	if ok, _ := m.AddNormal([]float64{2, 4}, oct); ok {
		t.Error("redundant parallel normal accepted")
	}
	// Same direction but different octant: a distinct index.
	if ok, _ := m.AddNormal([]float64{1, 2}, vecmath.SignPattern{1, -1}); !ok {
		t.Error("different-octant normal rejected")
	}
	// Different direction: accepted.
	if ok, _ := m.AddNormal([]float64{5, 1}, oct); !ok {
		t.Error("distinct normal rejected")
	}
	if m.NumIndexes() != 3 {
		t.Fatalf("NumIndexes=%d", m.NumIndexes())
	}
	if m.Index(0) == nil {
		t.Fatal("Index accessor broken")
	}
	if _, err := m.AddNormal([]float64{-1, 1}, oct); err == nil {
		t.Error("invalid normal accepted")
	}
}

func TestSampleBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomStore(t, rng, 200, 3, 1, 100)
	m, _ := NewMulti(s)
	doms := []Domain{{1, 10}, {1, 10}, {1, 10}}
	added, err := m.SampleBudget(20, doms, rng)
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 || m.NumIndexes() != added {
		t.Fatalf("added=%d NumIndexes=%d", added, m.NumIndexes())
	}
	if _, err := m.SampleBudget(0, doms, rng); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := m.SampleBudget(5, doms[:2], rng); err == nil {
		t.Error("wrong domain count accepted")
	}
	if _, err := m.SampleBudget(5, []Domain{{-1, 1}, {1, 2}, {1, 2}}, rng); err == nil {
		t.Error("zero-straddling domain accepted")
	}
	if m.MemoryBytes() <= 0 {
		t.Error("MemoryBytes non-positive")
	}
	m.RemoveAllIndexes()
	if m.NumIndexes() != 0 {
		t.Error("RemoveAllIndexes left indexes behind")
	}
}

func TestMultiQueryMatchesBruteForceAndSelectsParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomStore(t, rng, 800, 3, 1, 100)
	m, _ := NewMulti(s)
	oct := vecmath.FirstOctant(3)
	m.AddNormal([]float64{1, 1, 1}, oct)
	m.AddNormal([]float64{5, 1, 1}, oct)
	m.AddNormal([]float64{2, 3, 4}, oct)

	// A query parallel to the third index must select it under both
	// heuristics.
	q := Query{A: []float64{4, 6, 8}, B: 900, Op: LE}
	p, err := m.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.IndexUsed != 2 {
		t.Fatalf("volume selection picked index %d, want 2 (stretch=%v)", p.IndexUsed, p.Stretch)
	}
	mAngle, _ := NewMulti(s, WithSelection(SelectAngle))
	mAngle.AddNormal([]float64{1, 1, 1}, oct)
	mAngle.AddNormal([]float64{5, 1, 1}, oct)
	mAngle.AddNormal([]float64{2, 3, 4}, oct)
	if p, _ := mAngle.Explain(q); p.IndexUsed != 2 {
		t.Fatalf("angle selection picked index %d, want 2", p.IndexUsed)
	}

	for trial := 0; trial < 40; trial++ {
		a := []float64{rng.Float64() * 9, rng.Float64() * 9, rng.Float64() * 9}
		b := rng.Float64() * 500
		q := Query{A: a, B: b, Op: LE}
		st, err := m.Inequality(q, func(uint32) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, st2, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Results() != st2.Results() {
			t.Fatalf("inconsistent stats between calls: %+v vs %+v", st, st2)
		}
		if !equalIDs(sortedIDs(gotIDs), bruteForce(s, q)) {
			t.Fatalf("trial %d: multi answer mismatched brute force", trial)
		}
		if st2.IndexUsed < 0 || st2.FellBack {
			t.Fatalf("expected an index to be used: %+v", st2)
		}
	}
}

func TestMultiFallbackScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomStore(t, rng, 300, 2, -10, 10)
	m, _ := NewMulti(s)
	m.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2))
	// Mixed-sign query: no compatible octant.
	q := Query{A: []float64{1, -1}, B: 3, Op: LE}
	ids, st, err := m.InequalityIDs(q)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack {
		t.Fatalf("expected fallback, stats=%+v", st)
	}
	if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
		t.Fatal("fallback scan wrong")
	}
	// TopK fallback.
	res, st2, err := m.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.FellBack {
		t.Fatal("TopK should have fallen back")
	}
	if !sameTopK(res, bruteTopK(s, q, 5), 1e-9) {
		t.Fatal("fallback top-k wrong")
	}
	// An empty Multi answers by scan.
	empty, _ := NewMulti(s)
	ids2, st3, err := empty.InequalityIDs(Query{A: []float64{1, 1}, B: 0, Op: LE})
	if err != nil || !st3.FellBack {
		t.Fatalf("empty multi: err=%v stats=%+v", err, st3)
	}
	if !equalIDs(sortedIDs(ids2), bruteForce(s, Query{A: []float64{1, 1}, B: 0, Op: LE})) {
		t.Fatal("empty multi scan wrong")
	}
}

func TestMultiTopKUsesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomStore(t, rng, 500, 2, 1, 100)
	m, _ := NewMulti(s)
	m.AddNormal([]float64{1, 2}, vecmath.FirstOctant(2))
	q := Query{A: []float64{2, 4}, B: 150, Op: LE}
	res, st, err := m.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack || st.IndexUsed != 0 {
		t.Fatalf("stats=%+v", st)
	}
	if !sameTopK(res, bruteTopK(s, q, 10), 1e-9) {
		t.Fatal("multi top-k wrong")
	}
}

func TestMultiDynamicUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomStore(t, rng, 200, 2, 1, 100)
	m, _ := NewMulti(s)
	m.AddNormal([]float64{1, 1}, vecmath.FirstOctant(2))
	m.AddNormal([]float64{3, 1}, vecmath.FirstOctant(2))

	// Append.
	id, err := m.Append([]float64{42, 17})
	if err != nil {
		t.Fatal(err)
	}
	// Update half the points (the paper's Figure 13c workload).
	for i := 0; i < 100; i++ {
		v := []float64{1 + rng.Float64()*99, 1 + rng.Float64()*99}
		if err := m.Update(uint32(i), v); err != nil {
			t.Fatal(err)
		}
	}
	// Remove some.
	for i := 100; i < 120; i++ {
		if err := m.Remove(uint32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Update(uint32(110), []float64{1, 1}); err == nil {
		t.Error("Update of removed point succeeded")
	}
	if err := m.Remove(uint32(110)); err == nil {
		t.Error("double Remove succeeded")
	}
	_ = id

	for trial := 0; trial < 30; trial++ {
		q := Query{
			A:  []float64{rng.Float64() * 5, rng.Float64() * 5},
			B:  rng.Float64() * 400,
			Op: LE,
		}
		ids, _, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if !equalIDs(sortedIDs(ids), bruteForce(s, q)) {
			t.Fatalf("trial %d: stale index after updates", trial)
		}
	}
	// Index sizes must track the store.
	for i := 0; i < m.NumIndexes(); i++ {
		if m.Index(i).Len() != s.Len() {
			t.Fatalf("index %d has %d entries, store has %d", i, m.Index(i).Len(), s.Len())
		}
	}
}

func TestMultiConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomStore(t, rng, 500, 2, 1, 100)
	m, _ := NewMulti(s)
	m.SampleBudget(5, []Domain{{1, 10}, {1, 10}}, rng)
	q := Query{A: []float64{2, 3}, B: 200, Op: LE}
	want := bruteForce(s, q)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ids, _, err := m.InequalityIDs(q)
				if err != nil {
					errs <- err
					return
				}
				if !equalIDs(sortedIDs(ids), want) {
					errs <- errors.New("concurrent read mismatch")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSelectionString(t *testing.T) {
	if SelectVolume.String() != "volume" || SelectAngle.String() != "angle" {
		t.Error("Selection.String wrong")
	}
	// Unknown values render Go-style with the numeric value preserved,
	// so a log reader can round-trip them back to the constant.
	if got := Selection(9).String(); got != "Selection(9)" {
		t.Errorf("unknown selection rendered %q, want Selection(9)", got)
	}
	if got := Selection(-3).String(); got != "Selection(-3)" {
		t.Errorf("negative selection rendered %q, want Selection(-3)", got)
	}
	var _ fmt.Stringer = SelectVolume
}
