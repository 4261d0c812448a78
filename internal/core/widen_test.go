package core

import (
	"math/rand"
	"path/filepath"
	"testing"

	"planar/internal/btree"
	"planar/internal/pager"
	"planar/internal/vecmath"
)

// octants lists every sign pattern of dimension d.
func octants(d int) []vecmath.SignPattern {
	var out []vecmath.SignPattern
	for mask := 0; mask < 1<<d; mask++ {
		s := make(vecmath.SignPattern, d)
		for i := range s {
			s[i] = 1
			if mask&(1<<i) != 0 {
				s[i] = -1
			}
		}
		out = append(out, s)
	}
	return out
}

// checkAgainstBruteForce runs inequality, COUNT and top-k queries in
// random octants, each bounded through a live point so the interval
// boundaries cut through the data, and compares them with a scan.
func checkAgainstBruteForce(t *testing.T, rng *rand.Rand, m *Multi, queries int) {
	t.Helper()
	s := m.Store()
	var live []uint32
	s.Each(func(id uint32, _ []float64) bool { live = append(live, id); return true })
	for qi := 0; qi < queries; qi++ {
		a := make([]float64, s.Dim())
		for i := range a {
			a[i] = 0.1 + rng.Float64()*2
			if rng.Intn(2) == 0 {
				a[i] = -a[i]
			}
		}
		b := vecmath.Dot(a, s.Vector(live[rng.Intn(len(live))]))
		if qi%2 == 1 {
			b += (rng.Float64() - 0.5) * 10
		}
		op := LE
		if rng.Intn(2) == 0 {
			op = GE
		}
		q := Query{A: a, B: b, Op: op}
		want := bruteForce(s, q)
		ids, st, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.FellBack {
			t.Fatalf("query %v fell back to a scan", q)
		}
		if !equalIDs(sortedIDs(ids), want) {
			t.Fatalf("inequality %v: %d ids, brute force %d", q, len(ids), len(want))
		}
		n, _, err := m.Count(q)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("count %v: %d, brute force %d", q, n, len(want))
		}
		got, _, err := m.TopK(q, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTopK(got, bruteTopK(s, q, 7), 1e-9) {
			t.Fatalf("top-k %v differs from brute force", q)
		}
	}
}

// TestWidenDifferential drives appends and updates that leave the
// translation of every octant of d = 3, mixed with removes, through a
// RAM Multi and one whose trees live on pages, and checks every answer
// against brute force at the default guard after each step. Widening
// is arithmetic: no index ever changes its tree, and a paged tree
// stays paged.
func TestWidenDifferential(t *testing.T) {
	const dim = 3
	for _, paged := range []bool{false, true} {
		name := "ram"
		if paged {
			name = "paged"
		}
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(27))
			s := randomStore(t, rng, 300, dim, -10, 10)
			m, err := NewMulti(s)
			if err != nil {
				t.Fatal(err)
			}
			for _, signs := range octants(dim) {
				normal := []float64{0.2 + rng.Float64(), 0.2 + rng.Float64(), 0.2 + rng.Float64()}
				if _, err := m.AddNormal(normal, signs); err != nil {
					t.Fatal(err)
				}
			}
			var file *pager.File
			var cache *pager.Cache
			checkpoint := func(lsn uint64) {
				t.Helper()
				if _, err := m.CheckpointIndexes(file, cache); err != nil {
					t.Fatal(err)
				}
				if err := file.Commit(nil, lsn); err != nil {
					t.Fatal(err)
				}
			}
			if paged {
				if file, err = pager.Create(filepath.Join(t.TempDir(), "widen.plnr"), nil, 0); err != nil {
					t.Fatal(err)
				}
				defer file.Close()
				cache = pager.NewCache(0, pager.PayloadSize) // floor-sized: faults and evictions
				checkpoint(1)
			}
			trees := make([]*btree.Tree, m.NumIndexes())
			for i := range trees {
				trees[i] = m.Index(i).Tree()
			}

			for step := 0; step < 160; step++ {
				scale := 10 + 2*float64(step)
				v := make([]float64, dim)
				for i := range v {
					v[i] = (rng.Float64()*2 - 1) * scale
				}
				id := uint32(rng.Intn(s.Cap()))
				switch r := rng.Intn(10); {
				case r < 5 || !s.Live(id):
					if _, err := m.Append(v); err != nil {
						t.Fatal(err)
					}
				case r < 8:
					if err := m.Update(id, v); err != nil {
						t.Fatal(err)
					}
				default:
					if err := m.Remove(id); err != nil {
						t.Fatal(err)
					}
				}
				checkAgainstBruteForce(t, rng, m, 3)
				for i := range trees {
					tr := m.Index(i).Tree()
					if tr != trees[i] {
						t.Fatalf("step %d: index %d changed its tree", step, i)
					}
					if tr.Paged() != paged {
						t.Fatalf("step %d: index %d Paged() = %v, want %v", step, i, tr.Paged(), paged)
					}
				}
				if paged && step%20 == 19 {
					if _, err := m.WritebackIndexes(64); err != nil {
						t.Fatal(err)
					}
					checkpoint(uint64(step + 2))
				}
			}
			for i := 0; i < m.NumIndexes(); i++ {
				if m.Index(i).Shift() <= 0 {
					t.Fatalf("index %d (octant %v) never widened: the test missed an octant", i, m.Index(i).Signs())
				}
			}
		})
	}
}
