package core

import (
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
)

func idsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGoldenBatchedIdentity is the end-to-end golden test of the
// batched verification engine: a store with deleted-row holes, a
// Multi with several indexes, and random LE/GE queries must produce
// the brute-force answer.
func TestGoldenBatchedIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, d := range []int{2, 3, 4} {
		store, err := NewPointStore(d)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMulti(store)
		if err != nil {
			t.Fatal(err)
		}
		var ids []uint32
		for i := 0; i < 1500; i++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = rng.Float64() * 100
			}
			id, err := m.Append(v)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		// Punch holes so Rows contains stale dead rows, then refill a
		// few so the free list is exercised too.
		for i := 0; i < 300; i++ {
			if err := m.Remove(ids[rng.Intn(len(ids))]); err == nil {
				continue
			}
		}
		for i := 0; i < 50; i++ {
			v := make([]float64, d)
			for j := range v {
				v[j] = rng.Float64() * 100
			}
			if _, err := m.Append(v); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			normal := make([]float64, d)
			for j := range normal {
				normal[j] = 0.3 + rng.Float64()*3
			}
			signs := make([]int8, d)
			for j := range signs {
				signs[j] = 1
			}
			if _, err := m.AddNormal(normal, signs); err != nil {
				t.Fatal(err)
			}
		}

		for trial := 0; trial < 60; trial++ {
			a := make([]float64, d)
			for j := range a {
				a[j] = rng.Float64() * 4
			}
			if trial%6 == 0 {
				a[rng.Intn(d)] = 0
			}
			op := LE
			if trial%2 == 1 {
				op = GE
			}
			q := Query{A: a, B: rng.Float64() * float64(d) * 250, Op: op}

			got, _, err := m.InequalityIDs(q)
			if err != nil {
				t.Fatalf("d=%d trial=%d: %v", d, trial, err)
			}
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			want := bruteForce(store, q)
			if !idsEqual(got, want) {
				t.Fatalf("d=%d trial=%d: batched answer has %d ids, brute force %d", d, trial, len(got), len(want))
			}
		}
	}
}

// TestMutationVisibility checks the freshness contract: every kind of
// mutation (append, update, remove) edits the leaf arena the batched
// engine reads, so the next query sees current data.
func TestMutationVisibility(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	store, _ := NewPointStore(3)
	m, _ := NewMulti(store)
	for i := 0; i < 400; i++ {
		if _, err := m.Append([]float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AddNormal([]float64{1, 1, 1}, []int8{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	q := Query{A: []float64{1, 2, 3}, B: 25, Op: LE}

	check := func(stage string) {
		t.Helper()
		got, _, err := m.InequalityIDs(q)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if !idsEqual(got, bruteForce(store, q)) {
			t.Fatalf("%s: batched answer diverged from brute force", stage)
		}
	}

	check("initial")
	id, err := m.Append([]float64{0.1, 0.1, 0.1}) // certain match
	if err != nil {
		t.Fatal(err)
	}
	check("after append")
	if err := m.Update(id, []float64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	check("after update")
	if err := m.Remove(id); err != nil {
		t.Fatal(err)
	}
	check("after remove")
}

// TestSteadyStateQueryAllocs pins the tentpole's headline claim: a
// warmed-up inequality query through Multi — validate, lease, plan,
// batched execute, sink — allocates zero bytes, and so does the
// first query after a write. GC is paused
// for the measurement so a collection cannot empty the pools
// mid-run.
func TestSteadyStateQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool; allocation counts are meaningless")
	}
	rng := rand.New(rand.NewSource(71))
	store, _ := NewPointStore(4)
	m, _ := NewMulti(store)
	for i := 0; i < 16384; i++ {
		if _, err := m.Append([]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.AddNormal([]float64{1, 1, 1, 1}, []int8{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	q := Query{A: []float64{3, 0.2, 0.2, 0.2}, B: 1.2, Op: LE}
	visit := func(uint32) bool { return true }

	run := func() {
		if _, err := m.Inequality(q, visit); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		run() // warm the pools
	}
	// The append-style route on a large answer: once the caller's
	// buffer has grown to the answer, the ids go from the leaf arena
	// into it with no allocation either — not the sink's, not a
	// growing slice's.
	large := Query{A: []float64{1, 1, 1, 1}, B: 2.4, Op: LE}
	var ids []uint32
	collect := func() {
		var err error
		if ids, _, err = m.AppendInequalityIDs(ids[:0], large); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		collect()
	}
	if len(ids) < 10000 {
		t.Fatalf("the large query answers %d ids, want at least 10000", len(ids))
	}
	// Read after write: a plan is recomputed for every query, so a
	// mutation leaves nothing to rebuild on the next read.
	moved := []float64{0.5, 0.5, 0.5, 0.5}
	readAfterWrite := func() {
		if err := m.Update(7, moved); err != nil {
			t.Fatal(err)
		}
		collect()
	}
	readAfterWrite()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("steady-state query allocated %v times per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, collect); allocs != 0 {
		t.Fatalf("steady-state %d-id query into a warmed buffer allocated %v times per run, want 0", len(ids), allocs)
	}
	if allocs := testing.AllocsPerRun(200, readAfterWrite); allocs != 0 {
		t.Fatalf("an update and the read after it allocated %v times per run, want 0", allocs)
	}
}
