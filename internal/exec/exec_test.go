package exec

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"planar/internal/btree"
	"planar/internal/vecmath"
)

// buildInfo assembles an IndexInfo the way internal/core does: octant
// translation offsets from the data, keys ⟨c, z(x)⟩ over the
// translated frame.
func buildInfo(points [][]float64, normal []float64, signs vecmath.SignPattern) IndexInfo {
	d := len(normal)
	delta := make([]float64, d)
	for _, v := range points {
		for i := 0; i < d; i++ {
			if z := float64(signs[i]) * v[i]; -z > delta[i] {
				delta[i] = -z
			}
		}
	}
	cs := make([]float64, d)
	for i := 0; i < d; i++ {
		cs[i] = normal[i] * float64(signs[i])
	}
	base := vecmath.Dot(normal, delta)
	entries := make([]btree.Entry, len(points))
	for id, v := range points {
		entries[id] = btree.Entry{Key: vecmath.Dot(cs, v) + base, ID: uint32(id)}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return IndexInfo{
		Tree:  btree.BulkLoad(entries),
		C:     append([]float64(nil), normal...),
		Delta: delta,
		CS:    cs,
		Signs: append(vecmath.SignPattern(nil), signs...),
	}
}

func randPoints(rng *rand.Rand, n, d int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		v := make([]float64, d)
		for j := range v {
			v[j] = (rng.Float64() - 0.5) * 100
		}
		pts[i] = v
	}
	return pts
}

// makeSource wraps points as a Source over infos the way
// internal/core does: the points flattened into the row-major Rows
// array, every row live. The key column is read straight out of each
// tree's leaf arena.
func makeSource(points [][]float64, infos []IndexInfo) *Source {
	d := 0
	if len(points) > 0 {
		d = len(points[0])
	}
	rows := make([]float64, 0, len(points)*d)
	live := make([]bool, len(points))
	for i, v := range points {
		rows = append(rows, v...)
		live[i] = true
	}
	return &Source{N: len(points), Indexes: infos, Rows: rows, RowLive: live, RowDim: d}
}

func sortedCopy(ids []uint32) []uint32 {
	out := append([]uint32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func bruteIDs(points [][]float64, q Query) []uint32 {
	var out []uint32
	for id, v := range points {
		if q.Satisfies(v) {
			out = append(out, uint32(id))
		}
	}
	return out
}

// TestPartitionProperty checks the paper's core invariant for random
// indexes and queries: the smaller, intermediate and larger intervals
// form an exhaustive, disjoint partition of the indexed points, every
// smaller-interval point satisfies the query, and no larger-interval
// point does.
func TestPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(120)
		points := randPoints(rng, n, d)

		signs := make(vecmath.SignPattern, d)
		a := make([]float64, d)
		normal := make([]float64, d)
		for i := 0; i < d; i++ {
			if rng.Intn(2) == 0 {
				signs[i] = 1
			} else {
				signs[i] = -1
			}
			a[i] = float64(signs[i]) * rng.Float64() * 5
			normal[i] = 0.5 + rng.Float64()*3
		}
		if trial%4 == 0 {
			a[rng.Intn(d)] = 0 // exercise ignored axes
		}
		b := (rng.Float64() - 0.4) * 400
		q := Query{A: a, B: b}

		info := buildInfo(points, normal, signs)
		src := makeSource(points, []IndexInfo{info})
		// The plan on this index, whatever its score: a zero
		// coefficient leaves II unbounded, which the planner would scan.
		plan := finishPlan(src, q, 0, 1)

		var si, ii, li []uint32
		all := func(dst *[]uint32) {
			info.Tree.RankChunks(0, n, func(ids []uint32) bool { *dst = append(*dst, ids...); return true })
		}
		switch plan.Kind {
		case KindNone:
			all(&li)
		case KindAll:
			all(&si)
		case KindRange:
			info.Tree.AscendLE(plan.Tmin, func(e btree.Entry) bool { si = append(si, e.ID); return true })
			ii = info.Tree.CollectRange(plan.Tmin, plan.Tmax, nil)
			li = info.Tree.CollectRange(plan.Tmax, math.Inf(1), nil)
		default:
			t.Fatalf("trial %d: unexpected plan kind %v", trial, plan.Kind)
		}

		if got := len(si) + len(ii) + len(li); got != n {
			t.Fatalf("trial %d: partition covers %d of %d points (plan %+v)", trial, got, n, plan)
		}
		seen := make(map[uint32]bool, n)
		for _, part := range [][]uint32{si, ii, li} {
			for _, id := range part {
				if seen[id] {
					t.Fatalf("trial %d: id %d in two intervals", trial, id)
				}
				seen[id] = true
			}
		}
		for _, id := range si {
			if !q.Satisfies(points[id]) {
				t.Fatalf("trial %d: smaller-interval id %d does not satisfy", trial, id)
			}
		}
		for _, id := range li {
			if q.Satisfies(points[id]) {
				t.Fatalf("trial %d: larger-interval id %d satisfies", trial, id)
			}
		}

		// Interval accounting must agree with the order statistics the
		// counting plans use.
		lo, hi := Bounds(&info, q)
		if lo != len(si) || hi != len(si)+len(ii) {
			t.Fatalf("trial %d: Bounds (%d,%d), walked (%d,%d)", trial, lo, hi, len(si), len(si)+len(ii))
		}
	}
}

// TestRunMatchesBruteForce drives the full pipeline across every sink
// against a brute-force oracle.
func TestRunMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(3)
		points := randPoints(rng, 1+rng.Intn(200), d)
		signs := vecmath.FirstOctant(d)
		a := make([]float64, d)
		normal := make([]float64, d)
		for i := range a {
			a[i] = rng.Float64() * 4
			normal[i] = 0.5 + rng.Float64()*2
		}
		q := Query{A: a, B: (rng.Float64() - 0.3) * 300}
		infos := []IndexInfo{buildInfo(points, normal, signs)}
		src := makeSource(points, infos)
		want := sortedCopy(bruteIDs(points, q))

		var ids IDSink
		if _, err := Run(src, q, &ids); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(sortedCopy(ids.IDs), want) {
			t.Fatalf("trial %d: IDSink mismatch: got %d want %d", trial, len(ids.IDs), len(want))
		}

		var cnt CountSink
		if _, err := Run(src, q, &cnt); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if cnt.N != len(want) {
			t.Fatalf("trial %d: CountSink %d want %d", trial, cnt.N, len(want))
		}

		var got []uint32
		_, err := Run(src, q, FuncSink(func(id uint32) bool { got = append(got, id); return true }))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(sortedCopy(got), want) {
			t.Fatalf("trial %d: FuncSink mismatch", trial)
		}

		trace := &traceSink{}
		st, err := Run(src, q, trace)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if trace.accepts != st.Accepted || trace.matches != st.Matched {
			t.Fatalf("trial %d: trace (%d,%d) disagrees with stats (%d,%d)",
				trial, trace.accepts, trace.matches, st.Accepted, st.Matched)
		}
	}
}

// traceSink counts the ids each delivery path hands it. It exposes
// none of the optional sink capabilities, so Run hands it every id —
// the smaller interval as leaf chunks, not a count, and no top-k
// cut-off.
type traceSink struct{ accepts, matches int }

func (s *traceSink) Reserve(int) {}

func (s *traceSink) AcceptChunk(ids []uint32) (int, bool) {
	s.accepts += len(ids)
	return len(ids), true
}

func (s *traceSink) Match(uint32) bool {
	s.matches++
	return true
}

func TestFuncSinkEarlyStop(t *testing.T) {
	points := [][]float64{{1}, {2}, {3}, {4}}
	info := buildInfo(points, []float64{1}, vecmath.FirstOctant(1))
	src := makeSource(points, []IndexInfo{info})
	calls := 0
	st, err := Run(src, Query{A: []float64{1}, B: 100}, FuncSink(func(uint32) bool {
		calls++
		return calls < 2
	}))
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("visited %d points, want 2", calls)
	}
	// The legacy early-stop contract: stats are partial, the larger
	// interval is left unclassified.
	if st.Rejected != 0 {
		t.Fatalf("early stop classified %d rejected points", st.Rejected)
	}
}

// A zero coefficient makes rejection impossible, so every compatible
// index scores +Inf and the query is scanned — but not for want of a
// compatible index.
func TestPlanZeroCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	points := randPoints(rng, 300, 3)
	signs := vecmath.FirstOctant(3)
	infos := []IndexInfo{
		buildInfo(points, []float64{1, 2, 3}, signs),
		buildInfo(points, []float64{3, 1, 1}, signs),
	}
	src := makeSource(points, infos)
	q := Query{A: []float64{1, 0, 2}, B: 60}

	p := PlanQuery(src, q)
	if p.Kind != KindScan || p.Compatible != 2 || strings.Contains(p.Reason, "hyper-octant") {
		t.Fatalf("plan %+v, want a scan that does not blame the octant", p)
	}
	var got IDSink
	if _, err := Execute(src, q, p, &got); err != nil {
		t.Fatal(err)
	}
	if want := bruteIDs(points, q); !reflect.DeepEqual(sortedCopy(got.IDs), want) {
		t.Fatalf("%d ids, want %d", len(got.IDs), len(want))
	}

	// The octant reason still means compatible == 0.
	neg := Query{A: []float64{-1, 1, 2}, B: 60}
	p = PlanQuery(src, neg)
	if p.Compatible != 0 || !strings.Contains(p.Reason, "hyper-octant") {
		t.Fatalf("incompatible query: plan %+v", p)
	}
	// An index outside the query's octant bounds nothing.
	if lo, hi := Bounds(&infos[0], neg); lo != 0 || hi != len(points) {
		t.Fatalf("incompatible index bounds [%d,%d], want [0,%d]", lo, hi, len(points))
	}
}

func TestRunBatchMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	points := randPoints(rng, 250, 2)
	signs := vecmath.FirstOctant(2)
	infos := []IndexInfo{
		buildInfo(points, []float64{1, 1}, signs),
		buildInfo(points, []float64{1, 4}, signs),
	}
	src := makeSource(points, infos)
	a := []float64{2, 3}
	bs := []float64{-100, -5, 0, 25, 80, 150, 1000}

	sinks := make([]*IDSink, len(bs))
	sts, err := RunBatch(src, a, bs, func(i int, _ float64) Sink {
		sinks[i] = &IDSink{}
		return sinks[i]
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bs {
		q := Query{A: a, B: b}
		var single IDSink
		st, err := Run(src, q, &single)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedCopy(sinks[i].IDs), sortedCopy(single.IDs)) {
			t.Fatalf("b=%v: batch answer differs from single query", b)
		}
		if sts[i].Accepted != st.Accepted || sts[i].Verified != st.Verified ||
			sts[i].Matched != st.Matched || sts[i].Rejected != st.Rejected {
			t.Fatalf("b=%v: batch stats %+v differ from single %+v", b, sts[i], st)
		}
		if !reflect.DeepEqual(sortedCopy(sinks[i].IDs), sortedCopy(bruteIDs(points, q))) {
			t.Fatalf("b=%v: batch answer differs from brute force", b)
		}
	}
}

func TestSelectionString(t *testing.T) {
	cases := []struct {
		sel  Selection
		want string
	}{
		{SelectVolume, "volume"},
		{SelectAngle, "angle"},
		{Selection(7), "Selection(7)"},
		{Selection(-1), "Selection(-1)"},
	}
	for _, c := range cases {
		if got := c.sel.String(); got != c.want {
			t.Errorf("Selection(%d).String() = %q, want %q", int(c.sel), got, c.want)
		}
	}
	// Unknown-value round-trip: the numeric value survives formatting.
	if got := Selection(7).String(); got != "Selection(7)" {
		t.Fatalf("round-trip failed: %q", got)
	}
}

func TestStatsHelpers(t *testing.T) {
	st := Stats{N: 100, Accepted: 30, Verified: 20, Matched: 5, Rejected: 50}
	if st.Results() != 35 {
		t.Fatalf("Results = %d", st.Results())
	}
	if got := st.PruningFraction(); got != 0.8 {
		t.Fatalf("PruningFraction = %v", got)
	}
	if (Stats{}).PruningFraction() != 0 {
		t.Fatal("empty stats should report zero pruning")
	}
}
