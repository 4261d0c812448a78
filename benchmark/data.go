package main

import (
	"math"
	"math/rand"
	"sort"

	"planar/internal/wal"
)

// dataset is the seeded input every workload starts from: n points
// uniform in [0,1)^dim and the normals of the first-octant indexes,
// each coordinate in [0.5,1.5).
type dataset struct {
	n, dim  int
	points  []float64 // row-major, n×dim
	normals [][]float64
}

func genDataset(seed int64, n, dim, indexes int) *dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &dataset{n: n, dim: dim, points: make([]float64, n*dim)}
	for i := range ds.points {
		ds.points[i] = rng.Float64()
	}
	for k := 0; k < indexes; k++ {
		c := make([]float64, dim)
		for j := range c {
			c[j] = 0.5 + rng.Float64()
		}
		ds.normals = append(ds.normals, c)
	}
	return ds
}

func (ds *dataset) row(i int) []float64 { return ds.points[i*ds.dim : (i+1)*ds.dim] }

// shadow is the harness's model of the store's contents: the oracle
// every answer and every recovered state is compared with. It assigns
// ids exactly as core.PointStore does (dense rows, freed rows reused
// last-in first-out), so the id of an append is known before the store
// acknowledges it.
type shadow struct {
	dim  int
	data []float64
	live []bool
	free []uint32
	ids  []uint32 // live ids, dense, for uniform picks
	pos  []int32  // id → position in ids; -1 when dead
}

func newShadow(ds *dataset) *shadow {
	s := &shadow{
		dim:  ds.dim,
		data: append([]float64(nil), ds.points...),
		live: make([]bool, ds.n),
		ids:  make([]uint32, ds.n),
		pos:  make([]int32, ds.n),
	}
	for i := range s.live {
		s.live[i] = true
		s.ids[i] = uint32(i)
		s.pos[i] = int32(i)
	}
	return s
}

func (s *shadow) clone() *shadow {
	return &shadow{
		dim:  s.dim,
		data: append([]float64(nil), s.data...),
		live: append([]bool(nil), s.live...),
		free: append([]uint32(nil), s.free...),
		ids:  append([]uint32(nil), s.ids...),
		pos:  append([]int32(nil), s.pos...),
	}
}

func (s *shadow) len() int { return len(s.ids) }

func (s *shadow) vec(id uint32) []float64 {
	return s.data[int(id)*s.dim : (int(id)+1)*s.dim]
}

// nextID is the id the store will give the next appended point.
func (s *shadow) nextID() uint32 {
	if n := len(s.free); n > 0 {
		return s.free[n-1]
	}
	return uint32(len(s.live))
}

func (s *shadow) append(v []float64) uint32 {
	id := s.nextID()
	if n := len(s.free); n > 0 {
		s.free = s.free[:n-1]
		copy(s.vec(id), v)
		s.live[id] = true
	} else {
		s.data = append(s.data, v...)
		s.live = append(s.live, true)
		s.pos = append(s.pos, -1)
	}
	s.pos[id] = int32(len(s.ids))
	s.ids = append(s.ids, id)
	return id
}

func (s *shadow) update(id uint32, v []float64) { copy(s.vec(id), v) }

func (s *shadow) remove(id uint32) {
	p := s.pos[id]
	last := s.ids[len(s.ids)-1]
	s.ids[p] = last
	s.pos[last] = p
	s.ids = s.ids[:len(s.ids)-1]
	s.pos[id] = -1
	s.live[id] = false
	s.free = append(s.free, id)
}

func (s *shadow) apply(op writeOp) {
	switch op.kind {
	case wal.OpAppend:
		s.append(op.vec)
	case wal.OpUpdate:
		s.update(op.id, op.vec)
	default:
		s.remove(op.id)
	}
}

func (s *shadow) pick(rng *rand.Rand) uint32 { return s.ids[rng.Intn(len(s.ids))] }

func dot(a, v []float64) float64 {
	var p float64
	for i, x := range a {
		p += x * v[i]
	}
	return p
}

// answer is the brute-force oracle for ⟨a,x⟩ ≤ b: the live ids that
// satisfy it, in ascending id order, appended to dst. It accumulates
// in coordinate order like vecmath.Dot, so the verdict on a point is
// bit-identical to the store's.
func (s *shadow) answer(a []float64, b float64, dst []uint32) []uint32 {
	for id, ok := range s.live {
		if ok && dot(a, s.data[id*s.dim:(id+1)*s.dim]) <= b {
			dst = append(dst, uint32(id))
		}
	}
	return dst
}

// sameIDs reports whether got holds exactly the ids of want (any
// order, no duplicates). mark is scratch of at least the id space,
// all zero on entry and on return.
func sameIDs(got, want []uint32, mark []uint8) bool {
	if len(got) != len(want) {
		return false
	}
	ok := true
	for _, id := range want {
		if int(id) >= len(mark) {
			return false
		}
		mark[id] = 1
	}
	for _, id := range got {
		if int(id) >= len(mark) || mark[id] != 1 {
			ok = false
			break
		}
		mark[id] = 2
	}
	for _, id := range want {
		mark[id] = 0
	}
	return ok
}

// classSpec names a query class by the two interval sizes the paper's
// cost model depends on, as shares of N: the answer size at the class's
// centre threshold and the intermediate interval |II| the plan must
// verify.
type classSpec struct {
	name        string
	answerShare float64
	iiShare     float64
}

var (
	selectClass = classSpec{"select", 0.001, 0.0002}
	verifyClass = classSpec{"verify", 0.005, 0.25}
	emitClass   = classSpec{"emit", 0.20, 0.004}
)

const (
	classDirections = 32 // fits the 128-entry plan cache with room to spare
	classThresholds = 8  // b values per direction
)

type query struct {
	a    []float64
	b    float64
	body []byte // the pre-encoded /v1/query request

	// print is the fingerprint of the oracle's answer when the store
	// had taken checkedAt-1 writes; checkedAt 0 means never checked.
	checkedAt int
	print     [2]uint64
}

// class is a calibrated set of classDirections×classThresholds
// queries. meanII and meanAnswer are what the store reported for them
// when each was checked against the oracle; skewMax is the largest
// relative skew from an index normal that calibration needed.
type class struct {
	spec       classSpec
	queries    []query
	meanII     float64
	meanAnswer float64
	skewMax    float64
}

// explainFn reports the size of the intermediate interval the store's
// plan has for ⟨a,x⟩ ≤ b.
type explainFn func(a []float64, b float64) (verified int, err error)

// direction returns normal k skewed by gamma: variant v < dim scales
// coordinate v by 1+gamma, variant v ≥ dim scales coordinates v and
// v+1. gamma = 0 is parallel to the index family (empty II); growing
// gamma widens the II without ever leaving the first octant.
func direction(normal []float64, variant int, gamma float64) []float64 {
	a := append([]float64(nil), normal...)
	d := len(a)
	a[variant%d] *= 1 + gamma
	if variant >= d {
		a[(variant+1)%d] *= 1 + gamma
	}
	return a
}

// calibrateClass builds a class on the shadow's current contents. For
// each direction the skew is bisected with explain until the plan's
// |II| at the centre threshold is within 2 % of the target; every
// threshold sits between two adjacent order statistics of ⟨a,x⟩ over
// the points, so answer sizes are hit exactly.
func calibrateClass(spec classSpec, ds *dataset, sh *shadow, explain explainFn) (*class, error) {
	n := sh.len()
	dots := make([]float64, n)
	project := func(a []float64) {
		for i, id := range sh.ids {
			dots[i] = dot(a, sh.vec(id))
		}
	}
	centre := int(math.Round(spec.answerShare * float64(n)))
	target := spec.iiShare * float64(n)
	probe := func(a []float64) (int, error) {
		project(a)
		return explain(a, kth(dots, centre-1))
	}

	c := &class{spec: spec}
	variants := classDirections / len(ds.normals)
	for _, normal := range ds.normals {
		for v := 0; v < variants; v++ {
			lo, hi := 0.0, 0.01
			for {
				got, err := probe(direction(normal, v, hi))
				if err != nil {
					return nil, err
				}
				if float64(got) >= target || hi > 1e6 {
					break
				}
				lo, hi = hi, hi*2
			}
			gamma := hi
			for i := 0; i < 40; i++ {
				gamma = (lo + hi) / 2
				got, err := probe(direction(normal, v, gamma))
				if err != nil {
					return nil, err
				}
				if math.Abs(float64(got)-target) <= 0.02*target {
					break
				}
				if float64(got) < target {
					lo = gamma
				} else {
					hi = gamma
				}
			}
			c.skewMax = math.Max(c.skewMax, gamma)

			a := direction(normal, v, gamma)
			project(a)
			sort.Float64s(dots)
			for t := 0; t < classThresholds; t++ {
				// answer sizes spread ±20 % around the centre
				share := 0.8 + 0.4*float64(t)/float64(classThresholds-1)
				rank := int(math.Round(share * float64(centre)))
				if rank < 1 {
					rank = 1
				}
				// halfway to the next point, so no verdict hangs on the
				// last bit of a scalar product
				b := (dots[rank-1] + dots[rank]) / 2
				c.queries = append(c.queries, query{a: a, b: b, body: encodeQuery(a, b)})
			}
		}
	}
	return c, nil
}

// kth returns the k-th smallest (0-based) value of xs, reordering xs.
func kth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// median of three as the pivot, then a Hoare partition
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		p := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < p {
				i++
			}
			for xs[j] > p {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k]
		}
	}
	return xs[k]
}
