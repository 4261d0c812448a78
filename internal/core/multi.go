package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"planar/internal/exec"
	"planar/internal/vecmath"
)

// Selection names a best-index selection heuristic (Section 5.1). It
// is an alias of the pipeline's selection type.
type Selection = exec.Selection

const (
	// SelectVolume picks the index minimising the maximum stretch of
	// the intermediate interval (Problem 3). The paper finds this
	// usually superior; it is the default.
	SelectVolume = exec.SelectVolume
	// SelectAngle picks the index whose hyperplane family makes the
	// smallest angle with the query hyperplane.
	SelectAngle = exec.SelectAngle
)

// Domain is the a-priori range of one query coefficient (paper
// Section 4.1). Lo and Hi must not straddle zero: the octant of each
// coefficient must be known for indexes to be built.
type Domain struct {
	Lo, Hi float64
}

// Sign returns the coefficient sign implied by the domain.
func (d Domain) Sign() int8 {
	if d.Lo >= 0 {
		return 1
	}
	return -1
}

// Validate rejects empty, non-finite or zero-straddling domains.
func (d Domain) Validate() error {
	if math.IsNaN(d.Lo) || math.IsNaN(d.Hi) || math.IsInf(d.Lo, 0) || math.IsInf(d.Hi, 0) {
		return errors.New("core: domain bounds must be finite")
	}
	if d.Lo > d.Hi {
		return fmt.Errorf("core: empty domain [%v, %v]", d.Lo, d.Hi)
	}
	if d.Lo < 0 && d.Hi > 0 {
		return fmt.Errorf("core: domain [%v, %v] straddles zero; split the workload by octant", d.Lo, d.Hi)
	}
	return nil
}

// sample draws a magnitude uniformly from the domain's absolute
// range, clamped away from zero (index normals must be positive).
func (d Domain) sample(rng *rand.Rand) float64 {
	lo, hi := math.Abs(d.Lo), math.Abs(d.Hi)
	if lo > hi {
		lo, hi = hi, lo
	}
	v := lo + rng.Float64()*(hi-lo)
	if v <= 0 {
		v = hi * 1e-6
		if v <= 0 {
			v = 1e-9
		}
	}
	return v
}

// Multi is a budgeted collection of planar indexes over one shared
// point store, with best-index selection at query time (Section 5)
// and coordinated dynamic updates (Section 4.4). It is the one query
// surface: every query is asked of a Multi, which answers through
// the best compatible index, or by a sequential scan when no index
// bounds the query. All methods are safe for concurrent use;
// mutations are serialised. Queries run on the internal/exec
// pipeline, which chooses the index afresh for every query.
type Multi struct {
	mu      sync.RWMutex
	store   *PointStore
	indexes []*Index
	sel     Selection

	// old holds the vector an Update is overwriting until every index
	// has dropped the key it was indexed under.
	old []float64 // guarded by mu
}

// MultiOption customises a Multi.
type MultiOption func(*Multi)

// WithSelection sets the best-index heuristic.
func WithSelection(s Selection) MultiOption {
	return func(m *Multi) { m.sel = s }
}

// NewMulti creates an empty index collection over store.
func NewMulti(store *PointStore, opts ...MultiOption) (*Multi, error) {
	if store == nil {
		return nil, errors.New("core: nil point store")
	}
	m := &Multi{
		store: store,
		sel:   SelectVolume,
		old:   make([]float64, store.Dim()),
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Store returns the shared point store.
func (m *Multi) Store() *PointStore { return m.store }

// NumIndexes returns the number of planar indexes held.
func (m *Multi) NumIndexes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.indexes)
}

// Index returns the i-th index (for inspection and ablation).
func (m *Multi) Index(i int) *Index {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.indexes[i]
}

// sourceLease is one query's pipeline view of a Multi. Leases are
// pooled: a steady-state query reuses the previous query's slices and
// allocates nothing.
type sourceLease struct {
	src exec.Source
	// ids is the sink of an id-collecting query. It lives here so that
	// handing it to the pipeline allocates nothing; the buffer it
	// fills is the caller's and leaves with the answer.
	ids exec.IDSink
}

var leasePool = sync.Pool{New: func() any { return new(sourceLease) }}

// Release recycles the lease. Must be called exactly once, after the
// pipeline finishes.
func (l *sourceLease) Release() { leasePool.Put(l) }

// sourceLocked snapshots the pipeline's view of the Multi: every
// index's geometry plus the store's raw rows. Callers hold m.mu
// (read) until the lease is Released; it guards the store and every
// index field, trees included, so the snapshot stays valid while the
// pipeline runs.
func (m *Multi) sourceLocked() *sourceLease {
	l := leasePool.Get().(*sourceLease)
	infos := l.src.Indexes[:0]
	for _, ix := range m.indexes {
		infos = append(infos, ix.info())
	}
	rows, live := m.store.RawRows()
	l.src = exec.Source{
		N:       m.store.Len(),
		Indexes: infos,
		Sel:     m.sel,
		Rows:    rows,
		RowLive: live,
		RowDim:  m.store.Dim(),
	}
	return l
}

// AddNormal builds and adds an index with the given normal and
// octant, unless a redundant index (parallel normal, same octant) is
// already present (Section 5.2). It reports whether an index was
// added.
func (m *Multi) AddNormal(normal []float64, signs vecmath.SignPattern) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ix := range m.indexes {
		if ix.signs.Equal(signs) && vecmath.Parallel(ix.c, normal, 1e-9) {
			return false, nil
		}
	}
	ix, err := newIndex(m, normal, signs)
	if err != nil {
		return false, err
	}
	m.indexes = append(m.indexes, ix)
	return true, nil
}

// NormalSpec describes one index to install: its normal (translated
// frame) and the hyper-octant of query coefficients it serves.
type NormalSpec struct {
	Normal []float64
	Signs  vecmath.SignPattern
}

// AddNormals installs a batch of indexes at once, bulk-loading their
// arenas on up to GOMAXPROCS goroutines. This is the recovery path:
// snapshot restore and shard bootstrap rebuild every index of a store
// from its spec list, and each build is an independent O(n)
// BulkLoad over the shared (read-only) point store. Redundant specs —
// parallel normal, same octant, against existing indexes or an
// earlier spec in the batch — are skipped exactly as repeated
// AddNormal calls would skip them. It returns how many indexes were
// added.
func (m *Multi) AddNormals(specs []NormalSpec) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The redundancy filter stays sequential so batch order has the
	// same meaning as call order.
	type job struct {
		pos  int
		spec NormalSpec
	}
	var jobs []job
	for i, sp := range specs {
		redundant := false
		for _, ix := range m.indexes {
			if ix.signs.Equal(sp.Signs) && vecmath.Parallel(ix.c, sp.Normal, 1e-9) {
				redundant = true
				break
			}
		}
		for _, j := range jobs {
			if redundant {
				break
			}
			if j.spec.Signs.Equal(sp.Signs) && vecmath.Parallel(j.spec.Normal, sp.Normal, 1e-9) {
				redundant = true
			}
		}
		if !redundant {
			jobs = append(jobs, job{pos: i, spec: sp})
		}
	}
	if len(jobs) == 0 {
		return 0, nil
	}

	built := make([]*Index, len(jobs))
	errs := make([]error, len(jobs))
	workers := exec.ClampWorkers(len(jobs))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				ix, err := newIndex(m, jobs[i].spec.Normal, jobs[i].spec.Signs)
				if err != nil {
					errs[i] = fmt.Errorf("core: index %d: %w", jobs[i].pos, err)
					continue
				}
				built[i] = ix
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	m.indexes = append(m.indexes, built...)
	return len(built), nil
}

// SampleBudget draws up to budget index normals uniformly from the
// per-coefficient domains (Section 5.2), skipping redundant ones. It
// returns how many indexes were actually added. The rng makes index
// construction reproducible.
func (m *Multi) SampleBudget(budget int, domains []Domain, rng *rand.Rand) (int, error) {
	if budget <= 0 {
		return 0, fmt.Errorf("core: budget must be positive, got %d", budget)
	}
	if len(domains) != m.store.Dim() {
		return 0, fmt.Errorf("core: got %d domains, want %d", len(domains), m.store.Dim())
	}
	signs := make(vecmath.SignPattern, len(domains))
	for i, d := range domains {
		if err := d.Validate(); err != nil {
			return 0, fmt.Errorf("domain %d: %w", i, err)
		}
		signs[i] = d.Sign()
	}
	added := 0
	normal := make([]float64, len(domains))
	// Sampling can hit redundant normals (especially on discrete
	// domains); allow a generous number of retries before giving up.
	for attempts := 0; added < budget && attempts < budget*20; attempts++ {
		for i, d := range domains {
			normal[i] = d.sample(rng)
		}
		ok, err := m.AddNormal(normal, signs)
		if err != nil {
			return added, err
		}
		if ok {
			added++
		}
	}
	return added, nil
}

// RemoveAllIndexes drops every index (the MOVIES-style "throw the
// index away" step for moving-object workloads) while keeping the
// point store.
func (m *Multi) RemoveAllIndexes() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.indexes = nil
}

// Inequality answers Problem 1 with Algorithm 1, through the best
// compatible index or a sequential scan when none bounds the query:
// points in the smaller interval are reported without verification,
// points in the intermediate interval are verified by computing the
// true scalar product, and the larger interval is rejected wholesale.
// visit is called once per matching point id, in no particular order;
// a false return stops early (Stats are then partial).
//
// The Multi's read lock is held for the whole operation: it is what
// makes concurrent queries safe against Update/Append/Remove, which
// mutate the shared point store under the write lock.
func (m *Multi) Inequality(q Query, visit func(id uint32) bool) (Stats, error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return Stats{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked()
	defer lease.Release()
	src := &lease.src
	return exec.Run(src, q.LE(), exec.FuncSink(visit))
}

// InequalityIDs collects all matching point ids into a fresh slice.
func (m *Multi) InequalityIDs(q Query) ([]uint32, Stats, error) {
	return m.AppendInequalityIDs(nil, q)
}

// AppendInequalityIDs appends all matching point ids to dst and
// returns the extended slice, as append does. The pipeline reserves
// room once, from the index's rank counts, so a caller that hands the
// returned slice back (cut to [:0]) on its next query reaches a steady
// state in which nothing is allocated. On an error dst is returned
// as it came.
func (m *Multi) AppendInequalityIDs(dst []uint32, q Query) ([]uint32, Stats, error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return dst, Stats{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked()
	defer lease.Release()
	lease.ids.IDs = dst
	st, err := exec.Run(&lease.src, q.LE(), &lease.ids)
	ids := lease.ids.IDs
	lease.ids.IDs = nil
	if err != nil {
		return dst, Stats{}, err
	}
	return ids, st, nil
}

// InequalityBatch answers one inequality query per threshold in bs,
// all sharing the coefficient vector a: octant checks and best-index
// selection run once and the interval thresholds are recomputed per
// threshold — the natural shape for moving-object ticks and
// threshold sweeps where a is fixed and b varies. ids[i] and
// stats[i] answer ⟨a, φ(x)⟩ op bs[i].
func (m *Multi) InequalityBatch(a []float64, op Op, bs []float64) (ids [][]uint32, stats []Stats, err error) {
	if err := (Query{A: a, B: 0, Op: op}).Validate(m.store.Dim()); err != nil {
		return nil, nil, err
	}
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, nil, fmt.Errorf("core: batch threshold %d is %v, must be finite", i, b)
		}
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked()
	defer lease.Release()
	src := &lease.src

	// Normalize once: a GE batch is a LE batch on (−a, −b).
	na, nbs := a, bs
	if op == GE {
		na = make([]float64, len(a))
		for i, v := range a {
			na[i] = -v
		}
		nbs = make([]float64, len(bs))
		for i, b := range bs {
			nbs[i] = -b
		}
	}
	sinks := make([]*exec.IDSink, len(bs))
	stats, err = exec.RunBatch(src, na, nbs, func(i int, _ float64) exec.Sink {
		sinks[i] = &exec.IDSink{}
		return sinks[i]
	})
	if err != nil {
		return nil, nil, err
	}
	ids = make([][]uint32, len(bs))
	for i, s := range sinks {
		ids[i] = s.IDs
	}
	return ids, stats, nil
}

// Result is one answer of a top-k nearest-neighbour query: a point
// satisfying the inequality together with its Euclidean distance to
// the query hyperplane. It is an alias of the pipeline's result type.
type Result = exec.Result

// TopK answers Problem 2 with Algorithm 2, through the best compatible
// index or a sequential scan when none bounds the query: among points
// satisfying the inequality, return the k with the smallest distance
// |⟨A,φ(x)⟩ − B| / |A| to the query hyperplane. The intermediate
// interval is verified exhaustively; the smaller interval is walked in
// descending key order and cut off by the lower-bound-distance pruning
// rule of Claim 3. Stats.Verified counts intermediate-interval points
// examined and Stats.Accepted counts smaller-interval points examined
// before the pruning rule fired (the paper's k1). Like Inequality, it
// holds the read lock for the whole operation.
func (m *Multi) TopK(q Query, k int) ([]Result, Stats, error) {
	if err := q.Validate(m.store.Dim()); err != nil {
		return nil, Stats{}, err
	}
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: TopK requires k > 0, got %d", k)
	}
	// The distance is undefined at A = 0, whatever would answer.
	if vecmath.Norm(q.A) == 0 {
		return nil, Stats{}, errors.New("core: TopK requires a non-zero coefficient vector")
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	lease := m.sourceLocked()
	defer lease.Release()
	src := &lease.src
	nq := q.LE()
	sink := exec.NewTopKSink(k, func(id uint32) float64 {
		return nq.Distance(m.store.Vector(id))
	})
	st, err := exec.Run(src, nq, sink)
	if err != nil {
		return nil, Stats{}, err
	}
	return sink.Results(), st, nil
}

// Append adds a point to the store and to every index. It returns
// the new point id.
func (m *Multi) Append(v []float64) (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id, err := m.store.Append(v)
	if err != nil {
		return 0, err
	}
	for _, ix := range m.indexes {
		ix.add(id, m.store.Vector(id))
	}
	return id, nil
}

// Update replaces a point's φ vector and re-keys it in every index —
// the O(d'·log n)-per-index dynamic update of Section 4.4.
func (m *Multi) Update(id uint32, v []float64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.store.Live(id) {
		return fmt.Errorf("core: point %d is not live", id)
	}
	copy(m.old, m.store.Vector(id))
	if err := m.store.Set(id, v); err != nil {
		return err
	}
	cur := m.store.Vector(id)
	for _, ix := range m.indexes {
		ix.update(id, m.old, cur)
	}
	return nil
}

// Remove deletes a point from the store and every index.
func (m *Multi) Remove(id uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.store.Live(id) {
		return fmt.Errorf("core: point %d is not live", id)
	}
	old := m.store.Vector(id) // the row stays as it is until store.Remove below
	for _, ix := range m.indexes {
		ix.remove(id, old)
	}
	return m.store.Remove(id)
}

// MemoryBytes returns the approximate footprint of all indexes plus
// the shared store.
func (m *Multi) MemoryBytes() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := m.store.MemoryBytes()
	for _, ix := range m.indexes {
		total += ix.memoryBytes()
	}
	return total
}
