package core

import (
	"errors"
	"fmt"
	"math"

	"planar/internal/exec"
	"planar/internal/vecmath"
)

// Op is the comparison direction of a scalar product query.
type Op int

const (
	// LE asks for ⟨a, φ(x)⟩ ≤ b.
	LE Op = iota
	// GE asks for ⟨a, φ(x)⟩ ≥ b.
	GE
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Query is a scalar product query ⟨A, φ(x)⟩ Op B (paper Problem 1).
// Both A and B are known only at query time.
type Query struct {
	A  []float64
	B  float64
	Op Op
}

// NewQuery validates and returns a query.
func NewQuery(a []float64, b float64, op Op) (Query, error) {
	q := Query{A: a, B: b, Op: op}
	return q, q.Validate(len(a))
}

// Validate checks the query against an expected dimensionality.
func (q Query) Validate(dim int) error {
	if err := vecmath.CheckDim("query coefficient vector", q.A, dim); err != nil {
		return err
	}
	if !vecmath.AllFinite(q.A) {
		return errors.New("core: query coefficients must be finite")
	}
	if math.IsNaN(q.B) || math.IsInf(q.B, 0) {
		return errors.New("core: query bound must be finite")
	}
	if q.Op != LE && q.Op != GE {
		return fmt.Errorf("core: unknown op %d", int(q.Op))
	}
	return nil
}

// normalized returns the query rewritten in LE form: a GE query is
// negated on both sides (⟨a,φ⟩ ≥ b ⇔ ⟨−a,φ⟩ ≤ −b).
func (q Query) normalized() Query {
	if q.Op == LE {
		return q
	}
	neg := make([]float64, len(q.A))
	for i, v := range q.A {
		neg[i] = -v
	}
	return Query{A: neg, B: -q.B, Op: LE}
}

// NormalizedCoefficients returns the coefficient vector of the
// query's LE form (GE queries are negated), which determines the
// hyper-octant an index must serve. The result is a fresh slice.
func (q Query) NormalizedCoefficients() []float64 {
	return vecmath.Clone(q.normalized().A)
}

// LE returns the query in the execution pipeline's normalized ≤ form
// (GE queries are negated on both sides). The coefficient slice may
// be shared with the receiver; the pipeline only reads it.
func (q Query) LE() exec.Query {
	nq := q.normalized()
	return exec.Query{A: nq.A, B: nq.B}
}

// Satisfies evaluates the predicate directly on a φ vector.
func (q Query) Satisfies(phi []float64) bool {
	p := vecmath.Dot(q.A, phi)
	if q.Op == LE {
		return p <= q.B
	}
	return p >= q.B
}

// Distance returns the Euclidean distance from φ to the query
// hyperplane ⟨A, y⟩ = B: |⟨A,φ⟩ − B| / |A|.
func (q Query) Distance(phi []float64) float64 {
	return math.Abs(vecmath.Dot(q.A, phi)-q.B) / vecmath.Norm(q.A)
}

// Hyperplane returns the query hyperplane H(q) (Equation 2).
func (q Query) Hyperplane() (vecmath.Hyperplane, error) {
	return vecmath.NewHyperplane(q.A, q.B)
}

// Stats reports how a single query travelled through the execution
// pipeline. It is an alias of the pipeline's stats type, so every
// layer (core, service, HTTP API, CLI) shares one vocabulary: the
// interval counters behind the paper's "pruning percentage" figures
// plus per-stage observability (planning and execution time).
type Stats = exec.Stats
