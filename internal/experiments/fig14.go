package experiments

import (
	"fmt"
	"math/rand"

	"planar/internal/mbrtree"
	"planar/internal/moving"
	"planar/internal/stats"
)

func init() {
	register("fig14a", "Figure 14(a): moving-object intersection, linear motion (baseline vs planar vs MBR-tree)", fig14a)
	register("fig14b", "Figure 14(b): moving-object intersection, circular motion (baseline vs planar)", fig14b)
	register("fig14c", "Figure 14(c): moving-object intersection, accelerating objects (baseline vs planar)", fig14c)
}

var movingTimes = []float64{10, 11, 11.5, 12, 13, 14, 15}

var movingSlots = []float64{10, 11, 12, 13, 14, 15}

// intersectionDist is S, the distance within which two objects
// intersect, in miles.
const intersectionDist = 10.0

// at prepares the query cell of time t: op answers pairs(t) on the
// built structure, checked against ref(t) when ref is not nil.
func at[T any](j *built[T], t float64, pairs func(T, float64) (int, error), ref func(float64) int) func() (op, check, error) {
	return func() (op, check, error) {
		v, err := j.get()
		if err != nil {
			return nil, nil, err
		}
		var chk check
		if ref != nil {
			chk = same(func(int) (outcome, error) { return outcome{n: ref(t)}, nil })
		}
		return func(int) (outcome, error) {
			n, err := pairs(v, t)
			return outcome{n: n}, err
		}, chk, nil
	}
}

// pairScan prepares the quadratic baseline of time t: every pair tested.
func pairScan(t float64, pairs func(float64) int) func() (op, check, error) {
	return func() (op, check, error) {
		return func(int) (outcome, error) { return outcome{n: pairs(t)}, nil }, nil, nil
	}
}

// fig14a: two 5K sets of linearly moving objects in 1000×1000 mile²,
// speeds 0.1–1 mile/min, intersection distance 10 miles, queried at
// future minutes 10–15. The paper finds the planar index comparable
// to the MBR-tree on exact slots, at most ~4× slower between slots,
// and both far ahead of the 25M-pair baseline.
func fig14a(s *sweep) error {
	rng := rand.New(rand.NewSource(s.Seed))
	setA := moving.GenLinear2D(s.MovingN, 1000, 0.1, 1, rng)
	setB := moving.GenLinear2D(s.MovingN, 1000, 0.1, 1, rng)
	space := &moving.LinearSpace{A: setA, B: setB}
	join := &built[*moving.Join]{build: func() (*moving.Join, error) { return moving.NewJoin(space, movingSlots) }}
	tree := &built[*mbrtree.Tree]{build: func() (*mbrtree.Tree, error) { return mbrtree.Build(setB) }}

	planarBuild, err := s.measure("build/planar", 1, join.cell(nil))
	if err != nil {
		return err
	}
	mbrBuild, err := s.measure("build/mbrtree", 1, tree.cell(nil))
	if err != nil {
		return err
	}
	out := stats.NewTable(
		fmt.Sprintf("Figure 14(a) — linear motion, %d×%d pairs, S=10 (planar build %s, MBR build %s)",
			s.MovingN, s.MovingN, planarBuild.total, mbrBuild.total),
		"t(min)", "baseline", "planar", "mbr-tree", "pairs")
	ref := func(t float64) int { return len(moving.Baseline(space, t, intersectionDist)) }
	for _, t := range movingTimes {
		name := fmt.Sprintf("t%g/", t)
		base, err := s.measure(name+"baseline", 1, pairScan(t, ref))
		if err != nil {
			return err
		}
		planar, err := s.measure(name+"planar", 1, at(join, t, func(j *moving.Join, t float64) (int, error) {
			pairs, _, err := j.AtPairs(t, intersectionDist)
			return len(pairs), err
		}, ref))
		if err != nil {
			return err
		}
		mbr, err := s.measure(name+"mbrtree", 1, at(tree, t, func(tr *mbrtree.Tree, t float64) (int, error) {
			return len(tr.Join(setA, t, intersectionDist)), nil
		}, ref))
		if err != nil {
			return err
		}
		out.AddRow(t, base.total, planar.total, mbr.total, base.answers)
	}
	return s.print(out.String())
}

// fig14b: circular objects (radius 1–100 within a 100×100 mile²
// area, angular velocity 1–5 degree/min) against linear movers,
// S=10 miles. No spatio-temporal comparator applies; the paper
// reports 2.5–75× over the baseline.
func fig14b(s *sweep) error {
	rng := rand.New(rand.NewSource(s.Seed))
	omegas := []float64{
		moving.DegPerMin(1), moving.DegPerMin(2), moving.DegPerMin(3),
		moving.DegPerMin(4), moving.DegPerMin(5),
	}
	circ, ws := moving.GenCircular(s.MovingN, moving.Vec2{X: 50, Y: 50}, 1, 100, omegas, rng)
	lin := moving.GenLinear2D(s.MovingN, 100, 0.1, 1, rng)
	work := &built[*moving.CircularWorkload]{build: func() (*moving.CircularWorkload, error) {
		return moving.NewCircularWorkload(circ, ws, lin, movingSlots)
	}}

	build, err := s.measure("build/planar", 1, work.cell((*moving.CircularWorkload).NumGroups))
	if err != nil {
		return err
	}
	out := stats.NewTable(
		fmt.Sprintf("Figure 14(b) — circular motion, %d×%d pairs, %d ω-groups, S=10 (build %s)",
			s.MovingN, s.MovingN, build.answers, build.total),
		"t(min)", "baseline", "planar", "pairs")
	ref := func(t float64) int {
		w, _ := work.get()
		return len(w.Baseline(t, intersectionDist))
	}
	for _, t := range movingTimes {
		name := fmt.Sprintf("t%g/", t)
		base, err := s.measure(name+"baseline", 1, func() (op, check, error) {
			if _, err := work.get(); err != nil {
				return nil, nil, err
			}
			return pairScan(t, ref)()
		})
		if err != nil {
			return err
		}
		planar, err := s.measure(name+"planar", 1, at(work, t, func(w *moving.CircularWorkload, t float64) (int, error) {
			pairs, _, err := w.At(t, intersectionDist)
			return len(pairs), err
		}, ref))
		if err != nil {
			return err
		}
		out.AddRow(t, base.total, planar.total, base.answers)
	}
	return s.print(out.String())
}

// fig14c: 3-D accelerating objects (speeds 0.1–1 mile/min,
// accelerations 0.01–0.05 mile/min²) against linear movers in a
// 1000³ mile³ cube, S=10. The paper reports 25–50× over the
// baseline.
func fig14c(s *sweep) error {
	rng := rand.New(rand.NewSource(s.Seed))
	acc := moving.GenAccel3D(s.MovingN, 1000, 0.1, 1, 0.01, 0.05, rng)
	lin := moving.GenLinear3D(s.MovingN, 1000, 0.1, 1, rng)
	space := &moving.AccelSpace{A: acc, L: lin}
	join := &built[*moving.Join]{build: func() (*moving.Join, error) { return moving.NewJoin(space, movingSlots) }}

	build, err := s.measure("build/planar", 1, join.cell(nil))
	if err != nil {
		return err
	}
	out := stats.NewTable(
		fmt.Sprintf("Figure 14(c) — accelerating objects, %d×%d pairs, S=10 (build %s)",
			s.MovingN, s.MovingN, build.total),
		"t(min)", "baseline", "planar", "pairs")
	ref := func(t float64) int { return len(moving.Baseline(space, t, intersectionDist)) }
	for _, t := range movingTimes {
		name := fmt.Sprintf("t%g/", t)
		base, err := s.measure(name+"baseline", 1, pairScan(t, ref))
		if err != nil {
			return err
		}
		planar, err := s.measure(name+"planar", 1, at(join, t, func(j *moving.Join, t float64) (int, error) {
			pairs, _, err := j.AtPairs(t, intersectionDist)
			return len(pairs), err
		}, ref))
		if err != nil {
			return err
		}
		out.AddRow(t, base.total, planar.total, base.answers)
	}
	return s.print(out.String())
}
