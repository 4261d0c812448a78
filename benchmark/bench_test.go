package main

import (
	"io"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

// smokeConfig is the benchmark at a size that runs in well under a
// second per workload. With zero seconds a phase runs exactly minRounds
// rounds, so the work done, and every count taken of it, repeats; five
// rounds reach every workload's first checkpoint.
func smokeConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seconds, cfg.scratch = workload, 0, t.TempDir()
	cfg.points, cfg.setups, cfg.steadyWrites, cfg.minRounds = 2000, 1, 200, 5
	cfg.tailWrites, cfg.crashes, cfg.durableCrashes, cfg.crashWrites = 50, 1, 1, 5
	return cfg
}

func loadTestSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	spec := loadTestSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
}

// checkMetrics asserts that res holds exactly the metrics want names,
// each with its unit and a finite value.
func checkMetrics(t *testing.T, what string, res result, want []metricSpec) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !name.MatchString(m.Name):
			t.Errorf("%s: bad metric name %q", what, m.Name)
		case !ok:
			t.Errorf("%s: metric %s not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s is %v", what, m.Name, got.Value)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v, %d failed of %d attempted", what, res.Correct, res.Failed, res.Attempted)
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range workloads {
		cfg := smokeConfig(t, w.name)
		e2e, err := runE2E(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkMetrics(t, w.name, e2e, spec.EndToEnd)
		for _, m := range spec.EndToEnd {
			if e2e.Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
			}
		}
		traced, err := runTraced(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkMetrics(t, w.name+" traced", traced, spec.PerLayer)

	}
}

// Counts of fixed work repeat exactly from run to run.
func TestCountsRepeat(t *testing.T) {
	cfg := smokeConfig(t, "churn")
	var disk, walBytes [2]float64
	for i := range disk {
		e2e, err := runE2E(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := runTraced(cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		disk[i] = e2e.Metrics["disk_bytes_per_point"].Value
		walBytes[i] = traced.Metrics["wal.bytes_per_write"].Value
	}
	if disk[0] != disk[1] || disk[0] == 0 {
		t.Errorf("disk_bytes_per_point was %v, then %v", disk[0], disk[1])
	}
	if walBytes[0] != walBytes[1] || walBytes[0] == 0 {
		t.Errorf("wal.bytes_per_write was %v, then %v", walBytes[0], walBytes[1])
	}
}

func TestQuietRounds(t *testing.T) {
	// Twenty rounds: the box is at full speed (10 µs medians, ± 2 %) in
	// rounds 0-4 and 12-14, a third slower in between and after.
	scores := make([]float64, 20)
	for i := range scores {
		scores[i] = 13 + 0.1*float64(i%3)
	}
	fast := []int{0, 1, 2, 3, 4, 12, 13, 14}
	for j, i := range fast {
		scores[i] = 10 + 0.05*float64(j%4)
	}
	got := quietRounds(scores)
	if len(got) != len(fast) {
		t.Fatalf("quiet rounds %v, want %v", got, fast)
	}
	for j, i := range fast {
		if got[j] != i {
			t.Fatalf("quiet rounds %v, want %v", got, fast)
		}
	}
	// A run at one speed throughout keeps every round.
	for i := range scores {
		scores[i] = 10 + 0.03*float64(i%5)
	}
	if got := quietRounds(scores); len(got) != len(scores) {
		t.Errorf("steady run: %d of %d rounds quiet", len(got), len(scores))
	}
	if got := quietRounds(nil); got != nil {
		t.Errorf("no rounds: %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestShadowMirrorsStoreIDs(t *testing.T) {
	ds := genDataset(1, 8, 2, 1)
	sh := newShadow(ds)
	sh.remove(3)
	sh.remove(5)
	if id := sh.append([]float64{.1, .2}); id != 5 {
		t.Errorf("first reuse got id %d, want the last freed, 5", id)
	}
	if id := sh.append([]float64{.1, .2}); id != 3 {
		t.Errorf("second reuse got id %d, want 3", id)
	}
	if id := sh.append([]float64{.1, .2}); id != 8 {
		t.Errorf("append past the free list got id %d, want 8", id)
	}
	mark := make([]uint8, 16)
	if !sameIDs([]uint32{2, 0, 1}, []uint32{0, 1, 2}, mark) || sameIDs([]uint32{0, 0, 1}, []uint32{0, 1, 2}, mark) {
		t.Error("sameIDs must compare as sets and reject duplicates")
	}
}
