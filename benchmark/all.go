package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// metricSpec and benchSpec mirror BENCHMARK.json, which fixes the
// metric names, their units and the bound by which each end-to-end
// metric may worsen.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// child runs one workload in a fresh process of this binary, so that
// one workload's heap and high-water mark never reach another's. It
// returns the run's result and the lines printed before it.
func child(cfg config, workload string, seed int64) (result, []string, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return res, nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if runErr != nil {
			return res, lines, fmt.Errorf("workload %s: %w", workload, runErr)
		}
		return res, lines, fmt.Errorf("workload %s printed no result: %w", workload, err)
	}
	return res, lines[:len(lines)-1], nil
}

// runAll runs every workload once and prints each metric by name.
func runAll(cfg config) error {
	failed := false
	for _, w := range workloads {
		res, lines, err := child(cfg, w.name, cfg.seed)
		for _, l := range lines {
			fmt.Println(l)
		}
		if err != nil {
			return err
		}
		failed = failed || !res.Correct
		fmt.Println()
	}
	if failed {
		return errFailed
	}
	return nil
}

// quartiles returns the first quartile, the median and the third
// quartile of xs as Python's statistics.quantiles(xs, n=4) does.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		j = min(max(j, 1), n-1)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	if n < 2 {
		return s[0], s[0], s[0]
	}
	return at(1), at(2), at(3)
}

// runSelfcheck is the A/A check: two sets of k runs of every workload
// on this one build, taken alternately, must agree on every end-to-end
// metric within the bound BENCHMARK.json gives it.
func runSelfcheck(cfg config, k int) error {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	type cell struct{ workload, metric string }
	sets := [2]map[cell][]float64{{}, {}}
	for i := 0; i < k; i++ {
		for j := 0; j < 2; j++ {
			set := (i + j) % 2 // alternate which set goes first
			for _, w := range workloads {
				res, lines, err := child(cfg, w.name, cfg.seed+int64(i))
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("workload %s: %w", w.name, errFailed)
				}
				for _, l := range lines {
					if strings.HasPrefix(l, "rounds:") {
						fmt.Printf("set %c run %d %-7s %s\n", 'A'+set, i+1, w.name, l)
					}
				}
				for name, m := range res.Metrics {
					c := cell{w.name, name}
					sets[set][c] = append(sets[set][c], m.Value)
				}
			}
		}
	}

	fmt.Printf("\n%-8s %-22s %14s %14s %8s %8s %8s\n", "workload", "metric", "median A", "median B", "differ", "bound", "spread")
	exceeded := 0
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			c := cell{w.name, m.Name}
			a, b := sets[0][c], sets[1][c]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("workload %s did not report %s", w.name, m.Name)
			}
			ma, mb := median(a), median(b)
			differ := math.Abs(ma-mb) / math.Min(ma, mb)
			q1, q2, q3 := quartiles(append(append([]float64(nil), a...), b...))
			verdict := ""
			if differ > m.Bound {
				verdict = "  EXCEEDS BOUND"
				exceeded++
			}
			fmt.Printf("%-8s %-22s %14.4f %14.4f %7.1f%% %7.1f%% %7.1f%%%s\n",
				w.name, m.Name, ma, mb, 100*differ, 100*m.Bound, 100*(q3-q1)/q2, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric x workload cells differ by more than their bound", exceeded)
	}
	return nil
}

var errFailed = errors.New("operations failed")
