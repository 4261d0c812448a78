// Command benchmark is the repository's bench of record: it builds a
// store per workload, drives it in-process through the HTTP handler,
// checks every answer against a brute-force oracle, and prints each
// metric by name with its unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	cfg := defaultConfig()
	var (
		trace     = flag.Int("trace", 0, "1 runs the traced run that yields the per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of -k runs of every workload and compare their medians with the bounds")
		k         = flag.Int("k", 3, "runs per set for -selfcheck")
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run in this process; empty runs each workload in a child process")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "seconds of timed rounds")
	flag.Parse()
	cfg.trace = *trace != 0

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(cfg, *k)
	case cfg.workload == "":
		err = runAll(cfg)
	default:
		err = runOne(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its result
// object as the last line.
func runOne(cfg config) error {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	run := runE2E
	if cfg.trace {
		run = runTraced
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errFailed
	}
	return nil
}
