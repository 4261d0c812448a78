// Command planarbench regenerates the tables and figures of the
// paper's evaluation (Section 7). Each experiment prints a
// plain-text table whose rows correspond to the paper's plotted
// series.
//
// Usage:
//
//	planarbench -list
//	planarbench -exp fig7                 # one experiment, laptop scale
//	planarbench -exp all -paper           # everything at paper scale
//	planarbench -exp fig14a -moving 2000  # override workload sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"planar/internal/experiments"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id to run, or \"all\"")
		list    = flag.Bool("list", false, "list available experiments")
		paper   = flag.Bool("paper", false, "use the paper's full-scale configuration")
		points  = flag.Int("points", 0, "override synthetic dataset cardinality")
		real    = flag.Int("realpoints", 0, "override simulated real-world dataset cardinality")
		queries = flag.Int("queries", 0, "override queries averaged per measurement")
		movingN = flag.Int("moving", 0, "override moving objects per set")
		seed    = flag.Int64("seed", 0, "override random seed")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "planarbench: -exp is required (try -list)")
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	if *paper {
		cfg = experiments.PaperConfig()
	}
	if *points > 0 {
		cfg.Points = *points
	}
	if *real > 0 {
		cfg.RealPoints = *real
	}
	if *queries > 0 {
		cfg.Queries = *queries
	}
	if *movingN > 0 {
		cfg.MovingN = *movingN
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	exps := experiments.All()
	if *expID != "all" {
		e, ok := experiments.Find(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "planarbench: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		exps = []experiments.Experiment{e}
	}
	for _, e := range exps {
		fmt.Printf("== %s — %s\n", e.ID, e.Title)
		start := time.Now()
		if err := experiments.Run(e.ID, cfg, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "planarbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("(completed in %s)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
