// Command planarcli builds planar indexes over a CSV of numeric rows
// and answers scalar product queries against them.
//
// Usage:
//
//	planarcli -csv data.csv -header -domains "1:4,1:4,1:4" -budget 50 \
//	          -query "2,3,1 <= 150" -topk 5
//
// Queries are also read from stdin (one per line) when -query is
// absent. Query syntax: "a1,a2,... <= b" or "a1,a2,... >= b".
// A snapshot of the store and index configuration can be written
// with -save and reloaded with -load instead of -csv.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"planar/internal/codec"
	"planar/internal/core"
	"planar/internal/dataset"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "planarcli: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		csvPath = flag.String("csv", "", "CSV file of numeric rows to index")
		header  = flag.Bool("header", false, "CSV has a header row")
		domains = flag.String("domains", "", "per-axis coefficient domains, e.g. \"1:4,1:4,-2:-1\"")
		budget  = flag.Int("budget", 50, "planar index budget")
		seed    = flag.Int64("seed", 1, "sampling seed")
		query   = flag.String("query", "", "inline query \"a1,a2,... <= b\" (otherwise read stdin)")
		topK    = flag.Int("topk", 0, "also report the k nearest points to the query hyperplane")
		explain = flag.Bool("explain", false, "print the execution plan before answering each query")
		save    = flag.String("save", "", "write a snapshot after building")
		load    = flag.String("load", "", "load a snapshot instead of -csv")
		sel     = flag.String("select", "volume", "best-index heuristic: volume or angle")
	)
	flag.Parse()

	var m *core.Multi
	switch {
	case *load != "":
		snap, err := codec.Load(*load)
		if err != nil {
			return err
		}
		m, err = snap.Restore(selectionOption(*sel))
		if err != nil {
			return err
		}
		fmt.Printf("loaded snapshot: %d points, dim %d, %d indexes\n",
			m.Store().Len(), m.Store().Dim(), m.NumIndexes())
	case *csvPath != "":
		d, err := dataset.LoadCSV(*csvPath, *csvPath, *header)
		if err != nil {
			return err
		}
		store, err := d.Store()
		if err != nil {
			return err
		}
		m, err = core.NewMulti(store, selectionOption(*sel))
		if err != nil {
			return err
		}
		doms, err := parseDomains(*domains, d.Dim())
		if err != nil {
			return err
		}
		start := time.Now()
		added, err := m.SampleBudget(*budget, doms, rand.New(rand.NewSource(*seed)))
		if err != nil {
			return err
		}
		fmt.Printf("indexed %d points (dim %d) with %d planar indexes in %s\n",
			store.Len(), store.Dim(), added, time.Since(start).Round(time.Microsecond))
	default:
		return fmt.Errorf("either -csv or -load is required")
	}

	if *save != "" {
		if err := codec.Capture(m).Save(*save); err != nil {
			return err
		}
		fmt.Printf("snapshot written to %s\n", *save)
	}

	answer := func(line string) error {
		q, err := parseQuery(line, m.Store().Dim())
		if err != nil {
			return err
		}
		if *explain {
			plan, err := m.Explain(q)
			if err != nil {
				return err
			}
			fmt.Println(plan)
		}
		start := time.Now()
		ids, st, err := m.InequalityIDs(q)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		fmt.Printf("%d rows in %s (pruned %.1f%%, index %d, fellback=%v, plan %s, exec %s)\n",
			len(ids), elapsed.Round(time.Microsecond), 100*st.PruningFraction(),
			st.IndexUsed, st.FellBack,
			time.Duration(st.PlanNanos).Round(time.Microsecond),
			time.Duration(st.ExecNanos).Round(time.Microsecond))
		preview := ids
		if len(preview) > 20 {
			preview = preview[:20]
		}
		fmt.Printf("rows: %v", preview)
		if len(ids) > 20 {
			fmt.Printf(" … (%d more)", len(ids)-20)
		}
		fmt.Println()
		if *topK > 0 {
			res, _, err := m.TopK(q, *topK)
			if err != nil {
				return err
			}
			fmt.Printf("top-%d closest to the hyperplane:\n", *topK)
			for _, r := range res {
				fmt.Printf("  row %d  dist %.6g\n", r.ID, r.Distance)
			}
		}
		return nil
	}

	if *query != "" {
		return answer(*query)
	}
	fmt.Println("enter queries (\"a1,a2,... <= b\"), ctrl-D to quit:")
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := answer(line); err != nil {
			fmt.Fprintf(os.Stderr, "planarcli: %v\n", err)
		}
	}
	return sc.Err()
}

func selectionOption(name string) core.MultiOption {
	if name == "angle" {
		return core.WithSelection(core.SelectAngle)
	}
	return core.WithSelection(core.SelectVolume)
}

// parseDomains parses "lo:hi,lo:hi,...". An empty spec defaults every
// axis to [1, 10].
func parseDomains(spec string, dim int) ([]core.Domain, error) {
	out := make([]core.Domain, dim)
	if spec == "" {
		for i := range out {
			out[i] = core.Domain{Lo: 1, Hi: 10}
		}
		return out, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("domains spec has %d entries, data has %d columns", len(parts), dim)
	}
	for i, p := range parts {
		lohi := strings.SplitN(strings.TrimSpace(p), ":", 2)
		if len(lohi) != 2 {
			return nil, fmt.Errorf("domain %d: want lo:hi, got %q", i, p)
		}
		lo, err := strconv.ParseFloat(lohi[0], 64)
		if err != nil {
			return nil, fmt.Errorf("domain %d lo: %w", i, err)
		}
		hi, err := strconv.ParseFloat(lohi[1], 64)
		if err != nil {
			return nil, fmt.Errorf("domain %d hi: %w", i, err)
		}
		out[i] = core.Domain{Lo: lo, Hi: hi}
		if err := out[i].Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parseQuery parses "a1,a2,... <= b" or "... >= b".
func parseQuery(line string, dim int) (core.Query, error) {
	op := core.LE
	sep := "<="
	if strings.Contains(line, ">=") {
		op = core.GE
		sep = ">="
	} else if !strings.Contains(line, "<=") {
		return core.Query{}, fmt.Errorf("query %q needs <= or >=", line)
	}
	halves := strings.SplitN(line, sep, 2)
	b, err := strconv.ParseFloat(strings.TrimSpace(halves[1]), 64)
	if err != nil {
		return core.Query{}, fmt.Errorf("bad bound in %q: %w", line, err)
	}
	fields := strings.Split(strings.TrimSpace(halves[0]), ",")
	if len(fields) != dim {
		return core.Query{}, fmt.Errorf("query has %d coefficients, data has %d columns", len(fields), dim)
	}
	a := make([]float64, dim)
	for i, f := range fields {
		if a[i], err = strconv.ParseFloat(strings.TrimSpace(f), 64); err != nil {
			return core.Query{}, fmt.Errorf("bad coefficient %d in %q: %w", i, line, err)
		}
	}
	return core.NewQuery(a, b, op)
}
