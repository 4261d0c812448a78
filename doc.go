// Package planar is a Go reproduction of "Towards Indexing
// Functions: Answering Scalar Product Queries" (Khan, Yanki,
// Dimcheva, Kossmann — SIGMOD 2014).
//
// The implementation lives under internal/: the planar index itself
// in internal/core, its substrates (B+ tree, vector math, top-k
// buffer) and the paper's applications (complex SQL functions,
// moving-object intersection, active learning) in sibling packages.
// Executables are under cmd/ and runnable examples under examples/.
// The paper's evaluation is reproduced by internal/experiments, which
// cmd/planarbench prints as tables and BenchmarkPaper in bench_test.go
// next to this file runs as benchmarks.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results.
package planar

// Version identifies this reproduction's release.
const Version = "1.0.0"
