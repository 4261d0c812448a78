//go:build race

package httpapi

// raceEnabled reports whether the race detector is instrumenting this
// build. Under -race, sync.Pool bypasses its per-P caches, so
// allocation-count assertions are meaningless and are skipped.
const raceEnabled = true
