GO ?= go

.PHONY: all build test vet lint lint-strict race race-shard race-pager replica-integration page-integration ingest-integration bench-smoke bench-shard-smoke bench-replica-smoke bench-hotpath-smoke bench-build-smoke bench-page-smoke bench-ingest-smoke bench-checkpoint-smoke bench-record-smoke ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet: formatting, module hygiene, the
# planarlint analyzer suite (see DESIGN.md §9), and — when the binary
# is installed — golangci-lint with the pinned .golangci.yml. The
# whole target must exit 0 on the tree; suppress deliberate
# violations with //nolint:<analyzer> // reason.
lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) mod tidy -diff
	$(GO) run ./cmd/planarlint ./...
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not installed; skipping (planarlint still ran)"; \
	fi

# The strict CI variant: same checks as lint, but a missing
# golangci-lint binary is a hard failure instead of a skip, and the
# planarlint analyzer count is recorded in the output so a CI log
# proves which suite version ran. Use on builders that are supposed
# to have the full toolchain; `make lint` remains the laptop target.
lint-strict:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	$(GO) mod tidy -diff
	@out=$$($(GO) run ./cmd/planarlint -json ./...) || { echo "$$out"; exit 1; }; \
		count=$$(echo "$$out" | grep -c '"name"'); \
		echo "planarlint: $$count analyzers, 0 findings"
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "lint-strict: golangci-lint not installed" >&2; exit 1; \
	fi

race:
	$(GO) test -race ./...

# The sharded-store stress suite under the race detector: concurrent
# Append/Update/Remove/query mixes against scatter-gather execution.
race-shard:
	$(GO) test -race -run 'TestStress|TestSharded' ./internal/shard ./internal/service

# The pager and paged-btree suites under the race detector: the pin
# discipline, shard-locked cache, and paged-mode tree operations that
# the pinrelease/guardedby analyzers reason about statically get their
# dynamic counterpart here, with the executor's chunked walk over a
# paged tree whose cache is smaller than the accepted interval.
race-pager:
	$(GO) test -race ./internal/pager
	$(GO) test -race -run 'TestPaged' ./internal/btree ./internal/exec

# A fast benchmark smoke: a handful of iterations of the pipeline and
# plan-cache benchmarks and of the reply's id writer against the
# strconv loop it replaced, just to prove they still compile and run.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPlanCache$$|BenchmarkPipelineOverhead' -benchtime 10x .
	$(GO) test -run xxx -bench 'BenchmarkAppendIDs' -benchtime 10x ./internal/httpapi

# A tiny run of the concurrent-client shard benchmark (no JSON
# report) to prove the -clients path still works.
bench-shard-smoke:
	$(GO) run ./cmd/planarbench -clients 2 -shards 2 -points 2000 -benchdur 200ms -benchout ""

# End-to-end replication under the race detector: in-process
# primary+replica over real HTTP — bootstrap, catch-up identity,
# mid-stream disconnect/resume, too-old re-bootstrap, promote, proxy.
replica-integration:
	$(GO) test -race ./internal/replica ./internal/replog

# End-to-end paged storage under the race detector: the kill-and-
# reopen service e2e (golden identity vs the all-RAM store with the
# page cache smaller than the dataset, WAL replay bounded by the
# checkpoint LSN) plus the pager, codec, and paged-btree suites —
# crash recovery at every byte offset, cache eviction, COW flushes.
page-integration:
	$(GO) test -race ./internal/pager ./internal/codec
	$(GO) test -race -run 'TestPaged' ./internal/service ./internal/btree ./internal/exec

# End-to-end group commit under the race detector: the grouped-vs-
# sync golden identity (byte-identical snapshots, WAL batch-frame
# replay, replica tailing), torn-batch recovery at every byte offset,
# concurrent-writer stress, and shutdown drain.
ingest-integration:
	$(GO) test -race ./internal/ingest
	$(GO) test -race -run 'TestGrouped|TestReplicaTailsGrouped|TestIngest' ./internal/service
	$(GO) test -race -run 'TestAppendBatch|TestTornBatch|TestDecodeRecordRejectsBatch' ./internal/wal
	$(GO) test -race -run 'TestCommitBatch' ./internal/replog

# A tiny run of the replica read scale-out benchmark (no JSON report)
# to prove the -replicas path still works.
bench-replica-smoke:
	$(GO) run ./cmd/planarbench -replicas 1 -points 2000 -benchdur 200ms -repout ""

# A tiny run of the batched-vs-treewalk verification benchmark (no
# JSON report) to prove the -mode hotpath path still works, including
# the II-selectivity calibration.
bench-hotpath-smoke:
	$(GO) run ./cmd/planarbench -mode hotpath -points 1500 -hotdur 50ms -hotout ""

# A tiny run of the arena-vs-pointer-tree index build benchmark (no
# JSON report) to prove the -mode build path still works.
bench-build-smoke:
	$(GO) run ./cmd/planarbench -mode build -points 20000 -buildout ""

# A tiny run of the disk-paged tier benchmark (no JSON report) to
# prove the -mode paged path still works: cold open vs snapshot
# rebuild plus the faulting regime with a floor-sized cache.
bench-page-smoke:
	$(GO) run ./cmd/planarbench -mode paged -points 5000 -queries 50 -pageout ""

# A tiny run of the group-commit write benchmark (no JSON report) to
# prove the -mode ingest path still works: sync vs grouped fsync
# amortisation with windowed writers.
bench-ingest-smoke:
	$(GO) run ./cmd/planarbench -mode ingest -writers 2 -window 4 -batch 8 -benchdur 200ms -ingestout ""

# A tiny run of the checkpoint benchmark (no JSON report) to prove
# the -mode checkpoint path still works: full-flush vs background
# writeback plus incremental checkpoints under localized churn.
bench-checkpoint-smoke:
	$(GO) run ./cmd/planarbench -mode checkpoint -points 5000 -rounds 3 -muts 500 -checkpointout ""

# The bench of record (benchmark/, BENCHMARK.json) is a nested module,
# invisible to `go test ./...` at the root: its own smoke test — every
# workload at N = 2000, traced and untraced — is the proof that it
# still builds and runs against the tree.
bench-record-smoke:
	(cd benchmark && $(GO) test ./...)

ci: vet lint build race race-shard race-pager replica-integration page-integration ingest-integration bench-smoke bench-shard-smoke bench-replica-smoke bench-hotpath-smoke bench-build-smoke bench-page-smoke bench-ingest-smoke bench-checkpoint-smoke bench-record-smoke

clean:
	$(GO) clean ./...
