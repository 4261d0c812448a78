GO ?= go

.PHONY: all build test vet lint lint-strict race race-shard race-pager replica-integration page-integration ingest-integration bench-smoke planarbench-smoke bench-record-smoke emit-layout fuzz ci clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# benchmark/ is a nested module, invisible to ./... at the root. The
# arm64 lines compile, without running, the file set of an
# architecture with no assembly, so the Go fallbacks keep building;
# the plain vet's asmdecl checks the amd64 assembly's frame offsets.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	(cd benchmark && $(GO) vet ./...)

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
	$(GO) test -race -run 'TestStress|TestSharded' ./internal/service

# The pager and paged-btree suites under the race detector: the pin
# discipline, shard-locked cache, and paged-mode tree operations that
# the pinrelease/guardedby analyzers reason about statically get their
# dynamic counterpart here, with the executor's chunked walk over a
# paged tree whose cache is smaller than the accepted interval, the
# background writeback interleaved with foreground tree ops, and
# indexes widening their translation on paged trees.
race-pager:
	$(GO) test -race ./internal/pager
	$(GO) test -race -run 'TestPaged|TestWriteback|TestWiden' ./internal/btree ./internal/exec ./internal/core

# A fast benchmark smoke: one pass over the cells of one paper figure
# (Figure 14(c), a few ms each), a handful of iterations of the
# pipeline and planner benchmarks, of the engine's COUNT and top-k legs, of the
# intermediate interval's by-id kernel against its Go loop, gather +
# filter and a contiguous filter, of the reply's id writer against its
# table loop alone and the strconv loop, of a select-shaped query served through the HTTP
# handler in-process, of paged-tree Inserts racing a writeback loop,
# of an Append that widens the translation beside an in-range one, of
# closed-loop writers acked through group commit (ack-p50-µs is one
# fsync plus the batch ahead, not a batch-fill wait), and of the
# snapshot layout's save, load and restore at 100 000 points, just to
# prove they still compile and run.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkPaper/fig14c/' -benchtime 1x .
	$(GO) test -run xxx -bench 'BenchmarkPlan$$|BenchmarkPipelineOverhead' -benchtime 10x .
	$(GO) test -run xxx -bench 'BenchmarkExecHotPath' -benchtime 10x ./internal/exec
	$(GO) test -run xxx -bench 'BenchmarkFilterIDsLE' -benchtime 10x ./internal/kernel
	$(GO) test -run xxx -bench 'BenchmarkAppendIDs|BenchmarkServeQuery' -benchtime 10x ./internal/httpapi
	$(GO) test -run xxx -bench 'BenchmarkWritebackConcurrentInsert' -benchtime 10x ./internal/btree
	$(GO) test -run xxx -bench 'BenchmarkAppendOutsideTranslation' -benchtime 10x ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkGroupCommitClosedLoop' -benchtime 10x ./internal/service
	$(GO) test -run xxx -bench 'BenchmarkSnapshotRecover' -benchtime 1x ./internal/codec

# End-to-end replication under the race detector: in-process
# primary+replica over real HTTP — bootstrap, catch-up identity,
# mid-stream disconnect/resume, too-old re-bootstrap, promote, proxy.
replica-integration:
	$(GO) test -race ./internal/replica ./internal/replog

# End-to-end paged storage under the race detector: the kill-and-
# reopen service e2e (golden identity vs the all-RAM store with the
# page cache smaller than the dataset, WAL replay bounded by the
# checkpoint LSN) plus the pager, codec, and paged-btree suites —
# crash recovery at every byte offset, cache eviction, COW flushes,
# trees adopted onto their pages at a fresh store's first checkpoint.
# The repeated codec line races readers, the writeback loop and the
# Index accessors against checkpoints: the Multi's lock is the only
# lock an index has, and this is the dynamic proof that it suffices.
# The repeated service line races checkpoints, whose writeback drain
# runs outside the partition lock, against Close: a checkpoint either
# commits or is refused with ErrClosed, never writes to a closed file.
page-integration:
	$(GO) test -race ./internal/pager ./internal/codec
	$(GO) test -race -run 'TestPaged|TestWriteback|TestWiden' ./internal/service ./internal/btree ./internal/exec ./internal/core
	$(GO) test -race -count 20 -run 'TestPagedFirstCheckpointAdoptsTrees|TestPagedCheckpointRacesReadersAndWriteback' ./internal/codec
	$(GO) test -race -count 20 -run TestCheckpointRacesClose ./internal/service

# End-to-end group commit under the race detector: the grouped-vs-
# sync golden identity (byte-identical snapshots, WAL batch-frame
# replay, replica tailing), torn-batch recovery at every byte offset,
# concurrent-writer stress, and shutdown drain. The repeated ingest
# line races producers in both backpressure modes against Close: no
# send may hit a closed queue, and the drain commits exactly the
# accepted intents.
ingest-integration:
	$(GO) test -race ./internal/ingest
	$(GO) test -race -count 20 -run TestCloseRacesSubmit ./internal/ingest
	$(GO) test -race -run 'TestGrouped|TestReplicaTailsGrouped|TestIngest' ./internal/service
	$(GO) test -race -run 'TestAppendBatch|TestTornBatch|TestDecodeRecordRejectsBatch' ./internal/wal
	$(GO) test -race -run 'TestCommitBatch' ./internal/replog

# The paper-figure binary still runs: the experiment list, and every
# experiment at the unit tests' tiny configuration (a few seconds),
# each planar answer checked against its baseline.
planarbench-smoke:
	$(GO) run ./cmd/planarbench -list
	$(GO) run ./cmd/planarbench -exp all -points 2000 -realpoints 1500 -queries 5 -moving 60

# The bench of record (benchmark/, BENCHMARK.json) is a nested module,
# invisible to `go test ./...` at the root: its own smoke test — every
# workload at N = 2000, traced and untraced — is the proof that it
# still builds and runs against the tree.
bench-record-smoke:
	(cd benchmark && $(GO) test ./...)

# The emit workload's code-layout lottery: where the reply's id writer
# sits in the bench of record's binary, and that address mod 64 (its
# offset in a cache line). The writer is two symbols: appendIDsOn
# (appendIDs inlines to it), whose table loop writes a reply's last 0–3
# ids and every id off AVX2, and writeIDsAVX2.abi0, the assembly body
# that holds the hot loop on AVX2. emit's ids are all below 10⁷, so
# every group of that loop takes the body's compact path: two 16-byte
# stores per four ids, packed by a shuffle from the idPairs table
# (data, whose place is not part of the lottery); its time is now
# mostly the digit split, not the stores. Report both on both sides of
# a change that moves emit, writeIDsAVX2.abi0 first; `bash
# benchmark/run.sh` builds the binary it reads.
EMIT_BIN := .bench_build/planar-benchmark/bench
EMIT_SYMS := planar/internal/httpapi.appendIDsOn planar/internal/httpapi.writeIDsAVX2.abi0
emit-layout:
	@if [ ! -f $(EMIT_BIN) ]; then \
		echo "emit-layout: no $(EMIT_BIN); run bash benchmark/run.sh first" >&2; exit 1; fi
	@syms=$$($(GO) tool nm $(EMIT_BIN)); \
	for sym in $(EMIT_SYMS); do \
		addr=$$(echo "$$syms" | awk -v s=$$sym '$$3 == s { print $$1 }'); \
		if [ -z "$$addr" ]; then \
			echo "emit-layout: $$sym not in $(EMIT_BIN)" >&2; exit 1; fi; \
		echo "$$sym 0x$$addr mod 64 = $$((0x$$addr % 64))"; \
	done

# Every fuzz target in turn for FUZZTIME each, printing each one's last
# progress line and its execs/s over the whole run (the line's own
# rate covers only its last few seconds). Minimizing a new input stops
# every worker for up to -fuzzminimizetime, a minute by default, so
# without the 5s cap a run mostly waits. A failing target prints its
# whole output and stops the run; go test saves the failing input in
# the package's testdata/fuzz. go test fuzzes one target per run.
FUZZTIME ?= 30s
FUZZ_TARGETS := FuzzAppendIDs:./internal/httpapi FuzzWireDecode:./internal/httpapi \
	FuzzFilterIDsLE:./internal/kernel FuzzTreeVsModel:./internal/btree \
	FuzzPageCodec:./internal/btree FuzzRead:./internal/codec FuzzParse:./internal/sqlfunc
fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t#*:}; \
		out=$$($(GO) test -run xxx -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) -fuzzminimizetime 5s $$pkg 2>&1) || \
			{ echo "$$out"; exit 1; }; \
		echo "$$out" | grep 'execs:' | tail -1 | awk -v name=$$name '{ \
			t = $$3; s = 0; if (t ~ /m/) { split(t, p, "m"); s = 60 * p[1]; t = p[2] } \
			s += t + 0; n = $$5 + 0; \
			printf "%s: %s; %d execs/s over the run\n", name, $$0, s ? n / s : 0 }'; \
	done

# race runs every package under the detector once; race-shard,
# race-pager, replica-integration, page-integration and
# ingest-integration are named subsets of it for working on one
# subsystem, not further steps.
ci: vet lint build race bench-smoke planarbench-smoke bench-record-smoke
	$(MAKE) fuzz FUZZTIME=5s

clean:
	$(GO) clean ./...
