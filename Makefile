# Build, test, and benchmark entry points. `make test` is the tier-1
# gate (vet + full test suite); `make race` runs the analysis core, the
# fault layer, the UDP server, and the serve/snapshot layer under the
# race detector; `make bench` records the core perf trajectory to
# BENCH_core.json; `make check` adds per-package coverage plus the
# observability, fault-injection, serve-and-checkpoint, and fuzz smoke
# tests on top of test + race.

GO ?= go

.PHONY: all build vet test race bench benchguard cover obs-smoke faults-smoke serve-smoke window-smoke shard-smoke trace-smoke explain-smoke history-smoke fuzz-smoke serve-load check clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/faults/... ./internal/udpserve/... ./internal/serve/... ./internal/snapshot/...

# The perf-critical benches: the packed similarity engine sweep (serial
# vs auto, plus the large-alphabet row), the fixed-depth windowed
# append, the incremental threshold sweep, and the end-to-end Analyze
# pipeline. Output is parsed into BENCH_core.json, each row with the
# GOMAXPROCS and CPU count it ran with; a failing bench run aborts
# loudly instead of writing an empty file.
bench:
	@$(GO) test -run '^$$' -bench 'SimilarityMatrix|ClusterAdaptiveIncremental|MonitorAppendHot|AnalyzePipeline' -benchmem . > bench.out 2>&1 \
		|| { cat bench.out >&2; rm -f bench.out; exit 1; }
	@./scripts/bench2json.sh < bench.out > BENCH_core.json.tmp \
		|| { rm -f bench.out BENCH_core.json.tmp; exit 1; }
	@mv BENCH_core.json.tmp BENCH_core.json
	@rm -f bench.out
	@cat BENCH_core.json

# Perf regression gate: fail if the serial T=1024 similarity row, the
# large-alphabet similarity row, or the windowed append row runs >15%
# slower than its committed BENCH_core.json baseline.
benchguard:
	./scripts/benchguard.sh

# Per-package coverage plus the total summary line.
cover:
	$(GO) test -coverprofile=cover.out ./...
	@$(GO) tool cover -func=cover.out | tail -1

# End-to-end observability check: run a scenario with -metrics/-manifest
# and assert the manifest names every pipeline stage.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end fault-injection check: run a scenario under a canned fault
# profile and assert the injection/quarantine counters land in the
# manifest.
faults-smoke:
	./scripts/faults_smoke.sh

# End-to-end serving check: kill a checkpointing daemon mid-stream,
# restart it from the snapshot dir, and assert the restored daemon's
# query output is byte-identical to an uninterrupted run.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end sliding-window check: kill a windowed checkpointing daemon
# mid-stream (evictions and live engine state in the snapshot), restart
# it, and assert the restored daemon's query output is byte-identical to
# an uninterrupted windowed run.
window-smoke:
	./scripts/window_smoke.sh

# End-to-end sharding check: a 4-shard daemon rebalances a tenant
# between shards mid-stream (the snapshot file physically moves between
# shard subdirectories), is hard-killed, restarts from the same state
# dir, and must answer all five deterministic query endpoints
# byte-identically to an uninterrupted 4-shard daemon that never
# rebalanced.
shard-smoke:
	./scripts/shard_smoke.sh

# End-to-end tracing check: run a scenario twice with -trace and assert
# both outputs are valid Chrome trace JSON with tile/sweep/ingest spans
# nested under the run root, and that the canonical trees (timestamps
# stripped) are identical across same-seed runs.
trace-smoke:
	./scripts/trace_smoke.sh

# End-to-end provenance check: run the groot scenario (which drains the
# STR site) with -explain and assert every change event carries a
# verdict, the first drain's top flow names STR, and the repeated drain
# is labeled a recurrence of the earlier drained mode.
explain-smoke:
	./scripts/explain_smoke.sh

# End-to-end self-observation check: a daemon with fast history sampling
# and a seeded tight burn-rate rule; malformed ingest fires the alert,
# clean traffic resolves it, /v1/query serves windowed functions, and
# the shutdown manifest carries the alerts block.
history-smoke:
	./scripts/history_smoke.sh

# Fuzz smoke: every fuzz target for 5s on two workers, one `go test
# -fuzz` call per target since the flag accepts a single target. A
# crasher is written under the package's testdata/fuzz/ and fails the
# run.
FUZZ_TARGETS = \
	./internal/core:FuzzPackedGower \
	./internal/wire:FuzzUnmarshalIPv4 \
	./internal/wire:FuzzUnmarshalICMP \
	./internal/wire:FuzzUnmarshalDNS \
	./internal/wire:FuzzUnmarshalBGP \
	./internal/wire:FuzzReadMRT \
	./internal/snapshot:FuzzDecodeSnapshot

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 5s -parallel 2 "$${t%%:*}"; \
	done

# Concurrent-load check (not part of `check`; slower): N writers + N
# contended writers + readers against a -race daemon build. Writes
# throughput and admission-latency quantiles to BENCH_serve.json.
serve-load:
	./scripts/serve_load.sh

check: test race cover obs-smoke faults-smoke serve-smoke window-smoke shard-smoke trace-smoke explain-smoke history-smoke fuzz-smoke benchguard

clean:
	rm -f BENCH_core.json BENCH_core.json.tmp bench.out cover.out
