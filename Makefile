# Build, test, and benchmark entry points. `make test` is the tier-1
# gate (vet and gofmt, then the full test suite, whose
# TestLifecycleMatchesModel checks the daemon's create, ingest,
# checkpoint, drain, crash and restart interleavings against a model);
# `make race` runs the analysis core, the fault layer, the
# instrumentation layer (registry, trace and flight rings, telemetry
# history) and the serve/snapshot layer under the race detector;
# `make bench` records the core perf trajectory to BENCH_core.json;
# `make check` adds per-package coverage plus the observability,
# fault-injection, tracing, provenance, self-observation, and fuzz smoke
# tests on top of test + race.

GO ?= go

.PHONY: all build vet test race bench benchguard cover obs-smoke faults-smoke trace-smoke explain-smoke history-smoke fuzz-smoke serve-load check clean

all: build test

build:
	$(GO) build ./...

# vet also fails when any tracked Go file is not gofmt-clean.
vet:
	$(GO) vet ./...
	@unformatted=$$(git ls-files '*.go' | xargs gofmt -l); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l reports:" >&2; echo "$$unformatted" >&2; exit 1; fi

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/... ./internal/faults/... ./internal/obs/... ./internal/serve/... ./internal/snapshot/...

# The perf-critical benches: the packed similarity engine sweep (serial
# vs auto, plus the large-alphabet row), §2.4 interpolation on the same
# large-alphabet series, the fixed-depth windowed append, the /mode read
# that re-clusters that window, the /events read that replays detection
# over it (plain and explained), batch change detection with every
# event explained on the large-alphabet series, the W=1024 checkpoint
# save, the incremental threshold sweep, the end-to-end Analyze
# pipeline, and a default B-Root run and a 4-minute G-Root run, whose
# wall time is almost all the observe stage. Output is
# parsed into BENCH_core.json, each row with the GOMAXPROCS and CPU
# count it ran with; a failing bench run aborts loudly instead of
# writing an empty file. benchguard guards the plain events row, the
# batch detection row, the checkpoint row and the two scenario rows by
# allocations, not time: their allocation counts repeat, while their
# times spread wider than its 15% margin (a scenario op is one run of a
# few seconds, and repeated runs spread by about 1.2x; a checkpoint is
# fsync-bound). The /mode read row is guarded both ways; its guards read
# one op at -cpu 1, so its bytes_per_op and allocs_per_op are the most
# that seven such ops read (scripts/benchpin.sh), not its many-op 2-P
# run's averages.
bench:
	@$(GO) test -run '^$$' -bench 'SimilarityMatrix|Interpolate|ClusterAdaptiveIncremental|MonitorAppendHot|MonitorModeRead|MonitorEvents|Checkpoint|DetectChanges|AnalyzePipeline|ScenarioBRoot|ScenarioGRoot' -benchmem . > bench.out 2>&1 \
		|| { cat bench.out >&2; rm -f bench.out; exit 1; }
	@$(GO) test -run '^$$' -bench '^BenchmarkMonitorModeRead$$' -benchtime 1x -benchmem -cpu 1 -count 7 . > bench1x.out 2>&1 \
		|| { cat bench1x.out >&2; rm -f bench.out bench1x.out; exit 1; }
	@./scripts/bench2json.sh < bench.out > bench.json \
		|| { rm -f bench.out bench1x.out bench.json; exit 1; }
	@./scripts/benchpin.sh MonitorModeRead bench1x.out < bench.json > BENCH_core.json.tmp \
		|| { rm -f bench.out bench1x.out bench.json BENCH_core.json.tmp; exit 1; }
	@mv BENCH_core.json.tmp BENCH_core.json
	@rm -f bench.out bench1x.out bench.json
	@cat BENCH_core.json

# Perf regression gate: fail if the serial T=1024 similarity row, the
# large-alphabet similarity row, the windowed append row or the mode
# read row runs >15% slower than its committed BENCH_core.json
# baseline, if one op of the mode read row, the plain events read
# row, the checkpoint row, the batch detection row or the B-Root or
# G-Root scenario row allocates >1% more than its baseline, or if one
# op of the mode read row allocates >50% more bytes than its baseline
# (the mode read's guards run at -cpu 1; see scripts/benchguard.sh).
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

# End-to-end self-observation check: a windowed, checkpointing daemon
# with fast history sampling and a seeded tight burn-rate rule;
# malformed ingest fires the alert, clean traffic resolves it, /v1/query
# serves windowed functions, and the shutdown manifest carries the serve
# metrics, flight-recorder events and the alerts block.
history-smoke:
	./scripts/history_smoke.sh

# Fuzz smoke: every fuzz target for 5s on two workers, one `go test
# -fuzz` call per target since the flag accepts a single target. A
# crasher is written under the package's testdata/fuzz/ and fails the
# run. -fuzzminimizetime 0 turns off minimization of new corpus entries:
# with Go's default the workers spend most of a 5s budget shrinking
# interesting inputs instead of executing (FuzzDecodeSnapshot ran under
# a hundred execs). A crasher is still written and still fails the run;
# it is just not minimized.
FUZZ_TARGETS = \
	./internal/core:FuzzPackedGower \
	./internal/wire:FuzzUnmarshalIPv4 \
	./internal/wire:FuzzUnmarshalICMP \
	./internal/wire:FuzzUnmarshalDNS \
	./internal/wire:FuzzUnmarshalBGP \
	./internal/snapshot:FuzzDecodeSnapshot \
	./internal/serve:FuzzIngestBody \
	./internal/serve:FuzzTenantSpec

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 5s -fuzzminimizetime 0 -parallel 2 "$${t%%:*}"; \
	done

# Concurrent-load check (not part of `check`; slower): N writers + N
# contended writers + readers against a -race daemon build, then the
# release-build tenant-scale run and history A/B, which write throughput
# and admission-latency quantiles to BENCH_serve.json.
serve-load:
	./scripts/serve_load.sh

check: test race cover obs-smoke faults-smoke trace-smoke explain-smoke history-smoke fuzz-smoke benchguard

clean:
	rm -f BENCH_core.json BENCH_core.json.tmp bench.out bench1x.out bench.json cover.out
