#!/bin/sh
# benchguard.sh — perf regression gate for the headline core rows.
#
# Re-runs each guarded benchmark and compares the best (minimum) ns/op of
# a few repetitions against its committed baseline in BENCH_core.json.
# Fails if any fresh number is more than 15 percent slower —
# `make check` then refuses to pass a change that quietly gives back a
# speedup. Refresh the baselines with `make bench` after a deliberate
# perf change; a time row is best recorded as the median, over several
# runs alternating with the parent commit's, of the minimum this gate
# reads. Rows guarded by time, with the spread of that minimum over the
# seven alternating rounds their rows were last recorded from (2-core
# host; each row holds the median):
#
#   SimilarityMatrix/T=1024/P=1             serial packed Φ matrix, 8.4-11.0 ms
#   SimilarityMatrix/T=512/N=512/S=128/P=1  large site alphabet (7 planes), 5.5-8.0 ms
#   MonitorAppendHot                        windowed append at depth 1024, 59-86 µs
#   MonitorModeRead                         append plus /mode re-cluster at depth 1024, 4.5-6.3 ms
#
# A reading at the top of such a spread is more than 15% over the
# median, so on a loaded host these guards can fail with no code change
# behind them: rerun idle, alternating with the parent commit's test
# binary, to tell noise from a regression.
#
# Six rows are guarded by allocations. One op of each (-benchtime 1x)
# fails the gate when its allocs/op exceed the committed row's by more
# than 1%. Their allocation counts repeat from run to run, so this guard
# does not flake the way time does on a loaded host:
#
#   MonitorModeRead      also time-guarded above: 323-327 allocations at
#                        one op, and its row holds the most that op read
#                        over seven runs (327), which `make bench` sets
#                        through scripts/benchpin.sh, while its min-of-3
#                        time spread 4.5-6.3 ms over seven rounds on a
#                        2-core host (the parent commit's, alternating,
#                        4.1-7.1 ms; its op is 95% the re-cluster, which
#                        the last change to its row did not touch). Its
#                        re-cluster takes the distance triangle from a
#                        sync.Pool, whose item sits in one P's slot, so
#                        its allocation guards run at -cpu 1: at 2 Ps one
#                        warmed op in three missed the pool and read 333
#                        allocations and 4.48 MB. Its bytes are guarded
#                        too, at +50%, against that op's 291 KB (8 KB of
#                        it NN-chain's row-offset table): the op is the
#                        first eviction after the fill, later ops average
#                        about 250 KB, and a per-read triangle (4.19 MB)
#                        would be 14 times the row.
#   MonitorEvents/plain  /events replay at depth 1024: 27 allocations per
#                        read, every time, while its min-of-3 time spread
#                        0.071-0.104 ms over seven rounds; explaining
#                        every event again would cost thousands.
#   Checkpoint           SaveMonitor of the W=1024 state, a 5.25 MB file
#                        streamed through one fixed buffer: 19 allocations
#                        per save, where building each frame whole took
#                        1,153. Its time is fsync-bound and follows the
#                        disk, so it is not guarded.
#   DetectChanges        batch detection on the large-alphabet series, 54
#                        events, each explained: 836 allocations, so one
#                        allocation more per explanation is 6% more.
#   ScenarioBRoot        one op is one run of a few seconds, and six
#   ScenarioGRoot        consecutive runs on a 2-core host spread
#                        1.19-1.22x (max/min) in time, wider than the 15%
#                        time margin, while their allocation counts
#                        repeat to within 100 of 6.66 M and 26.8 M.
#
# The ns/op of the last five rows is not guarded.
#
# The minimum over -count runs is the standard noise filter: a loaded
# box can only make code look slower, never faster, so min-vs-baseline
# with a 15% margin keeps false alarms rare without masking real
# regressions.

set -eu

cd "$(dirname "$0")/.."

# The time margin is fixed here, not read from the environment, so the
# gate cannot be loosened from outside the script.
TIME_PCT=15
BASELINE="BENCH_core.json"

if [ ! -f "$BASELINE" ]; then
	echo "benchguard: $BASELINE not found — run 'make bench' and commit it" >&2
	exit 1
fi

# baseline KEY FIELD prints FIELD (ns_per_op or allocs_per_op) of the
# row named KEY (without the Benchmark prefix) in BENCH_core.json.
baseline() {
	awk -v key="\"Benchmark$1\"" -v field="\"$2\": [0-9.]+" '
		index($0, "\"name\": " key ",") {
			if (match($0, field)) {
				m = substr($0, RSTART, RLENGTH)
				sub(/.*: /, "", m)
				print m
				exit
			}
		}
	' "$BASELINE"
}

# guard KEY UNIT FIELD PCT ARGS...: run `go test -bench ARGS`, take the
# minimum of the UNIT column over its result lines, and fail when it
# exceeds the committed FIELD of row KEY by more than PCT percent.
guard() {
	key="$1"
	unit="$2"
	field="$3"
	pct="$4"
	shift 4
	base="$(baseline "$key" "$field")"
	if [ -z "$base" ]; then
		echo "benchguard: no '$key' $field in $BASELINE — run 'make bench' to refresh it" >&2
		return 1
	fi

	out="$(go test -run '^$' "$@" . 2>&1)" || {
		echo "$out" >&2
		echo "benchguard: benchmark run failed for '$key'" >&2
		return 1
	}

	fresh="$(echo "$out" | awk -v unit="$unit" '
		/^Benchmark/ {
			for (i = 2; i < NF; i++) if ($(i+1) == unit && (best == "" || $i + 0 < best + 0)) best = $i
		}
		END { print best }
	')"
	if [ -z "$fresh" ]; then
		echo "$out" >&2
		echo "benchguard: no benchmark results for '$key'" >&2
		return 1
	fi

	awk -v key="$key" -v unit="$unit" -v base="$base" -v fresh="$fresh" -v pct="$pct" '
	BEGIN {
		limit = base * (1 + pct / 100)
		printf "benchguard: %s baseline %.0f %s, fresh %.0f %s, limit +%s%% = %.0f %s\n",
			key, base, unit, fresh, unit, pct, limit, unit
		if (fresh > limit) {
			printf "benchguard: FAIL — %s regressed %.1f%% over baseline\n", key, (fresh / base - 1) * 100
			exit 1
		}
	}
	'
}

# time_guard KEY PATTERN guards a row's ns/op, the minimum of 3 runs;
# alloc_guard KEY PATTERN [ARGS...] guards the allocs/op of one op, at
# +1%, passing ARGS on to go test.
time_guard() { guard "$1" ns/op ns_per_op "$TIME_PCT" -bench "$2" -count=3; }
alloc_guard() {
	key="$1"
	pattern="$2"
	shift 2
	guard "$key" allocs/op allocs_per_op 1 -bench "$pattern" -benchtime 1x -benchmem "$@"
}

status=0
time_guard 'SimilarityMatrix/T=1024/P=1' '^BenchmarkSimilarityMatrix$/^T=1024$/^P=1$' || status=1
time_guard 'SimilarityMatrix/T=512/N=512/S=128/P=1' '^BenchmarkSimilarityMatrix$/^T=512$/^N=512$/^S=128$/^P=1$' || status=1
time_guard 'MonitorAppendHot' '^BenchmarkMonitorAppendHot$' || status=1
time_guard 'MonitorModeRead' '^BenchmarkMonitorModeRead$' || status=1
alloc_guard 'MonitorModeRead' '^BenchmarkMonitorModeRead$' -cpu 1 || status=1
guard 'MonitorModeRead' B/op bytes_per_op 50 -bench '^BenchmarkMonitorModeRead$' -benchtime 1x -benchmem -cpu 1 || status=1
alloc_guard 'MonitorEvents/plain' '^BenchmarkMonitorEvents$/^plain$' || status=1
alloc_guard 'Checkpoint' '^BenchmarkCheckpoint$' || status=1
alloc_guard 'DetectChanges' '^BenchmarkDetectChanges$' || status=1
alloc_guard 'ScenarioBRoot' '^BenchmarkScenarioBRoot$' || status=1
alloc_guard 'ScenarioGRoot' '^BenchmarkScenarioGRoot$' || status=1
if [ "$status" -ne 0 ]; then
	exit 1
fi
echo "benchguard: OK"
