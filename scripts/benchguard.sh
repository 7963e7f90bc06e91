#!/bin/sh
# benchguard.sh — perf regression gate for the headline core rows.
#
# Re-runs each guarded benchmark and compares the best (minimum) ns/op of
# a few repetitions against its committed baseline in BENCH_core.json.
# Fails if any fresh number is more than GUARD_PCT percent slower —
# `make check` then refuses to pass a change that quietly gives back a
# speedup. Refresh the baselines with `make bench` after a deliberate
# perf change. Guarded rows:
#
#   SimilarityMatrix/T=1024/P=1             serial packed Φ matrix
#   SimilarityMatrix/T=512/N=512/S=128/P=1  large site alphabet (7 planes)
#   MonitorAppendHot                        windowed append at depth 1024
#   MonitorModeRead                         append plus /mode re-cluster at depth 1024
#
# BENCH_core.json's ScenarioBRoot and ScenarioGRoot rows are not guarded:
# one op is one run of a few seconds, and six consecutive runs on a
# 2-core host spread 1.19-1.22x (max/min), wider than the margin below.
# Their allocation counts are stable.
#
# The minimum over -count runs is the standard noise filter: a loaded
# box can only make code look slower, never faster, so min-vs-baseline
# with a 15% margin keeps false alarms rare without masking real
# regressions.

set -eu

cd "$(dirname "$0")/.."

GUARD_PCT="${GUARD_PCT:-15}"
BASELINE="BENCH_core.json"

if [ ! -f "$BASELINE" ]; then
	echo "benchguard: $BASELINE not found — run 'make bench' and commit it" >&2
	exit 1
fi

# guard KEY PATTERN: KEY is the row name in BENCH_core.json (without the
# Benchmark prefix), PATTERN the -bench expression selecting only it.
guard() {
	key="$1"
	pattern="$2"
	base_ns="$(awk -v key="\"Benchmark$key\"" '
		index($0, "\"name\": " key ",") {
			if (match($0, /"ns_per_op": [0-9.]+/)) {
				m = substr($0, RSTART, RLENGTH)
				sub(/.*: /, "", m)
				print m
				exit
			}
		}
	' "$BASELINE")"
	if [ -z "$base_ns" ]; then
		echo "benchguard: no '$key' entry in $BASELINE — run 'make bench' to refresh it" >&2
		return 1
	fi

	out="$(go test -run '^$' -bench "$pattern" -count=3 . 2>&1)" || {
		echo "$out" >&2
		echo "benchguard: benchmark run failed for '$key'" >&2
		return 1
	}

	fresh_ns="$(echo "$out" | awk '
		/^Benchmark/ {
			for (i = 2; i < NF; i++) if ($(i+1) == "ns/op" && (best == "" || $i + 0 < best + 0)) best = $i
		}
		END { print best }
	')"
	if [ -z "$fresh_ns" ]; then
		echo "$out" >&2
		echo "benchguard: no benchmark results for '$key'" >&2
		return 1
	fi

	awk -v key="$key" -v base="$base_ns" -v fresh="$fresh_ns" -v pct="$GUARD_PCT" '
	BEGIN {
		limit = base * (1 + pct / 100)
		printf "benchguard: %s baseline %.0f ns/op, fresh (min of 3) %.0f ns/op, limit +%s%% = %.0f ns/op\n",
			key, base, fresh, pct, limit
		if (fresh > limit) {
			printf "benchguard: FAIL — %s regressed %.1f%% over baseline\n", key, (fresh / base - 1) * 100
			exit 1
		}
	}
	'
}

status=0
guard 'SimilarityMatrix/T=1024/P=1' '^BenchmarkSimilarityMatrix$/^T=1024$/^P=1$' || status=1
guard 'SimilarityMatrix/T=512/N=512/S=128/P=1' '^BenchmarkSimilarityMatrix$/^T=512$/^N=512$/^S=128$/^P=1$' || status=1
guard 'MonitorAppendHot' '^BenchmarkMonitorAppendHot$' || status=1
guard 'MonitorModeRead' '^BenchmarkMonitorModeRead$' || status=1
if [ "$status" -ne 0 ]; then
	exit 1
fi
echo "benchguard: OK"
