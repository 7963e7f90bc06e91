#!/bin/sh
# benchpin.sh KEY OPS — copy the BENCH_core.json rows on stdin (the
# output of bench2json.sh) to stdout, with row KEY's bytes_per_op and
# allocs_per_op set to the most that any result line of BenchmarkKEY in
# OPS, a `go test -bench -benchmem` output file, read.
#
# `make bench` pins the MonitorModeRead row this way to seven one-op
# runs at -cpu 1: that one op is what benchguard's allocation and bytes
# guards for the row measure, while the row's own many-op 2-P run
# averages in the ops that missed the pooled distance triangle. KEY must
# have a row on stdin and at least one result line in OPS, or it exits 1.

set -eu

key="$1"
ops="$2"

max="$(awk -v key="Benchmark$key" '
	$1 == key || index($1, key "-") == 1 {
		for (i = 3; i < NF; i++) {
			if ($(i+1) == "B/op" && (b == "" || $i + 0 > b + 0)) b = $i
			if ($(i+1) == "allocs/op" && (a == "" || $i + 0 > a + 0)) a = $i
		}
	}
	END { if (b != "" && a != "") print b, a }
' "$ops")"
if [ -z "$max" ]; then
	echo "benchpin: no Benchmark$key result with -benchmem columns in $ops:" >&2
	cat "$ops" >&2
	exit 1
fi

awk -v key="\"Benchmark$key\"" -v max="$max" '
	BEGIN { split(max, m, " ") }
	index($0, "\"name\": " key ",") {
		sub(/"bytes_per_op": [0-9.]+/, "\"bytes_per_op\": " m[1])
		sub(/"allocs_per_op": [0-9.]+/, "\"allocs_per_op\": " m[2])
		found = 1
	}
	{ print }
	END {
		if (!found) {
			print "benchpin: no " key " row on stdin" > "/dev/stderr"
			exit 1
		}
	}
'
