#!/bin/sh
# bench2json.sh — parse `go test -bench -benchmem` output on stdin into a
# JSON array of {name, iterations, ns_per_op, bytes_per_op, allocs_per_op,
# gomaxprocs, num_cpu}. Lines that are not benchmark results (headers,
# PASS, ok) are ignored. Used by `make bench` to write BENCH_core.json.
#
# gomaxprocs comes from the -N suffix `go test` appends to every result
# name when GOMAXPROCS > 1; it is 1 when the names carry no common suffix.
# The suffix is stripped from the recorded name, so a row keeps its name
# across hosts. num_cpu is the host's online CPU count at recording time.
#
# A failed run (a FAIL line in the output, or no benchmark results at
# all) exits 1 and echoes the raw input to stderr, so callers never
# mistake a broken bench run for an empty result set.

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
cat > "$tmp"

if grep -q '^FAIL' "$tmp"; then
	echo "bench2json: benchmark run FAILED:" >&2
	cat "$tmp" >&2
	exit 1
fi
if ! grep -q '^Benchmark' "$tmp"; then
	echo "bench2json: no benchmark results in input:" >&2
	cat "$tmp" >&2
	exit 1
fi

num_cpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"

awk -v num_cpu="$num_cpu" '
/^Benchmark/ {
	ns = ""; bytes = ""; allocs = ""
	for (i = 3; i < NF; i++) {
		if ($(i+1) == "ns/op") ns = $i
		if ($(i+1) == "B/op") bytes = $i
		if ($(i+1) == "allocs/op") allocs = $i
	}
	if (ns == "") next
	n++
	name[n] = $1; iters[n] = $2; nsop[n] = ns; bop[n] = bytes; aop[n] = allocs
	suffix = ""
	if (match($1, /-[0-9]+$/)) suffix = substr($1, RSTART + 1)
	if (n == 1) common = suffix
	else if (suffix != common) common = ""
}
END {
	gmp = (common == "") ? 1 : common
	print "["
	for (k = 1; k <= n; k++) {
		nm = name[k]
		if (common != "") nm = substr(nm, 1, length(nm) - length(common) - 1)
		printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", nm, iters[k], nsop[k]
		if (bop[k] != "") printf ", \"bytes_per_op\": %s", bop[k]
		if (aop[k] != "") printf ", \"allocs_per_op\": %s", aop[k]
		printf ", \"gomaxprocs\": %s, \"num_cpu\": %s}", gmp, num_cpu
		printf (k < n) ? ",\n" : "\n"
	}
	print "]"
}
' < "$tmp"
