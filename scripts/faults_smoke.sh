#!/bin/sh
# faults_smoke.sh — end-to-end smoke test of the fault-injection layer:
# run a short scenario under a canned fault profile with -manifest, then
# assert the manifest carries the fault-injection and quarantine counters
# (manifestcheck -faults) plus flight-recorder events (-events), and that
# the flight recorder evicted nothing: injections and retries are
# counted, not logged, so a faulted run's events fit the ring. Used by
# `make faults-smoke` / `make check`.
set -e
cd "$(dirname "$0")/.."

m="$(mktemp /tmp/fenrir-faults-manifest.XXXXXX.json)"
trap 'rm -f "$m"' EXIT

go run ./cmd/fenrir -scenario wikipedia -faults light -faultseed 7 -manifest "$m" > /dev/null
go run ./scripts/manifestcheck -faults -events "$m"
evicted="$(sed -n 's/.*"fenrir_flight_events_evicted_total": *\([0-9]*\).*/\1/p' "$m")"
if [ "$evicted" != "0" ]; then
	echo "faults-smoke: flight recorder evicted ${evicted:-an unknown number of} events" >&2
	exit 1
fi
echo "faults-smoke: ok"
