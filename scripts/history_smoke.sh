#!/bin/sh
# history_smoke.sh — end-to-end smoke test of the daemon's
# self-observation surface (DESIGN.md §16). Runs a real daemon process
# (a default window of 16, a checkpoint every 5 observations)
# with fast history sampling and a seeded tight burn-rate SLO rule, then
# proves the full loop over the public API: malformed ingest trips the
# rule (visible at /v1/alerts), clean traffic resolves it, /v1/query
# serves windowed functions over at least two samples, /debug/timeline
# carries the sampled series, the tenant reports the -window bound,
# /status carries the pending backlog, an explicit checkpoint lands at
# <snapshot-dir>/<tenant>.fsnap, and the shutdown manifest carries the
# serve metrics, the flight-recorder events and the alerts block
# (manifestcheck -serve -events -alerts). The daemon lifecycle itself
# (checkpoint, drain, crash, restart) is checked in-process
# by TestLifecycleMatchesModel. Used by `make history-smoke` /
# `make check`.
set -e
cd "$(dirname "$0")/.."

work="$(mktemp -d /tmp/fenrir-history-smoke.XXXXXX)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

bin="$work/fenrir"
go build -o "$bin" ./cmd/fenrir

# The seeded rule is deliberately twitchy: a 2s fast window over a 90%
# objective, so a burst of rejects fires it within a few sampler ticks
# and a couple of seconds of clean traffic resolves it. The default
# production rules (5m/30m windows) ride along untouched.
rules="$work/rules.json"
cat >"$rules" <<'EOF'
[
  {
    "name": "smoke-slo",
    "type": "burn_rate",
    "error_metric": "fenrir_serve_ingest_rejected_total",
    "total_metric": "fenrir_serve_ingest_requests_total",
    "objective": 0.9,
    "factor": 2,
    "fast_range": "2s",
    "slow_range": "6s"
  }
]
EOF

wait_api() {
    i=0
    while [ $i -lt 200 ]; do
        url=$(sed -n 's!^fenrir: serving api \(http://[^ ]*\).*!\1!p' "$1" | head -1)
        if [ -n "$url" ]; then
            echo "$url"
            return 0
        fi
        sleep 0.05
        i=$((i + 1))
    done
    echo "history-smoke: daemon never announced its address" >&2
    cat "$1" >&2
    return 1
}

spec_json() {
    printf '{"networks":["n0","n1","n2","n3","n4","n5"],"start":"2026-01-01T00:00:00Z","interval_seconds":240,"epochs":4096}'
}

obs_json() {
    printf '{"epoch":%d,"sites":{"n0":"alpha","n1":"alpha","n2":"alpha","n3":"beta","n4":"beta","n5":"alpha"}}' "$1"
}

# req METHOD URL BODY EXPECTED_CODE LABEL
req() {
    code=$(curl -s -o "$work/last-response" -w '%{http_code}' -X "$1" -d "$3" "$2")
    if [ "$code" != "$4" ]; then
        echo "history-smoke: $5: got HTTP $code, want $4" >&2
        cat "$work/last-response" >&2
        exit 1
    fi
}

# rule_firing — true when the seeded rule reports firing at /v1/alerts.
# AlertStatus serializes name, type, firing in that order, so the
# rule's own firing flag is within two lines of its name.
rule_firing() {
    curl -s "$url/v1/alerts" | grep -A2 '"smoke-slo"' | grep -q '"firing": true'
}

manifest="$work/manifest.json"
"$bin" -serve 127.0.0.1:0 -snapshot-dir "$work/state" \
    -window 16 -snapshot-every 5 \
    -history-every 150ms -history-retain 256 -alert-rules "$rules" \
    -manifest "$manifest" 2>"$work/daemon.log" &
pid=$!
pids="$pids $pid"
url=$(wait_api "$work/daemon.log")

req PUT "$url/v1/tenants/smoke" "$(spec_json)" 201 "create tenant"

# Healthy baseline: a little clean traffic while the sampler ticks.
e=0
while [ $e -lt 5 ]; do
    req POST "$url/v1/tenants/smoke/observations" "$(obs_json $e)" 202 "baseline epoch $e"
    e=$((e + 1))
done
sleep 0.4
if rule_firing; then
    echo "history-smoke: smoke-slo firing on a healthy daemon" >&2
    curl -s "$url/v1/alerts" >&2
    exit 1
fi

# --- Incident: a burst of malformed posts pushes the reject ratio to
# ~100%; the burn-rate rule must fire within a few sampler ticks. ------
i=0
while [ $i -lt 30 ]; do
    req POST "$url/v1/tenants/smoke/observations" '{not json' 400 "malformed post $i"
    i=$((i + 1))
done
fired=no
i=0
while [ $i -lt 40 ]; do
    if rule_firing; then
        fired=yes
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$fired" != "yes" ]; then
    echo "history-smoke: smoke-slo never fired after 30 malformed posts" >&2
    curl -s "$url/v1/alerts" >&2
    exit 1
fi

# --- Recovery: clean traffic until the fast window forgets the spike
# and the rule resolves. -----------------------------------------------
resolved=no
i=0
while [ $i -lt 60 ]; do
    req POST "$url/v1/tenants/smoke/observations" "$(obs_json $e)" 202 "recovery epoch $e"
    e=$((e + 1))
    if ! rule_firing; then
        resolved=yes
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$resolved" != "yes" ]; then
    echo "history-smoke: smoke-slo never resolved under clean traffic" >&2
    curl -s "$url/v1/alerts" >&2
    exit 1
fi

# --- The query surface: windowed functions over the sampled rings. ----
curl -s "$url/v1/query?metric=fenrir_serve_ingest_total&fn=delta" >"$work/query.json"
samples=$(sed -n 's/.*"samples": \([0-9]*\).*/\1/p' "$work/query.json" | head -1)
if [ -z "$samples" ] || [ "$samples" -lt 2 ]; then
    echo "history-smoke: /v1/query returned ${samples:-no} samples, want >= 2" >&2
    cat "$work/query.json" >&2
    exit 1
fi
req GET "$url/v1/query?metric=fenrir_serve_ingest_total&fn=rate&range=5s" "" 200 "rate query"
if ! curl -s "$url/debug/timeline" | grep -q '"fenrir_serve_ingest_requests_total"'; then
    echo "history-smoke: /debug/timeline is missing the request counter series" >&2
    exit 1
fi

# --- The flags reached the process: the tenant inherits the -window
# bound, /status carries the pending backlog, and an explicit checkpoint
# lands in -snapshot-dir as <tenant>.fsnap. -----------------------------
flat=$(curl -s "$url/v1/tenants/smoke" | tr -d ' \n\t')
case "$flat" in
*'"window":16'[,}]*) ;;
*)
    echo "history-smoke: tenant status lacks \"window\": 16: $flat" >&2
    exit 1
    ;;
esac
if ! curl -s "$url/status" | grep -q '"pending": '; then
    echo "history-smoke: /status lacks \"pending\"" >&2
    curl -s "$url/status" >&2
    exit 1
fi
req POST "$url/v1/tenants/smoke/checkpoint" "" 200 "checkpoint"
if [ ! -f "$work/state/smoke.fsnap" ]; then
    echo "history-smoke: no checkpoint at state/smoke.fsnap after the explicit checkpoint" >&2
    ls -R "$work/state" >&2
    exit 1
fi

# --- Shutdown: the manifest must carry the serve metrics, the flight-
# recorder events and the alerts block. ---------------------------------
kill -TERM "$pid"
wait "$pid" 2>/dev/null || true

go run ./scripts/manifestcheck -serve -events -alerts "$manifest"
echo "history-smoke: ok — burn-rate alert fired and resolved; /v1/query served $samples samples"
