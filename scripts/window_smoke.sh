#!/bin/sh
# window_smoke.sh — end-to-end smoke test of the sliding-window serving
# path. Same kill-and-restore discipline as serve_smoke.sh, but every
# tenant is windowed: the daemon evicts history as it ingests, the
# checkpoint carries the window bound and eviction count (the live mode
# engine re-clusters after a restore), and a daemon that is hard-killed
# mid-stream and restarted must answer every deterministic query
# byte-identically to a windowed daemon that ingested the same stream
# uninterrupted. Used by
# `make window-smoke` / `make check`.
set -e
cd "$(dirname "$0")/.."

WINDOW="${WINDOW:-16}"

work="$(mktemp -d /tmp/fenrir-window-smoke.XXXXXX)"
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$work"
}
trap cleanup EXIT

bin="$work/fenrir"
go build -o "$bin" ./cmd/fenrir

# wait_api LOGFILE — waits for the daemon to announce its address and
# prints the base URL.
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
    echo "window-smoke: daemon never announced its address" >&2
    cat "$1" >&2
    return 1
}

# obs_json EPOCH — one observation: 12 networks, an era flip at epoch
# 26 (inside the final window), every 7th network pinned to gamma, one
# rotating unknown.
obs_json() {
    e=$1
    if [ "$e" -lt 26 ]; then base=alpha; else base=beta; fi
    printf '{"epoch":%d,"sites":{' "$e"
    sep=""
    i=0
    while [ $i -lt 12 ]; do
        if [ $(((i + e) % 11)) -ne 0 ]; then
            if [ $((i % 7)) -eq 0 ]; then site=gamma; else site=$base; fi
            printf '%s"n%02d":"%s"' "$sep" "$i" "$site"
            sep=","
        fi
        i=$((i + 1))
    done
    printf '}}'
}

spec_json() {
    printf '{"networks":['
    sep=""
    i=0
    while [ $i -lt 12 ]; do
        printf '%s"n%02d"' "$sep" "$i"
        sep=","
        i=$((i + 1))
    done
    printf '],"start":"2026-01-01T00:00:00Z","interval_seconds":240,"epochs":4096}'
}

# req METHOD URL BODY EXPECTED_CODE LABEL
req() {
    code=$(curl -s -o "$work/last-response" -w '%{http_code}' -X "$1" -d "$3" "$2")
    if [ "$code" != "$4" ]; then
        echo "window-smoke: $5: got HTTP $code, want $4" >&2
        cat "$work/last-response" >&2
        exit 1
    fi
}

# ingest URL TENANT FROM TO — streams epochs [FROM, TO).
ingest() {
    e=$3
    while [ "$e" -lt "$4" ]; do
        req POST "$1/v1/tenants/$2/observations" "$(obs_json "$e")" 202 "ingest epoch $e"
        e=$((e + 1))
    done
}

# capture URL TENANT OUTDIR — snapshots the deterministic query surface.
capture() {
    mkdir -p "$3"
    curl -s "$1/v1/tenants/$2/mode" >"$3/mode.json"
    curl -s "$1/v1/tenants/$2/events?n=50" >"$3/events.json"
    curl -s "$1/v1/tenants/$2/heatmap" >"$3/heatmap.json"
    curl -s "$1/v1/tenants/$2/transitions" >"$3/transitions.json"
    curl -s "$1/v1/tenants/$2/flows?k=5" >"$3/flows.json"
}

# check_window URL TENANT EPOCHS LABEL — asserts the status rollup shows
# the window bound and a history plateaued at it.
check_window() {
    flat=$(curl -s "$1/v1/tenants/$2" | tr -d ' \n\t')
    evict=$(($3 - WINDOW))
    for want in "\"window\":$WINDOW" "\"history\":$WINDOW" "\"evictions\":$evict"; do
        case "$flat" in
        *"$want"[,}]*) ;;
        *)
            echo "window-smoke: $4: status missing $want: $flat" >&2
            exit 1
            ;;
        esac
    done
}

# --- Control: one windowed daemon ingests all 36 epochs. -------------
"$bin" -serve 127.0.0.1:0 -snapshot-dir "$work/control-state" -window "$WINDOW" \
    2>"$work/control.log" &
control_pid=$!
pids="$pids $control_pid"
control_url=$(wait_api "$work/control.log")

req PUT "$control_url/v1/tenants/smoke" "$(spec_json)" 201 "control create tenant"
ingest "$control_url" smoke 0 36
# Checkpoint doubles as a flush barrier: it waits for the worker to
# drain the queue before the state is captured.
req POST "$control_url/v1/tenants/smoke/checkpoint" "" 200 "control checkpoint"
check_window "$control_url" smoke 36 "control"
capture "$control_url" smoke "$work/control-out"
kill -TERM "$control_pid"
wait "$control_pid" 2>/dev/null || true

# --- Victim: ingests 21 epochs (already past the bound, so evictions
# --- are in the checkpoint), then dies hard. ---
state="$work/victim-state"
"$bin" -serve 127.0.0.1:0 -snapshot-dir "$state" -snapshot-every 5 -window "$WINDOW" \
    2>"$work/victim.log" &
victim_pid=$!
pids="$pids $victim_pid"
victim_url=$(wait_api "$work/victim.log")

req PUT "$victim_url/v1/tenants/smoke" "$(spec_json)" 201 "victim create tenant"
ingest "$victim_url" smoke 0 21
# Query /mode before the kill: the engine is live at checkpoint time, but
# the checkpoint carries none of it, so the restored daemon re-clusters.
req GET "$victim_url/v1/tenants/smoke/mode" "" 200 "victim mode query"
req POST "$victim_url/v1/tenants/smoke/checkpoint" "" 200 "victim checkpoint"
kill -KILL "$victim_pid"
wait "$victim_pid" 2>/dev/null || true

# --- Restart: warm-restore from the snapshot dir, finish the stream. --
"$bin" -serve 127.0.0.1:0 -snapshot-dir "$state" -snapshot-every 5 -window "$WINDOW" \
    2>"$work/restart.log" &
restart_pid=$!
pids="$pids $restart_pid"
restart_url=$(wait_api "$work/restart.log")

# The restored tenant still enforces ordering against evicted history:
# epoch 20 is long gone from the window, but a replay must still 400.
req POST "$restart_url/v1/tenants/smoke/observations" "$(obs_json 20)" \
    400 "replayed epoch after restart"

ingest "$restart_url" smoke 21 36
req POST "$restart_url/v1/tenants/smoke/checkpoint" "" 200 "restart checkpoint"
check_window "$restart_url" smoke 36 "restart"
capture "$restart_url" smoke "$work/restart-out"
kill -TERM "$restart_pid"
wait "$restart_pid" 2>/dev/null || true

# --- The guarantee: restored output is byte-identical to the control. -
for f in mode events heatmap transitions flows; do
    if ! cmp -s "$work/control-out/$f.json" "$work/restart-out/$f.json"; then
        echo "window-smoke: $f.json differs between uninterrupted and restored windowed runs" >&2
        diff "$work/control-out/$f.json" "$work/restart-out/$f.json" >&2 || true
        exit 1
    fi
done

echo "window-smoke: ok — windowed kill-and-restore output is byte-identical across 5 query endpoints (window $WINDOW, 36 epochs)"
