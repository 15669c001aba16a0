#!/usr/bin/env bash
# End-to-end smoke of the retrain-and-reload loop: train a full bundle and
# its weights, then a second, distinguishable set of weights; serve the full
# bundle, hammer /v1/predict with sustained traffic while POST /v1/reload
# rolls the second weights through the live shards, then assert the
# reported weight generation advanced with zero failed requests and that
# SIGTERM drains the daemon cleanly. Along the way, scrape GET /metrics
# under load and assert the Prometheus exposition parses line by line and
# agrees with the /v1/stats JSON on monotone counters (both render one
# telemetry snapshot).
#
# Run from anywhere: ./scripts/e2e_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
work="$(mktemp -d)"
bin="$work/prestroidd"
addr="127.0.0.1:18099"
base="http://$addr"
server_pid=""

cleanup() {
  if [[ -n "$server_pid" ]]; then
    kill -9 "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/prestroidd

echo "== train generation-1 and generation-2 bundles"
"$bin" -train -bundle "$work/gen1.full" -weights "$work/gen1.bin" -queries 300
# The second training run sees a larger slice of the synthetic workload:
# same architecture (so the bundle is shape-compatible with the live
# pipeline), different trained weights (so generations are distinguishable).
"$bin" -train -weights "$work/gen2.bin" -queries 330
if cmp -s "$work/gen1.bin" "$work/gen2.bin"; then
  echo "retrained bundle is byte-identical to the first; smoke cannot distinguish generations" >&2
  exit 1
fi

echo "== serve generation 1"
"$bin" -bundle "$work/gen1.full" \
  -addr "$addr" -replicas 2 >"$work/server.log" 2>&1 &
server_pid=$!

for i in $(seq 1 100); do
  if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
  if [[ "$i" == 100 ]]; then
    echo "server never became healthy" >&2
    cat "$work/server.log" >&2
    exit 1
  fi
  sleep 0.2
done

predict_loop() {
  local i=0 code
  while [[ ! -f "$work/stop" ]]; do
    code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$base/v1/predict" \
      -d "{\"sql\":\"SELECT a FROM t WHERE a > $((i % 7))\"}") || code=000
    if [[ "$code" != "200" ]]; then echo "$code" >>"$work/failures"; fi
    i=$((i + 1))
  done
}

echo "== hammer /v1/predict while reloading generation 2"
predict_loop &
hammer1=$!
predict_loop &
hammer2=$!
sleep 1

gen_before=$(curl -fsS "$base/v1/stats" |
  python3 -c 'import json,sys; print(json.load(sys.stdin)["weight_generation"])')
if [[ "$gen_before" != "1" ]]; then
  echo "expected generation 1 before reload, got $gen_before" >&2
  exit 1
fi

echo "== scrape /metrics under load: parse + agree with /v1/stats"
# Taken back-to-back while the hammers run: every non-comment line must be
# `name value` or `name{labels} value`, and since both views render one
# telemetry snapshot, monotone counters scraped first can never exceed the
# JSON read taken after.
curl -fsS "$base/metrics" >"$work/metrics.txt"
ct=$(curl -fsS -o /dev/null -w '%{content_type}' "$base/metrics")
case "$ct" in
  "text/plain; version=0.0.4"*) ;;
  *) echo "unexpected /metrics content type: $ct" >&2; exit 1 ;;
esac
curl -fsS "$base/v1/stats" >"$work/stats.json"
python3 - "$work/metrics.txt" "$work/stats.json" <<'PY'
import json, re, sys

# Transliteration of telemetry.ExpositionLine (internal/telemetry/
# prometheus.go) — keep the two patterns in sync.
line_re = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})?'
    r' (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$')
series = {}
for n, line in enumerate(open(sys.argv[1]), 1):
    line = line.rstrip("\n")
    if not line or line.startswith("# HELP ") or line.startswith("# TYPE "):
        continue
    m = line_re.match(line)
    assert m, f"metrics line {n} does not parse as exposition format: {line!r}"
    name, _, value = line.rpartition(" ")
    series[name] = float(value)
assert series, "empty /metrics exposition"
assert all(k.split("{")[0].startswith("prestroid_") for k in series), \
    "metric without prestroid_ prefix"

stats = json.load(open(sys.argv[2]))
# /metrics was scraped first: its monotone counters are a lower bound on the
# later JSON view, and generation can only have advanced.
assert series["prestroid_requests_total"] <= stats["requests"], \
    (series["prestroid_requests_total"], stats["requests"])
assert series["prestroid_requests_total"] > 0, "no requests visible under load"
assert series['prestroid_generation{model="default"}'] <= stats["weight_generation"]
shard_hits = sum(v for k, v in series.items()
                 if k.startswith("prestroid_shard_cache_hits_total{"))
assert shard_hits <= stats["cache_hits"], (shard_hits, stats["cache_hits"])
assert int(series['prestroid_shards{model="default"}']) == stats["replicas"]
assert series["prestroid_go_goroutines"] > 0
assert series["prestroid_uptime_seconds"] > 0
shards = int(series['prestroid_shards{model="default"}'])
print(f"ok: {len(series)} series parsed; requests {int(series['prestroid_requests_total'])}"
      f" <= {stats['requests']}, {shards} shards")
PY

curl -fsS -X POST "$base/v1/reload" -d "{\"weights\":\"$work/gen2.bin\"}" >"$work/reload.json"
cat "$work/reload.json"; echo
python3 -c '
import json, sys
r = json.load(open(sys.argv[1]))
assert r["generation"] == 2, r
' "$work/reload.json"

sleep 1
touch "$work/stop"
wait "$hammer1" "$hammer2"

echo "== assert generation advanced with zero failed requests"
if [[ -s "${work}/failures" ]]; then
  echo "failed predict requests during the reload roll:" >&2
  sort "$work/failures" | uniq -c >&2
  exit 1
fi
curl -fsS "$base/v1/stats" | python3 -c '
import json, sys
s = json.load(sys.stdin)
assert s["weight_generation"] == 2, s["weight_generation"]
assert s["reloads"] == 1, s["reloads"]
assert s["errors"] == 0, s["errors"]
assert s["requests"] > 0, s["requests"]
assert all(sh["generation"] == 2 for sh in s["shards"]), s["shards"]
print("ok: generation 2 on", len(s["shards"]), "shards after", s["requests"], "requests, 0 errors")
'
# The completed roll is visible on the Prometheus surface too. Scrape to a
# file rather than piping into grep -q: under pipefail, grep exiting at the
# first match makes curl fail with EPIPE on a large enough exposition.
curl -fsS "$base/metrics" >"$work/metrics_after.txt"
grep -qx "prestroid_reloads_total{model=\"default\"} 1" "$work/metrics_after.txt" || {
  echo "/metrics does not report the completed roll" >&2
  exit 1
}
grep -qx "prestroid_generation{model=\"default\"} 2" "$work/metrics_after.txt" || {
  echo "/metrics does not report generation 2" >&2
  exit 1
}

echo "== graceful shutdown"
kill -TERM "$server_pid"
if ! wait "$server_pid"; then
  echo "daemon did not exit cleanly on SIGTERM" >&2
  cat "$work/server.log" >&2
  exit 1
fi
server_pid=""
grep -q "draining" "$work/server.log" || {
  echo "daemon exited without draining" >&2
  cat "$work/server.log" >&2
  exit 1
}

echo "e2e smoke passed"
