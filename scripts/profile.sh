#!/usr/bin/env bash
# CPU-profile capture for the serving hot path: build prestroidd and
# prestroidload, train and serve a bundle, drive sustained open-loop predict
# traffic, and scrape a CPU profile from the guarded /debug/pprof/ surface
# while the load runs — exercising the token guard the same way an operator
# would in production. The profile lands in PROFILE_cpu.pb.gz (override with
# -out) together with a `go tool pprof -top` summary on stdout, which is
# where front-end costs (lex/parse/plan/featurize vs template rebind) show
# up against the model forward.
#
#   scripts/profile.sh                          # 10s profile at 400 qps
#   scripts/profile.sh -seconds 30 -rate 1000   # longer, hotter
#   scripts/profile.sh -out /tmp/cpu.pb.gz
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
seconds=10
rate=400
out="PROFILE_cpu.pb.gz"
while [[ $# -gt 0 ]]; do
  case "$1" in
    -seconds) seconds="$2"; shift 2 ;;
    -rate) rate="$2"; shift 2 ;;
    -out) out="$2"; shift 2 ;;
    *) echo "usage: $0 [-seconds n] [-rate qps] [-out file.pb.gz]" >&2; exit 2 ;;
  esac
done

work="$(mktemp -d)"
addr="127.0.0.1:18109"
base="http://$addr"
token="profile-$$"
server_pid=""

cleanup() {
  if [[ -n "$server_pid" ]]; then
    kill -9 "$server_pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/prestroidd" ./cmd/prestroidd
go build -o "$work/prestroidload" ./cmd/prestroidload

echo "== train and serve a bundle"
"$work/prestroidd" -train -bundle "$work/model.full" -queries 300
"$work/prestroidd" -bundle "$work/model.full" \
  -addr "$addr" -reload-token "$token" >"$work/server.log" 2>&1 &
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

echo "== token guard: unauthenticated profile request must be refused"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/debug/pprof/profile?seconds=1")
if [[ "$code" == "200" ]]; then
  echo "/debug/pprof/ served a profile without the bearer token" >&2
  exit 1
fi

echo "== drive ${rate} qps for $((seconds + 4))s while profiling ${seconds}s of CPU"
"$work/prestroidload" -addr "$base" -rate "$rate" \
  -duration "$((seconds + 4))s" -out "$work/load.json" >"$work/load.log" 2>&1 &
load_pid=$!
sleep 2 # let the load reach steady state before the profile window opens

curl -fsS -H "Authorization: Bearer $token" \
  -o "$out" "$base/debug/pprof/profile?seconds=$seconds"
wait "$load_pid" || { cat "$work/load.log" >&2; exit 1; }

cat "$work/load.json"; echo
python3 - "$work/load.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
sent = s["sent"]
ok = s.get("status", {}).get("200", {}).get("count", 0)
assert sent > 0, "load generator sent nothing"
assert ok > 0, f"no 200s out of {sent} sent: {s.get('status')}"
print(f"ok: {ok}/{sent} requests returned 200 under profile")
PY

kill -TERM "$server_pid"
wait "$server_pid" || true
server_pid=""

echo "== top CPU consumers"
go tool pprof -top -nodecount 25 "$out"
echo "profile written to $out"
