#!/usr/bin/env bash
# Benchmark-regression gate for the serve layer: run the serving benchmarks
# (BenchmarkServePredict, BenchmarkSharded{Distinct,Overlapping}Templates and
# BenchmarkPrestroidPredictSteady, the BenchmarkShardedTemplateCache off/on
# pair with its >= 1.5x speedup gate, BenchmarkLoneMiss, plus the
# BenchmarkFrontEnd microbenchmark, 5 repeats of 100ms each with -benchmem —
# time-based so iteration counts auto-scale from the ~300ns steady
# micro-benchmark to the ~200µs 16-client fan-outs, whose fixed-count runs
# flap — and the training step: BenchmarkPrestroidTrainBatch with its
# allocs/op held under a fixed ceiling, and the BenchmarkTreeConvForward /
# BenchmarkTreeConvBackward pair, run at -cpu 1 so their ratio is arithmetic
# rather than core count, with backward's ns/tree gated at 2.5x forward's
# ns/op; and the
# BenchmarkAccumRows simd/go pair from internal/tensor, also at -cpu 1, with
# simd gated at >= 2x go), record median
# throughput and minimum allocations and allocated bytes per benchmark to a
# JSON artifact, and — when a baseline file exists — fail if any benchmark's
# allocs/op rose past the allocation slack over its baseline. Every gate is
# host-independent: ratios between two legs of the same run, and allocation
# counts. Absolute throughput is recorded, never compared — a baseline is
# recorded on one host and checked on another, and a qps floor measures the
# difference between the two. The environment is pinned
# (GOMAXPROCS=4, GOGC=100) so allocation and scheduling behaviour is
# comparable across hosts and runs. The artifact also carries a "loc"
# object — scripts/loc.sh's per-package and total code-line counts — so the
# size of the code is recorded next to its speed (recorded, not gated).
#
#   scripts/bench_record.sh                                    # record only
#   scripts/bench_record.sh -baseline scripts/bench_baseline.json
#   scripts/bench_record.sh -out BENCH_serve.json -tolerance 25
#
# Refresh the committed baseline by copying a fresh recording over it:
#   scripts/bench_record.sh -out scripts/bench_baseline.json
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1
out="BENCH_serve.json"
baseline=""
tolerance=25
while [[ $# -gt 0 ]]; do
  case "$1" in
    -out) out="$2"; shift 2 ;;
    -baseline) baseline="$2"; shift 2 ;;
    -tolerance) tolerance="$2"; shift 2 ;;
    *) echo "usage: $0 [-out file.json] [-baseline file.json] [-tolerance pct]" >&2; exit 2 ;;
  esac
done

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT
loc="$(scripts/loc.sh)"

GOMAXPROCS=4 GOGC=100 go test -run '^$' \
  -bench 'BenchmarkServePredict|BenchmarkShardedDistinctTemplates|BenchmarkShardedOverlappingTemplates|BenchmarkShardedTemplateCache|BenchmarkLoneMiss|BenchmarkFrontEnd|BenchmarkPrestroidPredictSteady|BenchmarkPrestroidTrainBatch' \
  -benchtime 100ms -count 5 -benchmem . | tee "$raw"
# The conv forward/backward pair feeds a ratio gate: one core, so the ratio
# compares the work the two passes do, not how many cores the forward's
# GEMMs happened to find.
GOGC=100 go test -run '^$' -bench 'BenchmarkTreeConv(Forward|Backward)$' \
  -cpu 1 -benchtime 100ms -count 5 -benchmem . | tee -a "$raw"
# The row-accumulate kernel's assembly and Go legs, on one core, for the
# SIMD ratio gate (the simd leg skips itself on a CPU without AVX2, and the
# gate then has nothing to compare).
GOGC=100 go test -run '^$' -bench 'BenchmarkAccumRows' \
  -cpu 1 -benchtime 100ms -count 5 -benchmem ./internal/tensor | tee -a "$raw"

python3 - "$raw" "$out" "$tolerance" "$loc" "$baseline" <<'PY'
import json, re, statistics, sys

raw, out, tolerance = sys.argv[1], sys.argv[2], float(sys.argv[3])
# "<dir> <lines>" rows from scripts/loc.sh, the last one being the total.
loc = {name: int(n) for name, n in (line.split() for line in sys.argv[4].splitlines())}
baseline_path = sys.argv[5] if len(sys.argv) > 5 else ""

# Lines look like:
#   BenchmarkServePredict/coalesced-8   1   123456 ns/op   2345 B/op   67 allocs/op
# A benchmark that also reports ns/tree (BenchmarkTreeConvBackward, which
# times a whole step's forest) is recorded and gated per tree.
line_re = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op"
    r"(?:\s+([\d.]+) ns/tree)?"
    r"(?:\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?")
runs = {}
goos = goarch = cpu = ""
for line in open(raw):
    if line.startswith("goos:"):
        goos = line.split()[1]
    elif line.startswith("goarch:"):
        goarch = line.split()[1]
    elif line.startswith("cpu:"):
        cpu = line.split(":", 1)[1].strip()
    m = line_re.match(line)
    if not m:
        continue
    name, ns = m.group(1), float(m.group(3) or m.group(2))
    nbytes, allocs = m.group(4), m.group(5)
    runs.setdefault(name, {"ns": [], "allocs": [], "bytes": []})
    runs[name]["ns"].append(ns)
    if allocs is not None:
        runs[name]["allocs"].append(float(allocs))
        runs[name]["bytes"].append(float(nbytes))

if not runs:
    sys.exit("bench_record: no benchmark results parsed from go test output")

# Median throughput across repeats: robust against one lucky or one
# disturbed repeat, either of which poisons a min/max aggregate. Allocations
# and allocated bytes take the minimum — they are deterministic in steady
# state, and the floor ignores one repeat's warm-up growth. Bytes are
# recorded, not gated: an allocation count cannot show how large the
# allocations of a miss are.
best = {}
for name, v in runs.items():
    best[name] = {"ns": statistics.median(v["ns"])}
    if v["allocs"]:
        best[name]["allocs"] = min(v["allocs"])
        best[name]["bytes"] = min(v["bytes"])

def entry(v):
    e = {"ns_per_op": v["ns"], "qps": 1e9 / v["ns"]}
    if "allocs" in v:
        e["allocs_per_op"] = v["allocs"]
        e["bytes_per_op"] = v["bytes"]
    return e

record = {
    "goos": goos, "goarch": goarch, "cpu": cpu,
    "tolerance_pct": tolerance,
    "loc": loc,
    "benchmarks": {name: entry(v) for name, v in sorted(best.items())},
}
with open(out, "w") as f:
    json.dump(record, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"recorded {len(best)} benchmarks to {out}")

failures = []

# Speedup gates: pairs whose ratio is an acceptance criterion in its own
# right, checked on every run — no baseline file needed, since both legs come
# from this run on this host. The template-cache gate is the prepared-
# template front end's >= 1.5x contract on the unique-literal shared-template
# workload. The AccumRows gate holds the assembly kernel under the hidden
# tree-conv layers to at least twice its Go reference at their shape.
RATIO_GATES = [
    ("BenchmarkShardedTemplateCache/on", "BenchmarkShardedTemplateCache/off", 1.5),
    ("BenchmarkAccumRows/simd", "BenchmarkAccumRows/go", 2.0),
]
for fast, slow, want in RATIO_GATES:
    if fast not in best or slow not in best:
        continue
    got = best[slow]["ns"] / best[fast]["ns"]
    verdict = "ok" if got >= want else "REGRESSION"
    print(f"{verdict}: {fast} is {got:.2f}x {slow} (floor {want:.1f}x)")
    if got < want:
        failures.append(f"{fast}: {got:.2f}x over {slow} is below the {want:.1f}x floor")

# Cost-ratio gates, the same idea the other way round: a pass that may cost
# at most so many times its sibling on the same run. The tree convolution's
# backward does about twice its forward's multiply-adds (it ran at ~10x while
# layer 0 treated the feature rows as dense and computed an input gradient
# nothing reads); it times a training step's 288-tree forest per op and
# reports ns/tree, so one tree is compared with one tree. On a 2-core Xeon
# the forest backward reads 1.8x its forward, against 2.2x for the
# tree-by-tree backward it replaced on the same box (1.0-1.5x and 1.3-1.8x
# there on earlier days, 2.1-2.7x on other boxes).
COST_GATES = [
    ("BenchmarkTreeConvBackward", "BenchmarkTreeConvForward", 2.5),
]
for costly, ref, limit in COST_GATES:
    if costly not in best or ref not in best:
        continue
    got = best[costly]["ns"] / best[ref]["ns"]
    verdict = "ok" if got <= limit else "REGRESSION"
    print(f"{verdict}: {costly} costs {got:.2f}x {ref} (ceiling {limit:.1f}x)")
    if got > limit:
        failures.append(f"{costly}: {got:.2f}x the cost of {ref} is above the {limit:.1f}x ceiling")

# Allocation ceilings, host-independent: a steady-state training step draws
# its conv-stack memory from step-scoped arenas and keeps the head's input
# and the dense layers' transposes and input gradients from step to step,
# so what it still allocates is the head's activations and a few goroutines
# (102 allocs/op at GOMAXPROCS=4, 84 at 1; ~31,000 before the arenas).
ALLOC_CEILINGS = [
    ("BenchmarkPrestroidTrainBatch", 130),
]
for name, ceiling in ALLOC_CEILINGS:
    if name not in best or "allocs" not in best[name]:
        continue
    got = best[name]["allocs"]
    verdict = "ok" if got <= ceiling else "REGRESSION"
    print(f"{verdict}: {name}: {got:,.0f} allocs/op (ceiling {ceiling:,})")
    if got > ceiling:
        failures.append(f"{name}: {got:,.0f} allocs/op exceeds the {ceiling:,} ceiling")

def finish():
    if failures:
        sys.exit("benchmark regression:\n  " + "\n  ".join(failures))
    print("benchmark ratios and allocations within their gates")
    sys.exit(0)

if not baseline_path:
    finish()
try:
    base = json.load(open(baseline_path))
except FileNotFoundError:
    print(f"no baseline at {baseline_path}; recording only")
    finish()
for name, entry in base.get("benchmarks", {}).items():
    if name not in best:
        failures.append(f"{name}: present in baseline, missing from this run")
        continue
    # Allocation gate: relative tolerance plus an absolute slack of 2, so a
    # 0-allocs/op baseline (the arena path) stays a hard zero-ish gate while
    # noisy many-alloc benchmarks get proportional headroom.
    base_allocs = entry.get("allocs_per_op")
    got_allocs = best[name].get("allocs")
    if base_allocs is None or got_allocs is None:
        continue
    ceil = base_allocs * (1 + tolerance / 100) + 2
    verdict = "ok" if got_allocs <= ceil else "REGRESSION"
    print(f"{verdict}: {name}: {got_allocs:,.0f} allocs/op vs baseline "
          f"{base_allocs:,.0f} (ceiling {ceil:,.0f})")
    if got_allocs > ceil:
        failures.append(
            f"{name}: {got_allocs:,.0f} allocs/op exceeds baseline "
            f"{base_allocs:,.0f} + slack (ceiling {ceil:,.0f})")
finish()
PY
