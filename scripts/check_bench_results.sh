#!/usr/bin/env bash
# Cheap CI gate for the bench suite: regenerate every bench_results/*.csv at a
# tiny matrix scale and verify each file still has the expected schema (header
# line) and a plausible shape (at least one data row).  Catches benches that
# crash, stop emitting their CSV, or silently change columns — without paying
# for a full-scale run.
#
# Usage: scripts/check_bench_results.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
SCALE="${PROTONDOSE_SCALE:-0.2}"

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found — build the project first" >&2
  exit 1
fi

# Snapshot the current schemas (header + row count) before regenerating.
declare -A OLD_HEADER OLD_ROWS
if [ -d bench_results ]; then
  for f in bench_results/*.csv; do
    [ -f "$f" ] || continue
    OLD_HEADER["$f"]=$(head -n 1 "$f")
    OLD_ROWS["$f"]=$(wc -l < "$f")
  done
fi

workdir=$(mktemp -d protondose_bench_check.XXXXXX)
trap 'rm -rf "$workdir"' EXIT

echo "== regenerating bench CSVs at scale $SCALE (workdir: $workdir) =="
fail=0
for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  case "$name" in
    wallclock_host_kernels) continue ;;  # google-benchmark binary, no CSV
  esac
  if ! (cd "$workdir" && PROTONDOSE_SCALE="$SCALE" "../$b" > "$name.log" 2>&1); then
    echo "FAIL $name: exited non-zero (see $workdir/$name.log)"
    fail=1
  fi
done

echo "== checking schemas =="
for f in "$workdir"/bench_results/*.csv; do
  [ -f "$f" ] || { echo "FAIL: no CSVs were produced"; fail=1; break; }
  rel="bench_results/$(basename "$f")"
  header=$(head -n 1 "$f")
  rows=$(wc -l < "$f")
  if [ "$rows" -lt 2 ]; then
    echo "FAIL $rel: no data rows"
    fail=1
    continue
  fi
  if [ -n "${OLD_HEADER[$rel]:-}" ] && [ "${OLD_HEADER[$rel]}" != "$header" ]; then
    echo "FAIL $rel: header changed"
    echo "  was: ${OLD_HEADER[$rel]}"
    echo "  now: $header"
    fail=1
    continue
  fi
  echo "ok   $rel ($((rows - 1)) rows)"
done

# Trajectory records from checked (simcheck) runs are not comparable across
# PRs: the analyzer forces serial phase-1 execution and adds per-access work.
# Every record must carry an explicit "simcheck": false brand.
check_simcheck_brand() {
  local f="$1" name="$2"
  if ! grep -q '"simcheck"' "$f"; then
    echo "FAIL $name: missing \"simcheck\" key (bench predates the brand?)"
    fail=1
  elif grep -Eq '"simcheck"[[:space:]]*:[[:space:]]*true' "$f"; then
    echo "FAIL $name: produced by a checked run (PROTONDOSE_SIMCHECK was set);"
    echo "  checked wallclock numbers must not enter the trajectory record"
    fail=1
  fi
}

# Machine-readable trajectory records must exist and keep their schema.
echo "== checking BENCH_native.json =="
nat="$workdir/BENCH_native.json"
if [ ! -f "$nat" ]; then
  echo "FAIL BENCH_native.json: not produced by wallclock_native_backend"
  fail=1
else
  for key in '"bench"' '"beam"' '"scale"' '"kernel"' '"modes"' \
             '"us_per_product"' '"speedup_vs_functional"' '"batch"' \
             '"us_batched"' '"us_looped"' '"batched_speedup"'; do
    if ! grep -q "$key" "$nat"; then
      echo "FAIL BENCH_native.json: missing key $key"
      fail=1
    fi
  done
  check_simcheck_brand "$nat" BENCH_native.json
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$nat"; then
      echo "FAIL BENCH_native.json: not valid JSON"
      fail=1
    fi
  fi
fi

echo "== checking BENCH_gpusim.json =="
sim="$workdir/BENCH_gpusim.json"
if [ ! -f "$sim" ]; then
  echo "FAIL BENCH_gpusim.json: not produced by wallclock_sim_throughput"
  fail=1
else
  for key in '"bench"' '"beam"' '"scale"' '"kernel"' '"modes"' \
             '"min_seconds_per_repeat"' '"repeats"' '"us_per_launch"' \
             '"us_q1"' '"us_q3"' '"iqr_over_median"' \
             '"warp_instr_per_sec"' '"speedup_vs_reference"'; do
    if ! grep -q "$key" "$sim"; then
      echo "FAIL BENCH_gpusim.json: missing key $key"
      fail=1
    fi
  done
  check_simcheck_brand "$sim" BENCH_gpusim.json
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$sim"; then
      echo "FAIL BENCH_gpusim.json: not valid JSON"
      fail=1
    # Every mode must be there: the Half/Double kernel in each engine mode
    # and the atomic Baseline on both memory paths.
    elif ! python3 - "$sim" <<'EOF'
import json, sys
have = {m["mode"] for m in json.load(open(sys.argv[1]))["modes"]}
want = ["serial_reference", "serial", "functional_only",
        "baseline_serial_reference", "baseline_serial"]
missing = [m for m in want if m not in have]
print(f"{'FAIL' if missing else 'ok  '} BENCH_gpusim.json modes" +
      (f": missing {', '.join(missing)}" if missing else ""))
sys.exit(1 if missing else 0)
EOF
    then
      fail=1
    # Perf gate on the optimized memory path: the serial engine must beat the
    # seed reference path (sort+unique coalescer, stamp-scan cache) by a
    # floor well below the ratio measured at scale 0.2 (3.3-3.7x in five
    # runs on a 4-vCPU x86 host), so a change that quietly falls back to
    # reference speed fails here.
    elif [ "${PROTONDOSE_BENCH_ALLOW_PERF_REGRESSION:-0}" != "1" ]; then
      if ! python3 - "$sim" <<'EOF'
import json, sys
modes = {m["mode"]: m for m in json.load(open(sys.argv[1]))["modes"]}
value = float(modes["serial"]["speedup_vs_reference"])
floor = 2.0
ok = value >= floor
print(f"{'ok  ' if ok else 'FAIL'} serial speedup_vs_reference = {value} (want >= {floor})")
sys.exit(0 if ok else 1)
EOF
      then
        echo "FAIL BENCH_gpusim.json: memory-path perf gate" \
             "(set PROTONDOSE_BENCH_ALLOW_PERF_REGRESSION=1 to override)"
        fail=1
      fi
    fi
  fi
fi

echo "== checking BENCH_service.json =="
svc="$workdir/BENCH_service.json"
if [ ! -f "$svc" ]; then
  echo "FAIL BENCH_service.json: not produced by wallclock_service"
  fail=1
else
  for key in '"bench"' '"beam"' '"scale"' '"kernel"' '"requests"' \
             '"configs"' '"workers"' '"batch_cap"' '"req_per_s"' \
             '"mean_batch_size"' '"p50_ms"' '"p99_ms"' '"headline"' \
             '"baseline_cap"' '"batched_speedup"'; do
    if ! grep -q "$key" "$svc"; then
      echo "FAIL BENCH_service.json: missing key $key"
      fail=1
    fi
  done
  check_simcheck_brand "$svc" BENCH_service.json
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$svc"; then
      echo "FAIL BENCH_service.json: not valid JSON"
      fail=1
    fi
  fi
fi

echo "== checking BENCH_formats.json =="
fmt="$workdir/BENCH_formats.json"
if [ ! -f "$fmt" ]; then
  echo "FAIL BENCH_formats.json: not produced by wallclock_fast_tier"
  fail=1
else
  # v2 schema (fast-tier v2): quantized SELL column, batched K=9 timings,
  # per-beam tuner outcome, and the three headline ratios.
  for key in '"bench"' '"schema_version"' '"scale"' '"fused_variant"' \
             '"sellcs_variant"' '"sellcsq_variant"' '"tuner_trials"' \
             '"batch_k"' '"cases"' '"csr_double_bytes"' '"rsformat_bytes"' \
             '"sellcs_bytes"' '"sellcsq_bytes"' '"streamed_bytes_ratio"' \
             '"sellcsq_vs_sellcs_ratio"' '"us_native_csr"' \
             '"us_fused_rsformat"' '"us_sellcs"' '"us_sellcsq"' \
             '"us_batched_k9"' '"us_looped_k9"' '"batched_speedup_k9"' \
             '"tuned"' '"headline"' '"fused_wins"' \
             '"max_streamed_bytes_ratio"' '"max_sellcsq_vs_sellcs_ratio"' \
             '"max_batched_speedup_k9"'; do
    if ! grep -q "$key" "$fmt"; then
      echo "FAIL BENCH_formats.json: missing key $key"
      fail=1
    fi
  done
  check_simcheck_brand "$fmt" BENCH_formats.json
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$fmt"; then
      echo "FAIL BENCH_formats.json: not valid JSON"
      fail=1
    fi
    # Perf regression gates on the fast-tier headlines.  Wall-clock-free
    # gates (byte ratios) are deterministic; the batched-speedup gate uses
    # the max over beams, which is stable on any machine where at least one
    # beam leaves cache (small-scale CI boxes still clear 1.5x on Liver).
    # Override for a knowingly-regressing change with
    # PROTONDOSE_BENCH_ALLOW_PERF_REGRESSION=1 — document why in the PR.
    if [ "${PROTONDOSE_BENCH_ALLOW_PERF_REGRESSION:-0}" != "1" ]; then
      if ! python3 - "$fmt" <<'EOF'
import json, sys
h = json.load(open(sys.argv[1]))["headline"]
fail = False
def gate(name, value, limit, op):
    global fail
    ok = value <= limit if op == "<=" else value >= limit
    print(f"{'ok  ' if ok else 'FAIL'} headline {name} = {value} (want {op} {limit})")
    fail = fail or not ok
gate("max_streamed_bytes_ratio", float(h["max_streamed_bytes_ratio"]), 0.34, "<=")
gate("max_sellcsq_vs_sellcs_ratio", float(h["max_sellcsq_vs_sellcs_ratio"]), 0.50, "<=")
gate("max_batched_speedup_k9", float(h["max_batched_speedup_k9"]), 1.5, ">=")
sys.exit(1 if fail else 0)
EOF
      then
        echo "FAIL BENCH_formats.json: fast-tier perf gate" \
             "(set PROTONDOSE_BENCH_ALLOW_PERF_REGRESSION=1 to override)"
        fail=1
      fi
    fi
  fi
fi

echo "== checking BENCH_shard.json =="
shd="$workdir/BENCH_shard.json"
if [ ! -f "$shd" ]; then
  echo "FAIL BENCH_shard.json: not produced by wallclock_shard"
  fail=1
else
  for key in '"bench"' '"beam"' '"scale"' '"kernel"' '"requests"' \
             '"plans"' '"engine_cache_capacity"' '"bitwise_identical"' \
             '"configs"' '"shards"' '"req_per_s"' '"speedup"' \
             '"cache_misses"' '"mean_batch_size"' '"p50_ms"' '"p99_ms"' \
             '"headline"' '"baseline_shards"' '"speedup_2_shards"' \
             '"speedup_4_shards"'; do
    if ! grep -q "$key" "$shd"; then
      echo "FAIL BENCH_shard.json: missing key $key"
      fail=1
    fi
  done
  check_simcheck_brand "$shd" BENCH_shard.json
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$shd"; then
      echo "FAIL BENCH_shard.json: not valid JSON"
      fail=1
    fi
    # Perf gates on the sharding headlines: plan-locality scaling must hold
    # (served req/s through 2 and 4 shards vs 1, same per-shard config) and
    # every configuration must have returned bitwise-identical doses.  The
    # mechanism (engine-cache fit vs thrash) is machine-independent, so the
    # small-scale CI boxes clear these with a wide margin.
    if [ "${PROTONDOSE_BENCH_ALLOW_PERF_REGRESSION:-0}" != "1" ]; then
      if ! python3 - "$shd" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
h = rec["headline"]
fail = False
def gate(name, value, limit, op):
    global fail
    ok = value <= limit if op == "<=" else value >= limit
    print(f"{'ok  ' if ok else 'FAIL'} headline {name} = {value} (want {op} {limit})")
    fail = fail or not ok
gate("speedup_2_shards", float(h["speedup_2_shards"]), 1.6, ">=")
gate("speedup_4_shards", float(h["speedup_4_shards"]), 2.5, ">=")
if rec["bitwise_identical"] is not True:
    print("FAIL bitwise_identical is not true")
    fail = True
sys.exit(1 if fail else 0)
EOF
      then
        echo "FAIL BENCH_shard.json: sharding perf gate" \
             "(set PROTONDOSE_BENCH_ALLOW_PERF_REGRESSION=1 to override)"
        fail=1
      fi
    fi
  fi
fi

echo "== checking BENCH_delta.json =="
dlt="$workdir/BENCH_delta.json"
if [ ! -f "$dlt" ]; then
  echo "FAIL BENCH_delta.json: not produced by wallclock_delta"
  fail=1
else
  for key in '"bench"' '"scale"' '"variant"' '"cases"' '"changed_frac"' \
             '"changed_cols"' '"delta_nnz"' '"touched_rows"' '"us_full"' \
             '"us_delta_bitwise"' '"us_delta_fast"' '"us_apply_bitwise"' \
             '"us_apply_fast"' '"bitwise_speedup"' '"fast_speedup"' \
             '"headline"'; do
    if ! grep -q "$key" "$dlt"; then
      echo "FAIL BENCH_delta.json: missing key $key"
      fail=1
    fi
  done
  check_simcheck_brand "$dlt" BENCH_delta.json
  if command -v python3 >/dev/null 2>&1; then
    if ! python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$dlt"; then
      echo "FAIL BENCH_delta.json: not valid JSON"
      fail=1
    fi
  fi
fi

# Benches that used to emit a CSV must still emit one.
for rel in "${!OLD_HEADER[@]}"; do
  if [ ! -f "$workdir/$rel" ]; then
    echo "FAIL $rel: previously present, not regenerated"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "bench results check FAILED"
  exit 1
fi
echo "bench results check passed"
