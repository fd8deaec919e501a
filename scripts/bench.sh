#!/usr/bin/env bash
# Machine-readable benchmark sweep: runs the google-benchmark micro suites
# and the figure/analysis benches, then assembles two artifacts in the
# repo root (schema documented in EXPERIMENTS.md):
#
#   BENCH_micro.json    — per-suite google-benchmark JSON output
#   BENCH_figures.json  — one hirep-bench-v1 document per exhibit
#
# Usage: scripts/bench.sh [build-dir]          (default: build)
#   BENCH_PROFILE=quick   small deterministic params, minutes   (default)
#   BENCH_PROFILE=full    paper-scale params, hours
#
# Figure benches exit 1 when a paper claim fails to hold at the chosen
# params; with quick params that is expected and the artifact is still
# written, so only exit code 2 (hard error) aborts the sweep.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"
profile="${BENCH_PROFILE:-quick}"
out_micro="$repo/BENCH_micro.json"
out_figures="$repo/BENCH_figures.json"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

case "$profile" in
  quick)
    fig_params=(network_size=200 transactions=60 seed=7 seeds=1)
    micro_min_time=0.05
    scale_fast_params=(network_size=10000 transactions=2000 crypto=fast seed=1)
    scale_full_params=(network_size=2000 transactions=300 crypto=full seed=1)
    chaos_params=(network_size=200 transactions=240 crypto=fast seed=7)
    transport_params=(network_size=1000 transactions=100000 seed=1)
    ;;
  full)
    fig_params=()
    micro_min_time=0.5
    scale_fast_params=(network_size=100000 transactions=10000 crypto=fast seed=1)
    scale_full_params=(network_size=10000 transactions=1000 crypto=full seed=1)
    chaos_params=(network_size=1000 transactions=2000 crypto=fast seed=7)
    transport_params=(network_size=10000 transactions=1000000 seed=1)
    ;;
  *)
    echo "bench.sh: unknown BENCH_PROFILE '$profile' (use: quick full)" >&2
    exit 2
    ;;
esac

bench_dir="$build/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "bench.sh: $bench_dir not found — build the tree first" >&2
  exit 2
fi

# --- micro suites (google-benchmark JSON) ---------------------------------
micro_suites=(micro_crypto micro_hirep micro_overlay)
for suite in "${micro_suites[@]}"; do
  echo "== bench.sh: $suite (min_time=${micro_min_time}s) =="
  "$bench_dir/$suite" \
    --benchmark_min_time="$micro_min_time" \
    --benchmark_out="$tmp/$suite.json" \
    --benchmark_out_format=json
done

# Scale engine: serial vs parallel batch execution, both crypto modes;
# chaos engine: fault schedule + failover recovery; batched transport:
# per-envelope vs arena-backed send_batch (hirep-bench-v1 documents;
# exit 1 = a claim did not hold, still recorded).
scale_runs=(micro_scale_fast micro_scale_full chaos_recovery micro_transport)
for run in "${scale_runs[@]}"; do
  case "$run" in
    micro_scale_fast) binary=micro_scale params=("${scale_fast_params[@]}") ;;
    micro_scale_full) binary=micro_scale params=("${scale_full_params[@]}") ;;
    chaos_recovery)   binary=chaos_recovery params=("${chaos_params[@]}") ;;
    micro_transport)  binary=micro_transport params=("${transport_params[@]}") ;;
  esac
  echo "== bench.sh: $binary (${params[*]}) =="
  rc=0
  "$bench_dir/$binary" "${params[@]}" json="$tmp/$run.json" || rc=$?
  if [[ $rc -ge 2 ]]; then
    echo "bench.sh: $binary failed hard (exit $rc)" >&2
    exit "$rc"
  fi
  if [[ ! -s "$tmp/$run.json" ]]; then
    echo "bench.sh: $binary produced no JSON output" >&2
    exit 2
  fi
done

{
  printf '{\n  "schema": "hirep-bench-micro-v1",\n  "profile": "%s",\n  "suites": {\n' "$profile"
  first=1
  for suite in "${micro_suites[@]}" "${scale_runs[@]}"; do
    [[ $first -eq 0 ]] && printf ',\n'
    first=0
    printf '    "%s": ' "$suite"
    cat "$tmp/$suite.json"
  done
  printf '\n  }\n}\n'
} > "$out_micro"
echo "wrote $out_micro"

# --- figure / analysis exhibits (hirep-bench-v1) --------------------------
figure_benches=(fig5_traffic fig6_accuracy fig7_malicious fig8_response
                analysis_traffic_bound adversary_curves comparison_baselines)
for bench in "${figure_benches[@]}"; do
  echo "== bench.sh: $bench ($profile params) =="
  rc=0
  "$bench_dir/$bench" "${fig_params[@]}" json="$tmp/$bench.json" || rc=$?
  if [[ $rc -ge 2 ]]; then
    echo "bench.sh: $bench failed hard (exit $rc)" >&2
    exit "$rc"
  fi
  if [[ $rc -eq 1 ]]; then
    echo "bench.sh: note: $bench claim checks did not all hold at $profile params"
  fi
  if [[ ! -s "$tmp/$bench.json" ]]; then
    echo "bench.sh: $bench produced no JSON output" >&2
    exit 2
  fi
done

{
  printf '{\n  "schema": "hirep-bench-suite-v1",\n  "profile": "%s",\n  "exhibits": {\n' "$profile"
  first=1
  for bench in "${figure_benches[@]}"; do
    [[ $first -eq 0 ]] && printf ',\n'
    first=0
    printf '    "%s": ' "$bench"
    cat "$tmp/$bench.json"
  done
  printf '\n  }\n}\n'
} > "$out_figures"
echo "wrote $out_figures"

# --- sanity: both artifacts must parse as JSON ----------------------------
if command -v python3 > /dev/null 2>&1; then
  python3 - "$out_micro" "$out_figures" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f)
    print(f"validated {path}")
EOF
else
  echo "bench.sh: python3 not found, skipping JSON validation"
fi
