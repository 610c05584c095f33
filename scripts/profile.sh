#!/usr/bin/env bash
# Hot-spot profiling recipe for the search kernel.
#
# Wraps `perf` (and, when installed, `flamegraph`) around the kernel
# microbenchmark so a profile always measures the same workload the
# committed BENCH_kernel.json numbers come from. Usage:
#
#   scripts/profile.sh            # full-scale kernel bench under perf
#   scripts/profile.sh --smoke    # fast 64-host variant
#   scripts/profile.sh --simd     # profile the explicit-SIMD build
#
# Artifacts land in target/profile/: perf.data, a folded text report
# (perf-report.txt), and flamegraph.svg when the flamegraph tool is
# available.
#
# Reading the report
# ------------------
# The scoring hot path is, in descending expected weight:
#
#   ostro_core::candidates::score_candidates_into   one scoring round
#   ostro_core::candidates::ProbeCtx::admit         dense per-host flow screen
#   ostro_core::candidates::feasible_hosts_into     SoA candidate sweep
#   ostro_core::candidates::capacity_mask*          branch-free column compare
#   ostro_core::heuristic::lower_bound_mbps_with    §III-A2 bound (one per region)
#   ostro_datacenter::table::CapacityTable::sync    journal-tail replay
#
# Healthy profiles show `capacity_mask*` as a small flat cost (it
# touches four contiguous columns once per round) and `admit` with no
# hash-probe callees (`FxHashMap::get` under it means the dense screen
# regressed to per-link map lookups). `lower_bound_mbps_with`
# dominating usually means the region memo is disabled or its regions
# stopped matching (`bound_cache_misses` close to `heuristic_evals`) —
# check `scoring_parallel_uncached_us` vs `scoring_parallel_us` in
# BENCH_kernel.json before hunting micro-optimizations. A fat
# `CapacityTable::rebuild` indicates overlay rollbacks outrunning the
# journal-tail fast path (see DESIGN.md §7).
set -euo pipefail
cd "$(dirname "$0")/.."

smoke=""
features=""
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke="--smoke" ;;
    --simd) features="--features simd" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

out=target/profile
mkdir -p "$out"

# Build the bench binary with symbols; `cargo bench --no-run` puts it
# under target/release/deps with a hashed name, so ask cargo for it.
bin="$(cargo bench -p ostro-bench --bench kernel $features --no-run --message-format=json 2>/dev/null |
  sed -n 's/.*"executable":"\([^"]*kernel[^"]*\)".*/\1/p' | tail -1)"
if [ -z "$bin" ]; then
  echo "error: could not locate the kernel bench binary" >&2
  exit 1
fi
echo "profiling $bin $smoke"

if ! command -v perf >/dev/null 2>&1; then
  # No perf on this machine: still run the workload and report the
  # derived medians so the recipe degrades to a timing check.
  echo "warning: perf not found; running the bench without a profiler." >&2
  echo "Install linux-tools (perf) to produce $out/perf-report.txt." >&2
  "$bin" $smoke
  exit 0
fi

# DWARF call graphs resolve inlined scoring frames far better than
# frame pointers in release builds.
perf record -o "$out/perf.data" --call-graph dwarf,16384 -F 997 -- "$bin" $smoke
perf report -i "$out/perf.data" --stdio --percent-limit 0.5 > "$out/perf-report.txt"
echo "wrote $out/perf-report.txt"

if command -v flamegraph >/dev/null 2>&1; then
  flamegraph --perfdata "$out/perf.data" -o "$out/flamegraph.svg" >/dev/null 2>&1 &&
    echo "wrote $out/flamegraph.svg"
elif command -v stackcollapse-perf.pl >/dev/null 2>&1 && command -v flamegraph.pl >/dev/null 2>&1; then
  perf script -i "$out/perf.data" | stackcollapse-perf.pl > "$out/stacks.folded"
  flamegraph.pl "$out/stacks.folded" > "$out/flamegraph.svg"
  echo "wrote $out/flamegraph.svg"
else
  echo "flamegraph tooling not found; skipping SVG (report is enough for hot spots)."
fi
