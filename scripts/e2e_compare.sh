#!/usr/bin/env bash
# Before/after of the end-to-end benchmark: the `e2e` suite on a base
# commit and on the working tree, then `e2e --compare base head`.
# ROADMAP requires every open item to land with exactly this
# comparison. Usage:
#
#   scripts/e2e_compare.sh                      # HEAD~1 vs working tree
#   scripts/e2e_compare.sh main --runs 5        # spread from 5 runs a side
#   scripts/e2e_compare.sh HEAD~3 --seed 2      # a seed not used so far
#
# The base is checked out into a temporary `git worktree` under
# target/e2e-compare/ (removed on exit) and each side builds into its
# own CARGO_TARGET_DIR there, so neither build disturbs the other or
# the regular target/ tree. Both sides run traced (`--trace`), so the
# result files also carry the per-layer metrics. Offline; the exit
# status is `--compare`'s (non-zero on any `worse` row) or the first
# failing suite's.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

base_ref="HEAD~1"
runs=1
seed=1
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="${2:?--runs needs a value}"; shift 2 ;;
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    -h|--help) sed -n '2,17p' "$0"; exit 0 ;;
    -*) echo "unknown flag $1" >&2; exit 2 ;;
    *) base_ref="$1"; shift ;;
  esac
done

out="$root/target/e2e-compare"
mkdir -p "$out"
base_src="$(mktemp -d "$out/base-src.XXXXXX")"
cleanup() {
  git worktree remove --force "$base_src" 2>/dev/null || rm -rf "$base_src"
  git worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$base_src" "$base_ref"

# Runs the suite of the checkout at $2 into target dir $1, from inside
# that checkout so the result's `commit` stamp is its own.
suite() {
  (cd "$2" && CARGO_TARGET_DIR="$1" cargo run --release --offline --quiet \
    --manifest-path e2e/Cargo.toml -- --seed "$seed" --runs "$runs" --trace)
}
suite "$out/base" "$base_src"
suite "$out/head" "$root"

CARGO_TARGET_DIR="$out/head" cargo run --release --offline --quiet \
  --manifest-path e2e/Cargo.toml -- \
  --compare "$out/base/e2e/result-$seed.json" "$out/head/e2e/result-$seed.json"
