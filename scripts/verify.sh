#!/usr/bin/env bash
# Full verification recipe: build, tests (whole workspace), formatting,
# and lint gate. CI and pre-merge checks should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q
cargo test --workspace -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Kernel smoke (64 hosts) twice — scalar build, then the explicit
# `simd` intrinsics build — asserting the seeded EG/BA*/DBA* decision
# digest is identical: vectorized candidate filtering must never
# change a placement decision.
cargo bench -p ostro-bench --bench kernel -- --smoke
scalar_digest="$(grep -o '"decision_digest": "[0-9a-f]*"' target/BENCH_kernel_smoke.json)"
cargo bench -p ostro-bench --bench kernel --features simd -- --smoke
simd_digest="$(grep -o '"decision_digest": "[0-9a-f]*"' target/BENCH_kernel_smoke.json)"
diff <(echo "$scalar_digest") <(echo "$simd_digest")
# Shard smoke (64-host multi-pod fleet): runs the two-level sharded
# engine next to the unsharded baseline and diffs the seeded
# EG/BA*/DBA* decision digests — a sharded request whose K covers
# every pod must reproduce the unsharded decisions bit-for-bit.
cargo bench -p ostro-bench --bench shard -- --smoke
unsharded_digest="$(grep -o '"unsharded_digest": "[0-9a-f]*"' target/BENCH_shard_smoke.json \
  | grep -o '"[0-9a-f]*"$')"
sharded_all_digest="$(grep -o '"sharded_all_digest": "[0-9a-f]*"' target/BENCH_shard_smoke.json \
  | grep -o '"[0-9a-f]*"$')"
diff <(echo "$unsharded_digest") <(echo "$sharded_all_digest")
# Recovery smoke (32 hosts, seeded host crashes + launch failures):
# asserts internally that two same-seed runs yield bit-identical
# recovery reports for every algorithm.
cargo bench -p ostro-bench --bench recovery -- --smoke
# Journal smoke: replays every recovered state against the live books
# (bit-identity asserted internally) and pins that snapshot compaction
# replays fewer records than a full journal scan.
cargo bench -p ostro-bench --bench wal -- --smoke
# Seeded fault-injection churn through the CLI: crashes, transient
# launch failures, and stale-capacity races must complete without
# panics, and two identically-seeded runs must agree exactly
# (mean_solver_secs is wall clock, so it is stripped first).
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release -p ostro-cli -- example infra > "$tmp/infra.json"
churn_smoke() {
  cargo run -q --release -p ostro-cli -- churn --infra "$tmp/infra.json" \
    --arrivals 8 --lifetime 4 --seed 7 --crashes 2 \
    --launch-failure-prob 0.05 --stale-race-prob 0.2
}
churn_smoke > "$tmp/churn1.json"
churn_smoke > "$tmp/churn2.json"
diff <(grep -v mean_solver_secs "$tmp/churn1.json") \
     <(grep -v mean_solver_secs "$tmp/churn2.json")
# Session determinism through the CLI: two same-seed `place --session`
# runs must produce identical documents (elapsed_secs is wall clock,
# so it is stripped first).
cargo run -q --release -p ostro-cli -- example template > "$tmp/app.json"
session_place() {
  cargo run -q --release -p ostro-cli -- place --infra "$tmp/infra.json" \
    --template "$tmp/app.json" --session --stats --seed 7
}
session_place > "$tmp/place1.json"
session_place > "$tmp/place2.json"
diff <(grep -v elapsed_secs "$tmp/place1.json") \
     <(grep -v elapsed_secs "$tmp/place2.json")
# Crash-drill determinism through the CLI: churn with a write-ahead
# journal and scheduled mid-run scheduler crashes must match a run
# that never crashed (restart bookkeeping and wall clock stripped).
crash_churn() {
  cargo run -q --release -p ostro-cli -- churn --infra "$tmp/infra.json" \
    --arrivals 8 --lifetime 4 --seed 7 --crashes 2 \
    --launch-failure-prob 0.05 --stale-race-prob 0.2 "$@"
}
crash_churn --wal-dir "$tmp/wal-churn" --crash-at 3,6 > "$tmp/crash.json"
strip_restart_fields() {
  grep -v -e mean_solver_secs -e scheduler_restarts -e wal_records_replayed "$1"
}
diff <(strip_restart_fields "$tmp/crash.json") \
     <(strip_restart_fields "$tmp/churn1.json")
# Chaos smoke (small fleet): a burst-overload drill (bounded queue +
# deadline budgets, baseline vs degrade ladder) and a seeded WAL/panic
# fault storm under DurabilityPolicy::Reject — asserts every arrival
# resolves typed, no acknowledged commit is lost (recovered ≡ live
# books), and two same-seed storms are bit-identical.
cargo bench -p ostro-bench --bench chaos -- --smoke
# Service-vs-serial decision digest through the CLI: with one planner
# and batch size one the service degenerates to the serial path, so
# the same seeded stream must reach the identical decision set (the
# digest is order-independent and covers every placement/rejection).
serve_stream() {
  cargo run -q --release -p ostro-cli -- serve --infra "$tmp/infra.json" \
    --requests 8 --depart-prob 0.4 --seed 7 "$@"
}
serve_stream --serial > "$tmp/serve-serial.json"
serve_stream --planners 1 --batch 1 > "$tmp/serve-service.json"
diff <(grep -o '"decision_digest": "[0-9a-f]*"' "$tmp/serve-serial.json") \
     <(grep -o '"decision_digest": "[0-9a-f]*"' "$tmp/serve-service.json")
# Burst-overload serve through the CLI: a bounded ingress queue under a
# one-shot 32-request burst must shed with typed errors, account for
# every arrival in exactly one bucket, and still exit cleanly.
cargo run -q --release -p ostro-cli -- serve --infra "$tmp/infra.json" \
  --requests 32 --depart-prob 0.0 --seed 7 --planners 1 --batch 1 \
  --queue-depth 1 --degrade > "$tmp/serve-overload.json"
count() { grep -o "\"$1\": [0-9]*" "$tmp/serve-overload.json" | head -1 | grep -o '[0-9]*$'; }
test "$(count shed)" -gt 0
test "$(( $(count placed) + $(count rejected) + $(count shed) + $(count panicked) ))" \
  -eq "$(count arrivals)"
# Defrag smoke (64 hosts): churn-decays a multi-pod fleet, runs the
# maintenance plane's budgeted sweeps, and asserts internally that the
# fleet objective strictly beats the no-maintenance baseline, every
# sweep respects its move budget, and two same-seed runs produce
# bit-identical migration logs and final placement digests.
cargo bench -p ostro-bench --bench defrag -- --smoke
# Maintenance determinism through the CLI: every field of the maintain
# report is a pure function of the seed (no wall clock), so two
# same-seed runs — migration log digest and final decision digest
# included — must diff clean whole.
maintain_run() {
  cargo run -q --release -p ostro-cli -- maintain --infra "$tmp/infra.json" \
    --seed 7 --fail-stop 1 "$@"
}
maintain_run > "$tmp/maintain1.json"
maintain_run > "$tmp/maintain2.json"
diff "$tmp/maintain1.json" "$tmp/maintain2.json"
grep -q '"migration_log_digest"' "$tmp/maintain1.json"
# Churn-with-maintenance vs churn-without: at equal churn (same seed,
# same arrivals, same departures) the maintained fleet must end with a
# strictly lower fragmentation objective than the unmaintained baseline.
maintain_run --no-maintenance > "$tmp/maintain-base.json"
frag_after_objective() {
  grep -A6 '"frag_after"' "$1" | grep '"fleet_objective"' | grep -o '[0-9][0-9.]*'
}
maintained="$(frag_after_objective "$tmp/maintain1.json")"
baseline="$(frag_after_objective "$tmp/maintain-base.json")"
awk -v m="$maintained" -v b="$baseline" 'BEGIN {
  if (m >= b) { printf "maintenance did not reduce fragmentation: %s >= %s\n", m, b; exit 1 }
}'
# Recovery through the CLI: a journaled placement must be rebuildable
# from its write-ahead log alone.
cargo run -q --release -p ostro-cli -- place --infra "$tmp/infra.json" \
  --template "$tmp/app.json" --commit "$tmp/committed.json" \
  --wal-dir "$tmp/wal-place" > /dev/null
cargo run -q --release -p ostro-cli -- recover --infra "$tmp/infra.json" \
  --wal-dir "$tmp/wal-place" > "$tmp/recover.json"
grep -q '"records_replayed"' "$tmp/recover.json"
# The end-to-end benchmark's own unit tests, then its smoke run
# (<= 64 hosts, <= 64 arrivals, every check: commit-order replay,
# verify_placement on every commit, recovered ≡ live, same-seed and
# traced ≡ untraced digests). `e2e/` is a package of its own, so it
# builds into its own target directory.
CARGO_TARGET_DIR=target/e2e cargo test --offline -q --manifest-path e2e/Cargo.toml
CARGO_TARGET_DIR=target/e2e cargo run --release --offline --quiet \
  --manifest-path e2e/Cargo.toml -- --smoke | tee "$tmp/e2e-smoke.txt"
test "$(tail -n 1 "$tmp/e2e-smoke.txt")" = "e2e: all checks passed"
echo "verify: all checks passed"
