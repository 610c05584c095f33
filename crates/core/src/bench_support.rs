//! Hooks for the kernel benchmark (`benches/kernel.rs` in the bench
//! crate), which needs to drive the crate-private search kernel —
//! child expansion and candidate scoring — without going through a
//! whole solver run.
//!
//! Hidden from docs: this is not a public API and carries no stability
//! promise.

// Harness-only code: fixtures are constructed, not parsed, so a
// violated expectation is a broken benchmark, not a runtime fault.
#![allow(clippy::expect_used)]

use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::ApplicationTopology;

use crate::candidates::{feasible_hosts_into, score_candidates_into, CandidateScratch};
use crate::placement::SearchStats;
use crate::request::PlacementRequest;
use crate::search::{Ctx, Path};

/// Builds a search context plus a path with the first `prefix` nodes
/// already placed (greedily, on the first host that admits them), so
/// benchmarks exercise a mid-search state rather than an empty one.
fn harness<'a>(
    topo: &'a ApplicationTopology,
    infra: &'a Infrastructure,
    base: &'a CapacityState,
    parallel: bool,
    memoize: bool,
    score_threads: usize,
    prefix: usize,
) -> (Ctx<'a>, Path<'a>) {
    let request = PlacementRequest {
        parallel,
        memoize_bounds: memoize,
        score_threads,
        ..PlacementRequest::default()
    };
    let ctx = Ctx::new(topo, infra, base, &request, vec![None; topo.node_count()])
        .expect("benchmark fixture must be valid");
    let mut path = Path::empty(&ctx);
    let n = infra.host_count();
    for i in 0..prefix.min(ctx.order.len().saturating_sub(1)) {
        let node = path.next_node(&ctx).expect("prefix within order");
        // Stride the prefix across hosts (and thus racks) so the
        // search state carries a realistic spread of host entries and
        // link reservations instead of one packed host.
        let start = i * 37 % n;
        let placed = (0..n).any(|k| {
            let host = infra.hosts()[(start + k) % n].id();
            path.place_mut(&ctx, node, host).is_some()
        });
        assert!(placed, "benchmark fixture must admit its prefix");
    }
    (ctx, path)
}

/// Runs `cycles` child expansions of the next unplaced node via the
/// delta-undo kernel: apply with `place_mut`, revert with `undo`.
/// Hosts are cycled round-robin. Returns the number of admitted
/// placements so the work cannot be optimized away.
#[must_use]
pub fn expansion_cycles_delta(
    topo: &ApplicationTopology,
    infra: &Infrastructure,
    base: &CapacityState,
    prefix: usize,
    cycles: u64,
) -> u64 {
    let (ctx, mut path) = harness(topo, infra, base, false, false, 1, prefix);
    let node = path.next_node(&ctx).expect("at least one unplaced node");
    let hosts: Vec<HostId> = infra.hosts().iter().map(|h| h.id()).collect();
    let mut admitted = 0;
    for i in 0..cycles {
        let host = hosts[i as usize % hosts.len()];
        if let Some(mark) = path.place_mut(&ctx, node, host) {
            admitted += 1;
            path.undo(mark);
        }
    }
    admitted
}

/// Scores every feasible candidate host for the next unplaced node
/// once — the inner loop of EG and of BA*'s upper-bound refreshes.
/// Returns the candidate count so the work cannot be optimized away.
///
/// `memoize` resolves the heuristic bounds once per decision region
/// (the engine's default) or evaluates them per host (the reference).
/// `score_threads` follows the request semantics
/// (0 = `available_parallelism`).
#[must_use]
pub fn scoring_round(
    topo: &ApplicationTopology,
    infra: &Infrastructure,
    base: &CapacityState,
    parallel: bool,
    memoize: bool,
    score_threads: usize,
    prefix: usize,
) -> usize {
    let (ctx, path) = harness(topo, infra, base, parallel, memoize, score_threads, prefix);
    let node = path.next_node(&ctx).expect("at least one unplaced node");
    let mut scratch = CandidateScratch::default();
    let mut stats = SearchStats::default();
    feasible_hosts_into(&ctx, &path, node, &mut scratch, &mut stats);
    let (hosts, scored) = scratch.hosts_and_scored();
    score_candidates_into(&ctx, &path, node, hosts, &mut stats, scored);
    scored.len()
}
