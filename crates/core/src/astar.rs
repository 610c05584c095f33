//! The bounded A\* search `BA*` (Algorithm 2) and the generic engine
//! shared with the deadline-bounded variant.
//!
//! Paths place nodes in the fixed relative-weight order (the *result*
//! does not depend on the order — unlike EG, every host combination is
//! reachable). Each open-queue entry is a *light* record (parent arena
//! index + one decision); full overlay states are materialized only
//! when an entry is popped, which keeps memory proportional to the
//! number of expansions rather than the number of generated paths.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use ostro_datacenter::HostId;
use ostro_model::NodeId;

use crate::candidates::{feasible_hosts_into, score_candidates_into, CandidateScratch};
use crate::error::PlacementError;
use crate::greedy::{pinned_root, run_eg, run_eg_capped};

/// Candidate-host cap for mid-search upper-bound refreshes; full EG
/// (uncapped) is used for the initial bound.
const REFRESH_CAP: usize = 128;
use crate::placement::SearchStats;
use crate::search::{pair_hash, Ctx, Path};

/// Hooks that specialize the engine: BA\* uses the no-op policy, DBA\*
/// plugs in deadline monitoring and probabilistic pruning.
pub(crate) trait SearchPolicy {
    /// Called when an entry of the given length enters the open queue.
    fn on_push(&mut self, _placed: usize) {}
    /// Called when an entry of the given length leaves the open queue.
    fn on_pop(&mut self, _placed: usize) {}
    /// Probabilistic pruning decision for a path of the given length.
    fn should_prune(&mut self, _placed: usize) -> bool {
        false
    }
    /// Called once per iteration; returning `true` aborts the search
    /// and falls back to the current upper bound.
    fn should_stop(&mut self, _stats: &SearchStats) -> bool {
        false
    }
    /// Tells the policy what the initial full EG run cost, so
    /// deadline-aware policies can budget upper-bound refreshes.
    fn note_initial_eg(&mut self, _elapsed: std::time::Duration) {}
    /// Whether to refresh the upper bound by greedily completing the
    /// just-materialized path (Alg. 2 lines 15–18). The default is the
    /// paper's rule: refresh whenever the popped utility makes progress.
    fn should_refresh(&mut self, _placed: usize, u_total: f64, umax: f64) -> bool {
        u_total > umax
    }
    /// Tells the policy what an upper-bound refresh just cost.
    fn note_refresh(&mut self, _elapsed: std::time::Duration) {}
}

/// The no-op policy: plain BA\*.
pub(crate) struct Unbounded;

impl SearchPolicy for Unbounded {}

#[derive(Debug, Clone, Copy)]
struct OpenEntry {
    u_total: f64,
    u_star: f64,
    parent: u32,
    node: NodeId,
    host: HostId,
    placed: u32,
    seq: u64,
}

impl PartialEq for OpenEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for OpenEntry {}

impl Ord for OpenEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the least utility pops
        // first. Ties: deeper paths first (bias to completion), then
        // insertion order for determinism.
        other
            .u_total
            .total_cmp(&self.u_total)
            .then_with(|| self.placed.cmp(&other.placed))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for OpenEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs the bounded A\* engine. `max_expansions == 0` means unlimited.
pub(crate) fn run_astar<'a, P: SearchPolicy>(
    ctx: &Ctx<'a>,
    stats: &mut SearchStats,
    max_expansions: u64,
    policy: &mut P,
) -> Result<Path<'a>, PlacementError> {
    let root = pinned_root(ctx)?;
    if root.is_complete(ctx) {
        return Ok(root);
    }

    // Line 3: initial upper bound from a full EG run.
    let mut scratch = SearchStats::default();
    stats.eg_runs += 1;
    let eg_started = std::time::Instant::now();
    let mut upper: Option<Path<'a>> = run_eg(ctx, &root, &mut scratch).ok();
    policy.note_initial_eg(eg_started.elapsed());
    let mut u_upper = upper.as_ref().map_or(f64::INFINITY, |p| p.u_star);
    stats.fold_scoring_effort(&scratch);

    // Expanded paths live in a flat arena (light open-queue entries
    // reference their parent by index); candidate masks, host lists,
    // and scored buffers are reused across every expansion.
    let mut arena: Vec<Path<'a>> = Vec::new();
    let mut cand_scratch = CandidateScratch::default();
    let mut open: BinaryHeap<OpenEntry> = BinaryHeap::new();
    let mut closed: HashSet<(u32, u64)> = HashSet::new();
    let mut umax = 0.0f64;
    let mut seq = 0u64;

    let finish = |upper: Option<Path<'a>>| upper.ok_or(PlacementError::Exhausted);

    // Expand the root directly (it has no generating entry).
    let mut frontier: Vec<(u32, Path<'a>)> = vec![(u32::MAX, root)];
    while let Some((_, path)) = frontier.pop() {
        // Frontier paths are incomplete by construction — a complete
        // path is recorded as an upper bound, never expanded.
        let Some(node) = path.next_node(ctx) else { continue };
        stats.symmetry_skipped += feasible_hosts_into(ctx, &path, node, &mut cand_scratch, stats);
        let (hosts, scored) = cand_scratch.hosts_and_scored();
        score_candidates_into(ctx, &path, node, hosts, stats, scored);
        stats.expanded += 1;
        stats.generated += scored.len() as u64;
        let parent_idx = arena.len() as u32;
        let parent_sig = path.signature;
        let parent_placed = path.placed as u32;
        arena.push(path);
        for cand in scored.iter().copied() {
            if cand.u_total >= u_upper {
                stats.pruned_by_bound += 1;
                continue;
            }
            let child_sig = parent_sig ^ pair_hash(node, cand.host);
            if closed.contains(&(parent_placed + 1, child_sig)) {
                stats.deduplicated += 1;
                continue;
            }
            if policy.should_prune(parent_placed as usize + 1) {
                stats.pruned_probabilistically += 1;
                continue;
            }
            policy.on_push(parent_placed as usize + 1);
            open.push(OpenEntry {
                u_total: cand.u_total,
                u_star: cand.u_star,
                parent: parent_idx,
                node,
                host: cand.host,
                placed: parent_placed + 1,
                seq,
            });
            seq += 1;
        }
        closed.insert((parent_placed, parent_sig));

        // Main loop (Alg. 2 lines 4–19).
        loop {
            if policy.should_stop(stats) {
                stats.deadline_hit = true;
                return finish(upper);
            }
            if max_expansions > 0 && stats.expanded >= max_expansions {
                return finish(upper);
            }
            let Some(entry) = open.pop() else {
                return finish(upper);
            };
            policy.on_pop(entry.placed as usize);
            // Line 6: nothing in the queue can beat the bound.
            if entry.u_total >= u_upper {
                return finish(upper);
            }
            if policy.should_prune(entry.placed as usize) {
                stats.pruned_probabilistically += 1;
                continue;
            }
            // Materialize lazily; combined-flow infeasibility surfaces here.
            let parent = &arena[entry.parent as usize];
            let Some(mut child) = parent.place(ctx, entry.node, entry.host) else {
                continue;
            };
            child.u_total = entry.u_total;
            debug_assert!((child.u_star - entry.u_star).abs() < 1e-9);
            // Line 7: a complete path popped with the least utility wins.
            if child.is_complete(ctx) {
                return Ok(child);
            }
            // Lines 15–18: progress detected — refresh the upper bound
            // by greedily completing this path.
            let refresh = policy.should_refresh(child.placed, child.u_total, umax);
            if child.u_total > umax {
                umax = child.u_total;
            }
            if refresh {
                let mut eg_stats = SearchStats::default();
                stats.eg_runs += 1;
                let refresh_started = std::time::Instant::now();
                let completion = run_eg_capped(ctx, &child, &mut eg_stats, REFRESH_CAP);
                stats.fold_scoring_effort(&eg_stats);
                if let Ok(completion) = completion {
                    if completion.u_star < u_upper {
                        u_upper = completion.u_star;
                        upper = Some(completion);
                    }
                }
                policy.note_refresh(refresh_started.elapsed());
            }
            frontier.push((entry.parent, child));
            break;
        }
    }
    finish(upper)
}

/// Runs plain BA\* (Algorithm 2).
pub(crate) fn run_bastar<'a>(
    ctx: &Ctx<'a>,
    stats: &mut SearchStats,
    max_expansions: u64,
) -> Result<Path<'a>, PlacementError> {
    run_astar(ctx, stats, max_expansions, &mut Unbounded)
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::objective::ObjectiveWeights;
    use crate::request::PlacementRequest;
    use ostro_datacenter::{CapacityState, Infrastructure, InfrastructureBuilder};
    use ostro_model::{ApplicationTopology, Bandwidth, DiversityLevel, Resources, TopologyBuilder};

    fn infra(racks: usize, hosts: usize) -> Infrastructure {
        InfrastructureBuilder::flat(
            "dc",
            racks,
            hosts,
            Resources::new(8, 16_384, 500),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap()
    }

    fn request() -> PlacementRequest {
        PlacementRequest {
            weights: ObjectiveWeights::BANDWIDTH_DOMINANT,
            parallel: false,
            ..PlacementRequest::default()
        }
    }

    fn star_topology(n: usize) -> ApplicationTopology {
        let mut b = TopologyBuilder::new("star");
        let hub = b.vm("hub", 2, 2_048).unwrap();
        let mut leaves = Vec::new();
        for i in 0..n {
            let leaf = b.vm(format!("leaf{i}"), 1, 1_024).unwrap();
            b.link(hub, leaf, Bandwidth::from_mbps(100)).unwrap();
            leaves.push(leaf);
        }
        b.diversity_zone("leaves", DiversityLevel::Host, &leaves).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn bastar_completes_and_beats_or_matches_eg() {
        let topo = star_topology(4);
        let inf = infra(2, 4);
        let base = CapacityState::new(&inf);
        let req = request();
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; topo.node_count()]).unwrap();

        let mut eg_stats = SearchStats::default();
        let eg_root = pinned_root(&ctx).unwrap();
        let eg = run_eg(&ctx, &eg_root, &mut eg_stats).unwrap();

        let mut ba_stats = SearchStats::default();
        let ba = run_bastar(&ctx, &mut ba_stats, 0).unwrap();
        assert!(ba.is_complete(&ctx));
        assert!(
            ba.u_star <= eg.u_star + 1e-12,
            "BA* ({}) must not lose to EG ({})",
            ba.u_star,
            eg.u_star
        );
        assert!(ba_stats.eg_runs >= 1);
    }

    /// The request's effort counters cover its embedded EG runs too:
    /// every scored host was scanned first, and with memoization on
    /// every bound resolution is either a region hit or an evaluation.
    #[test]
    fn embedded_eg_runs_fold_their_scoring_effort() {
        let topo = star_topology(5);
        let inf = infra(3, 4);
        let base = CapacityState::new(&inf);
        let req = request();
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; topo.node_count()]).unwrap();
        let mut ba = SearchStats::default();
        run_bastar(&ctx, &mut ba, 0).unwrap();
        let mut dba = SearchStats::default();
        crate::deadline::run_dbastar(&ctx, &mut dba, Duration::from_secs(5), 7, 0, 200).unwrap();
        for (tag, stats) in [("BA*", ba), ("DBA*", dba)] {
            assert!(stats.eg_runs >= 1, "{tag}");
            assert!(
                stats.candidates_scanned >= stats.heuristic_evals,
                "{tag}: {} hosts scored but only {} scanned",
                stats.heuristic_evals,
                stats.candidates_scanned
            );
            assert_eq!(
                stats.bound_cache_hits + stats.bound_cache_misses,
                stats.heuristic_evals,
                "{tag}: resolutions unaccounted for"
            );
        }
    }

    #[test]
    fn bastar_placement_respects_diversity() {
        let topo = star_topology(4);
        let inf = infra(2, 4);
        let base = CapacityState::new(&inf);
        let req = request();
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; topo.node_count()]).unwrap();
        let ba = run_bastar(&ctx, &mut SearchStats::default(), 0).unwrap();
        let zone = &topo.zones()[0];
        for (i, &a) in zone.members().iter().enumerate() {
            for &b in &zone.members()[i + 1..] {
                let ha = ba.assignment[a.index()].unwrap();
                let hb = ba.assignment[b.index()].unwrap();
                assert_ne!(ha, hb);
            }
        }
    }

    #[test]
    fn expansion_cap_falls_back_to_the_upper_bound() {
        let topo = star_topology(5);
        let inf = infra(3, 4);
        let base = CapacityState::new(&inf);
        let req = request();
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; topo.node_count()]).unwrap();
        let mut stats = SearchStats::default();
        let path = run_bastar(&ctx, &mut stats, 2).unwrap();
        assert!(path.is_complete(&ctx));
        assert!(stats.expanded <= 2);
    }

    #[test]
    fn bastar_finds_the_obvious_optimum() {
        // Two linked VMs, no constraints: optimal is co-location, cost 0.
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(2, 2);
        let base = CapacityState::new(&inf);
        let req = request();
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; 2]).unwrap();
        let path = run_bastar(&ctx, &mut SearchStats::default(), 0).unwrap();
        assert_eq!(path.ubw_mbps, 0);
        assert_eq!(path.new_hosts(), 1);
    }

    #[test]
    fn infeasible_topology_errors() {
        let mut b = TopologyBuilder::new("t");
        b.vm("huge", 32, 1_024).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(1, 2);
        let base = CapacityState::new(&inf);
        let req = request();
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; 1]).unwrap();
        let err = run_bastar(&ctx, &mut SearchStats::default(), 0).unwrap_err();
        assert!(matches!(err, PlacementError::Exhausted | PlacementError::Infeasible { .. }));
    }
}
