//! The estimate-based greedy search `EG` (Algorithm 1).
//!
//! Nodes are placed one at a time in descending relative-weight order;
//! for each node every candidate host is scored with the accumulated
//! utility plus the heuristic lower bound, and the best is taken
//! (`GetBest`, a linear pass — the candidates are never sorted).

use ostro_datacenter::HostId;

use crate::candidates::{feasible_hosts_into, pick_best, score_candidates_into, CandidateScratch};
use crate::error::PlacementError;
use crate::placement::SearchStats;
use crate::pool::lock_unpoisoned;
use crate::search::{Ctx, Path};

/// Builds the root path by applying pinned assignments (empty when no
/// nodes are pinned).
pub(crate) fn pinned_root<'a>(ctx: &Ctx<'a>) -> Result<Path<'a>, PlacementError> {
    let mut path = Path::empty(ctx);
    let mut scratch = CandidateScratch::default();
    let mut stats = SearchStats::default();
    for i in 0..ctx.pinned_prefix {
        let node = ctx.order[i];
        // The order puts pinned nodes first, so a `None` here is an
        // internal inconsistency; surface it rather than panic.
        let Some(host) = ctx.pinned[node.index()] else {
            return Err(PlacementError::Infeasible {
                node,
                name: ctx.topo.node(node).name().to_owned(),
            });
        };
        feasible_hosts_into(ctx, &path, node, &mut scratch, &mut stats);
        if !scratch.hosts.contains(&host) {
            return Err(PlacementError::Infeasible {
                node,
                name: ctx.topo.node(node).name().to_owned(),
            });
        }
        path = path.place(ctx, node, host).ok_or_else(|| PlacementError::Infeasible {
            node,
            name: ctx.topo.node(node).name().to_owned(),
        })?;
    }
    Ok(path)
}

/// Runs EG from `start` to a complete placement.
///
/// Also used by BA\*/DBA\* to complete partial paths into upper bounds
/// (`RunEG()`, Alg. 2 lines 3 and 17).
pub(crate) fn run_eg<'a>(
    ctx: &Ctx<'a>,
    start: &Path<'a>,
    stats: &mut SearchStats,
) -> Result<Path<'a>, PlacementError> {
    run_eg_capped(ctx, start, stats, 0)
}

/// EG with an optional cap on how many candidate hosts get the full
/// heuristic evaluation per step (`0` = all, the paper's algorithm).
///
/// With a cap, candidates are pre-ranked by the cheap accumulated-cost
/// probe (added hop-weighted bandwidth, then new-host activation) and
/// only the best `cap` receive the estimate-based score. DBA\* uses
/// this for its mid-search upper-bound refreshes so one refresh costs
/// a fraction of a full EG run.
pub(crate) fn run_eg_capped<'a>(
    ctx: &Ctx<'a>,
    start: &Path<'a>,
    stats: &mut SearchStats,
    cap: usize,
) -> Result<Path<'a>, PlacementError> {
    let mut path = start.fork();
    // One scratch for the whole run: candidate masks, host lists, and
    // scored buffers are reused across every node step.
    let mut scratch = CandidateScratch::default();
    while let Some(node) = path.next_node(ctx) {
        let infeasible =
            || PlacementError::Infeasible { node, name: ctx.topo.node(node).name().to_owned() };
        feasible_hosts_into(ctx, &path, node, &mut scratch, stats);
        if cap > 0 && scratch.hosts.len() > cap {
            let mut cheap: Vec<(u64, bool, HostId)> = scratch
                .hosts
                .iter()
                .filter_map(|&h| {
                    let added = path.probe(ctx, node, h)?;
                    Some((added, !path.overlay.is_active(h), h))
                })
                .collect();
            cheap.sort_unstable();
            scratch.hosts.clear();
            scratch.hosts.extend(cheap.into_iter().take(cap).map(|(_, _, h)| h));
        }
        let (hosts, scored) = scratch.hosts_and_scored();
        score_candidates_into(ctx, &path, node, hosts, stats, scored);
        stats.expanded += 1;
        stats.generated += scored.len() as u64;
        // `GetBest`: one linear pass. The per-edge probe is necessary
        // but not sufficient, so materialization can still fail when
        // several flows share a saturated link; only then is the pass
        // repeated over the hosts not yet tried. `place_mut`
        // self-reverts on failure, so the path — and the activity
        // column synced to it by the scoring round — stays valid for
        // the next attempt.
        let placed = {
            let table = lock_unpoisoned(&ctx.table);
            loop {
                let Some(best) = pick_best(table.active(), scored) else { break false };
                if path.place_mut(ctx, node, best.host).is_some() {
                    break true;
                }
                scored.retain(|cand| cand.host != best.host);
            }
        };
        if !placed {
            return Err(infeasible());
        }
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveWeights;
    use crate::request::PlacementRequest;
    use ostro_datacenter::{CapacityState, HostId, Infrastructure, InfrastructureBuilder};
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

    fn run<'a>(
        topo: &'a ApplicationTopology,
        infra: &'a Infrastructure,
        base: &'a CapacityState,
    ) -> Path<'a> {
        let req = PlacementRequest {
            weights: ObjectiveWeights::BANDWIDTH_DOMINANT,
            parallel: false,
            ..PlacementRequest::default()
        };
        let ctx = Ctx::new(topo, infra, base, &req, vec![None; topo.node_count()]).unwrap();
        let root = pinned_root(&ctx).unwrap();
        run_eg(&ctx, &root, &mut SearchStats::default()).unwrap()
    }

    #[test]
    fn colocates_linked_nodes_when_possible() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        let v = b.volume("v", 100).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.link(c, v, Bandwidth::from_mbps(200)).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(2, 4);
        let base = CapacityState::new(&inf);
        let path = run(&topo, &inf, &base);
        assert_eq!(path.ubw_mbps, 0, "everything fits on one host");
        assert_eq!(path.new_hosts(), 1);
    }

    #[test]
    fn respects_diversity_while_minimizing_spread() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.diversity_zone("z", DiversityLevel::Host, &[a, c]).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(2, 4);
        let base = CapacityState::new(&inf);
        let path = run(&topo, &inf, &base);
        let ha = path.assignment[a.index()].unwrap();
        let hc = path.assignment[c.index()].unwrap();
        assert_ne!(ha, hc);
        // Host-level diversity allows same rack: cost 2 hops.
        assert_eq!(path.ubw_mbps, 200);
    }

    #[test]
    fn infeasible_when_capacity_is_exhausted() {
        let mut b = TopologyBuilder::new("t");
        b.vm("huge", 32, 1_024).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(1, 2);
        let base = CapacityState::new(&inf);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; 1]).unwrap();
        let root = Path::empty(&ctx);
        let err = run_eg(&ctx, &root, &mut SearchStats::default()).unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible { .. }));
    }

    #[test]
    fn pinned_root_places_and_validates() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(10)).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(2, 2);
        let base = CapacityState::new(&inf);
        let req = PlacementRequest::default();
        let mut pinned = vec![None; 2];
        pinned[a.index()] = Some(HostId::from_index(3));
        let ctx = Ctx::new(&topo, &inf, &base, &req, pinned).unwrap();
        let root = pinned_root(&ctx).unwrap();
        assert_eq!(root.placed, 1);
        assert_eq!(root.assignment[a.index()], Some(HostId::from_index(3)));
        let done = run_eg(&ctx, &root, &mut SearchStats::default()).unwrap();
        assert!(done.is_complete(&ctx));
        assert_eq!(done.assignment[a.index()], Some(HostId::from_index(3)));
    }

    #[test]
    fn capped_eg_matches_uncapped_when_cap_is_loose() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        let d = b.vm("d", 1, 1_024).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.link(c, d, Bandwidth::from_mbps(50)).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(2, 4);
        let base = CapacityState::new(&inf);
        let req = PlacementRequest { parallel: false, ..PlacementRequest::default() };
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; 3]).unwrap();
        let root = pinned_root(&ctx).unwrap();
        let full = run_eg(&ctx, &root, &mut SearchStats::default()).unwrap();
        let capped = run_eg_capped(&ctx, &root, &mut SearchStats::default(), 100).unwrap();
        assert_eq!(full.assignment, capped.assignment);
    }

    #[test]
    fn capped_eg_evaluates_fewer_candidates() {
        let mut b = TopologyBuilder::new("t");
        let mut prev = b.vm("v0", 1, 1_024).unwrap();
        for i in 1..4 {
            let v = b.vm(format!("v{i}"), 1, 1_024).unwrap();
            b.link(prev, v, Bandwidth::from_mbps(20)).unwrap();
            prev = v;
        }
        let topo = b.build().unwrap();
        let inf = infra(4, 8); // 32 candidate hosts
        let base = CapacityState::new(&inf);
        let req = PlacementRequest { parallel: false, ..PlacementRequest::default() };
        let ctx = Ctx::new(&topo, &inf, &base, &req, vec![None; 4]).unwrap();
        let root = pinned_root(&ctx).unwrap();
        let mut full_stats = SearchStats::default();
        let mut capped_stats = SearchStats::default();
        let full = run_eg(&ctx, &root, &mut full_stats).unwrap();
        let capped = run_eg_capped(&ctx, &root, &mut capped_stats, 4).unwrap();
        assert!(capped_stats.heuristic_evals < full_stats.heuristic_evals);
        assert!(capped.is_complete(&ctx));
        // Capped quality can only be as good or worse.
        assert!(full.u_star <= capped.u_star + 1e-9);
    }

    #[test]
    fn pinned_root_fails_on_infeasible_pin() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.diversity_zone("z", DiversityLevel::Rack, &[a, c]).unwrap();
        let topo = b.build().unwrap();
        let inf = infra(2, 2);
        let mut base = CapacityState::new(&inf);
        base.reserve_node(HostId::from_index(3), Resources::new(8, 16_384, 500)).unwrap();
        let req = PlacementRequest::default();
        let mut pinned = vec![None; 2];
        pinned[a.index()] = Some(HostId::from_index(3)); // full host
        let ctx = Ctx::new(&topo, &inf, &base, &req, pinned).unwrap();
        assert!(matches!(pinned_root(&ctx), Err(PlacementError::Infeasible { .. })));
    }
}
