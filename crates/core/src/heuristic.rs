//! The estimate of §III-A2: a lower bound on the bandwidth cost of
//! completing a partial placement, computed by *approximately* placing
//! the remaining nodes onto the hosts already in use plus imaginary
//! hosts (Fig. 4).
//!
//! The bound is what makes EG's host choice forward-looking and what
//! lets BA\*/DBA\* prune: a path whose `u* + ū` already exceeds the
//! best known complete placement cannot win.
//!
//! Accounting rules (per the paper):
//! * imaginary hosts have the *maximum* real host capacity and are
//!   **not** counted toward `uc` — the host-count part of the bound is
//!   therefore zero, trivially admissible;
//! * an edge whose endpoints land on the same (real or imaginary) host
//!   costs nothing;
//! * a split edge costs its bandwidth times the *cheapest* hop cost
//!   compatible with the diversity constraints between its endpoints.
//!
//! # Regions: where one evaluation's answer holds
//!
//! The evaluator never consults host *identity* — only availabilities
//! and minimum separation costs. For a candidate host that carries no
//! node of the placement yet, it reads the candidate's availability `A`
//! only through `vreq.fits_within(avail[slot])` tests on the
//! candidate's own slot, and each such test is `used + vreq ≤ A` for a
//! `used` fixed by the outcomes before it. The bound is therefore
//! piecewise constant in `A`, and an evaluation can report the piece it
//! landed in as a [`Region`]: `lo`, the componentwise max of
//! `used + vreq` over every test that passed (starting from the node's
//! own requirement), and `fails`, the `used + vreq` of every test that
//! failed. Another untouched candidate with availability `B` passes and
//! fails exactly the same tests — hence reproduces every slot
//! assignment and the bound bit for bit — iff `lo ≤ B` and no
//! `T ∈ fails` has `T ≤ B`. That is an equality of computations, not a
//! hash of their inputs, so a scoring round can resolve its candidates
//! against a short list of regions with no key and no cache.

use std::cell::RefCell;

use ostro_datacenter::HostId;
use ostro_model::{NodeId, Resources};

use crate::search::{Ctx, Path};

/// Slot index type: real slots first, imaginary slots appended.
type SlotIdx = u32;
const UNASSIGNED: SlotIdx = SlotIdx::MAX;

/// Reusable per-thread buffers for one bound evaluation. The function
/// runs ~10⁵ times per solve on pool workers and the caller alike, so
/// its working set lives in thread-local (and, with pinned workers,
/// NUMA-local by first touch) memory instead of six fresh allocations
/// per call.
#[derive(Default)]
struct Scratch {
    /// Remaining capacity per slot (real slots first, imaginary after).
    avail: Vec<Resources>,
    /// Which slot each node sits on (placed, hypothetical, or approximated).
    of_node: Vec<SlotIdx>,
    /// Dense host-index → slot map (`UNASSIGNED` = no slot), replacing
    /// the former O(placed) association-list scan per lookup — the
    /// single hottest line of the scoring kernel at 1k hosts.
    slot_of_host: Vec<SlotIdx>,
    /// Host indices holding a `slot_of_host` entry, for O(slots) reset.
    slot_hosts: Vec<u32>,
    /// Per-slot linked bandwidth of the node being approximated.
    affinity: Vec<u64>,
    /// Slots with a nonzero `affinity` entry this pass.
    touched: Vec<SlotIdx>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Interns `h` as a real slot, seeding it with the overlay's remaining
/// availability on first sight.
fn slot_for(
    avail: &mut Vec<Resources>,
    slot_of_host: &mut [SlotIdx],
    slot_hosts: &mut Vec<u32>,
    path: &Path<'_>,
    h: HostId,
) -> SlotIdx {
    let hi = h.index();
    let existing = slot_of_host[hi];
    if existing != UNASSIGNED {
        return existing;
    }
    let s = avail.len() as SlotIdx;
    avail.push(path.overlay.available(h));
    slot_of_host[hi] = s;
    slot_hosts.push(hi as u32);
    s
}

/// The piece of availability space on which one evaluation's answer
/// holds (see the module docs): every untouched candidate whose
/// availability the region [`contains`](Region::contains) gets exactly
/// `bound`.
#[derive(Debug, Default)]
pub(crate) struct Region {
    /// Componentwise max of `used + vreq` over the passed fit tests on
    /// the candidate's slot, starting from the node's own requirement.
    lo: Resources,
    /// `used + vreq` of the failed fit tests, minimal ones only (a
    /// failure implied by a smaller one adds no constraint).
    fails: Vec<Resources>,
    /// The bound the evaluation returned.
    pub bound: u64,
}

impl Region {
    /// Whether an untouched candidate with availability `avail` repeats
    /// every fit outcome of the evaluation that produced this region.
    pub(crate) fn contains(&self, avail: Resources) -> bool {
        self.lo.fits_within(&avail) && !self.fails.iter().any(|t| t.fits_within(&avail))
    }

    /// Records one fit test `need ≤ A` on the candidate's slot.
    fn note(&mut self, need: Resources, fits: bool) {
        if fits {
            self.lo = self.lo.max(need);
        } else if !self.fails.iter().any(|t| t.fits_within(&need)) {
            self.fails.retain(|t| !need.fits_within(t));
            self.fails.push(need);
        }
    }
}

/// Estimates the hop-weighted Mbps still to be reserved after `path`
/// hypothetically places `node` on `host` (`GetHeuristic(vi, hj, ...)`).
///
/// With `region` set — meaningful only for a `host` that carries no
/// node of `path` yet — the evaluation also reports the [`Region`] of
/// candidate availabilities that share its answer.
pub(crate) fn lower_bound_mbps(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    host: HostId,
    region: Option<&mut Region>,
) -> u64 {
    SCRATCH.with(|cell| {
        let scratch = &mut *cell.borrow_mut();
        lower_bound_mbps_with(ctx, path, node, host, region, scratch)
    })
}

fn lower_bound_mbps_with(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    host: HostId,
    mut region: Option<&mut Region>,
    scratch: &mut Scratch,
) -> u64 {
    let n = ctx.topo.node_count();
    scratch.avail.clear();
    scratch.of_node.clear();
    scratch.of_node.resize(n, UNASSIGNED);
    if scratch.slot_of_host.len() < ctx.infra.host_count() {
        scratch.slot_of_host.resize(ctx.infra.host_count(), UNASSIGNED);
    }
    // Reset the previous call's host→slot entries (panic between calls
    // would leave them stale, so reset on entry, not exit).
    for &hi in &scratch.slot_hosts {
        scratch.slot_of_host[hi as usize] = UNASSIGNED;
    }
    scratch.slot_hosts.clear();

    // Seed real slots with the hosts this application already uses,
    // including the hypothetical host for `node`.
    for placed in ctx.topo.nodes() {
        if let Some(h) = path.assignment[placed.id().index()] {
            let s = slot_for(
                &mut scratch.avail,
                &mut scratch.slot_of_host,
                &mut scratch.slot_hosts,
                path,
                h,
            );
            scratch.of_node[placed.id().index()] = s;
        }
    }
    let cand = slot_for(
        &mut scratch.avail,
        &mut scratch.slot_of_host,
        &mut scratch.slot_hosts,
        path,
        host,
    );
    let req = ctx.topo.node(node).requirements();
    scratch.avail[cand as usize] = scratch.avail[cand as usize].saturating_sub(req);
    scratch.of_node[node.index()] = cand;
    // What this evaluation has put on the candidate's slot so far: a
    // fit test there reads the candidate's availability `A` as
    // `cand_used + vreq ≤ A`.
    let mut cand_used = req;
    if let Some(r) = region.as_deref_mut() {
        r.lo = req;
        r.fails.clear();
    }

    // Approximately place the remaining nodes, heaviest bandwidth
    // first, co-locating each with the slot it is most linked to.
    // `affinity` is all-zero between passes (each pass resets exactly
    // the entries it touched), so reuse across calls needs no clear.
    for &v in &ctx.bw_order {
        if scratch.of_node[v.index()] != UNASSIGNED {
            continue;
        }
        scratch.affinity.resize(scratch.avail.len(), 0);
        scratch.touched.clear();
        let mut assigned_bw = 0u64;
        let mut total_bw = 0u64;
        for &(neighbor, bw) in ctx.topo.neighbors(v) {
            total_bw += bw.as_mbps();
            let s = scratch.of_node[neighbor.index()];
            if s != UNASSIGNED {
                if scratch.affinity[s as usize] == 0 {
                    scratch.touched.push(s);
                }
                scratch.affinity[s as usize] += bw.as_mbps();
                assigned_bw += bw.as_mbps();
            }
        }
        // Slots carrying a diversity-zone co-member are forbidden
        // (same-host placement violates every level).
        let vreq = ctx.topo.node(v).requirements();
        let mut best: Option<(u64, SlotIdx)> = None;
        'slot: for &s in &scratch.touched {
            for &zone_id in ctx.topo.zones_of(v) {
                for &member in ctx.topo.zone(zone_id).members() {
                    if member != v && scratch.of_node[member.index()] == s {
                        continue 'slot;
                    }
                }
            }
            let fits = vreq.fits_within(&scratch.avail[s as usize]);
            if s == cand {
                if let Some(r) = region.as_deref_mut() {
                    r.note(cand_used + vreq, fits);
                }
            }
            if !fits {
                continue;
            }
            let score = scratch.affinity[s as usize];
            if best.is_none_or(|(b, bs)| score > b || (score == b && s < bs)) {
                best = Some((score, s));
            }
        }
        // Reset the touched affinity entries for the next node.
        for &s in &scratch.touched {
            scratch.affinity[s as usize] = 0;
        }
        let remaining_bw = total_bw - assigned_bw;
        let dest = match best {
            // Condition (4): if the node is pulled harder by the still
            // unplaced nodes, keep it free on a fresh imaginary host.
            Some((score, s)) if remaining_bw <= score => s,
            // Conditions (1)–(3): no capacity, all zones violated, or
            // no link to any used host.
            _ => {
                let s = scratch.avail.len() as SlotIdx;
                scratch.avail.push(ctx.max_capacity);
                s
            }
        };
        scratch.avail[dest as usize] = scratch.avail[dest as usize].saturating_sub(vreq);
        scratch.of_node[v.index()] = dest;
        if dest == cand {
            cand_used += vreq;
        }
    }

    // Cost every edge not already paid for by the placed prefix. The
    // per-link minimum split cost is precomputed in `ctx.link_costs`
    // (aligned with `topo.links()`).
    let mut bound = 0u64;
    for (link, &hop) in ctx.topo.links().iter().zip(&ctx.link_costs) {
        let (a, b) = link.endpoints();
        let a_placed = path.assignment[a.index()].is_some() || a == node;
        let b_placed = path.assignment[b.index()].is_some() || b == node;
        if a_placed && b_placed {
            continue; // accounted in u* (or in the probe's added cost)
        }
        let sa = scratch.of_node[a.index()];
        let sb = scratch.of_node[b.index()];
        if sa == sb {
            continue;
        }
        bound += link.bandwidth().as_mbps() * hop;
    }
    if let Some(r) = region {
        r.bound = bound;
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PlacementRequest;
    use ostro_datacenter::{CapacityState, Infrastructure, InfrastructureBuilder};
    use ostro_model::{ApplicationTopology, Bandwidth, DiversityLevel, TopologyBuilder};

    fn infra() -> Infrastructure {
        InfrastructureBuilder::flat(
            "dc",
            2,
            4,
            Resources::new(8, 16_384, 500),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap()
    }

    fn ctx_for<'a>(
        topo: &'a ApplicationTopology,
        infra: &'a Infrastructure,
        base: &'a CapacityState,
        req: &PlacementRequest,
    ) -> Ctx<'a> {
        Ctx::new(topo, infra, base, req, vec![None; topo.node_count()]).unwrap()
    }

    #[test]
    fn bound_is_zero_when_everything_can_colocate() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        let d = b.vm("d", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.link(c, d, Bandwidth::from_mbps(100)).unwrap();
        let topo = b.build().unwrap();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = ctx_for(&topo, &infra, &base, &req);
        let path = Path::empty(&ctx);
        let first = ctx.order[0];
        // All three VMs fit on one host, all linked -> everything
        // gravitates to the same slot, bound = 0.
        assert_eq!(lower_bound_mbps(&ctx, &path, first, HostId::from_index(0), None), 0);
    }

    #[test]
    fn diversity_forces_a_nonzero_bound() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.diversity_zone("z", DiversityLevel::Rack, &[a, c]).unwrap();
        let topo = b.build().unwrap();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = ctx_for(&topo, &infra, &base, &req);
        let path = Path::empty(&ctx);
        let first = ctx.order[0];
        // The rack-level zone forces the 100 Mbps edge across racks:
        // at least 4 hops.
        assert_eq!(lower_bound_mbps(&ctx, &path, first, HostId::from_index(0), None), 400);
    }

    #[test]
    fn capacity_pressure_forces_a_split() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 6, 2_048).unwrap();
        let c = b.vm("c", 6, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(50)).unwrap();
        let topo = b.build().unwrap();
        let infra = infra(); // 8 vCPUs per host: a and c cannot share
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = ctx_for(&topo, &infra, &base, &req);
        let path = Path::empty(&ctx);
        let first = ctx.order[0];
        // The second VM cannot fit next to the first: split across
        // hosts at min cost 2 hops => 100.
        assert_eq!(lower_bound_mbps(&ctx, &path, first, HostId::from_index(0), None), 100);
    }

    #[test]
    fn bound_never_exceeds_true_completion_cost_on_a_chain() {
        // a - b - c chain, all co-locatable: the bound from any partial
        // state must be <= the cost of the best completion (which is 0
        // when co-located).
        let mut b = TopologyBuilder::new("t");
        let x = b.vm("x", 1, 1_024).unwrap();
        let y = b.vm("y", 1, 1_024).unwrap();
        let z = b.vm("z", 1, 1_024).unwrap();
        b.link(x, y, Bandwidth::from_mbps(10)).unwrap();
        b.link(y, z, Bandwidth::from_mbps(10)).unwrap();
        let topo = b.build().unwrap();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = ctx_for(&topo, &infra, &base, &req);
        let path = Path::empty(&ctx);
        let first = ctx.order[0];
        assert_eq!(lower_bound_mbps(&ctx, &path, first, HostId::from_index(0), None), 0);
    }

    /// The invariant the region memo rests on: the bound never consults
    /// host *identity* — only availabilities and minimum separation
    /// costs — so two candidate hosts that are unused by the path and
    /// expose the same available capacity yield bit-identical bounds.
    #[test]
    fn equal_availability_unused_hosts_share_the_exact_bound() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        let d = b.vm("d", 4, 4_096).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.link(c, d, Bandwidth::from_mbps(150)).unwrap();
        b.diversity_zone("z", DiversityLevel::Rack, &[a, d]).unwrap();
        let topo = b.build().unwrap();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = ctx_for(&topo, &infra, &base, &req);
        let mut path = Path::empty(&ctx);
        let first = ctx.order[0];
        path.place_mut(&ctx, first, HostId::from_index(0)).unwrap();
        let node = path.next_node(&ctx).unwrap();
        // Every fresh host (1..8) is untouched with identical base
        // availability: the candidate bound must not depend on which
        // one we probe, across racks included.
        let reference = lower_bound_mbps(&ctx, &path, node, HostId::from_index(1), None);
        for i in 2..8 {
            assert_eq!(
                lower_bound_mbps(&ctx, &path, node, HostId::from_index(i), None),
                reference,
                "host {i} diverged from the group bound"
            );
        }
        // The used host's slot also carries the placed node, so it is
        // evaluated on its own; no assertion here.
    }

    /// A region is cut exactly where a fit test flips: one unit of the
    /// binding resource below the threshold lands in a different region
    /// with a different bound, anything at or above it shares the
    /// evaluated host's.
    #[test]
    fn region_boundary_sits_on_the_flipping_fit_test() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        let topo = b.build().unwrap();
        let infra = infra();
        let mut base = CapacityState::new(&infra);
        // Host 1 has room for exactly both VMs, host 2 is one vCPU
        // short of that, host 3 one MB short.
        base.reserve_node(HostId::from_index(1), Resources::new(4, 12_288, 0)).unwrap();
        base.reserve_node(HostId::from_index(2), Resources::new(5, 12_288, 0)).unwrap();
        base.reserve_node(HostId::from_index(3), Resources::new(4, 12_289, 0)).unwrap();
        let req = PlacementRequest::default();
        let ctx = ctx_for(&topo, &infra, &base, &req);
        let path = Path::empty(&ctx);
        let first = ctx.order[0];
        let eval = |i: u32| {
            let mut region = Region::default();
            let bound =
                lower_bound_mbps(&ctx, &path, first, HostId::from_index(i), Some(&mut region));
            assert_eq!(bound, region.bound);
            assert!(region.contains(base.available(HostId::from_index(i))), "host {i}");
            region
        };
        let roomy = eval(0);
        let exact = eval(1);
        assert_eq!(roomy.bound, 0);
        assert_eq!(exact.bound, 0);
        assert!(roomy.contains(base.available(HostId::from_index(1))), "same outcomes");
        for short in [2, 3] {
            let tight = eval(short);
            assert_eq!(tight.bound, 200, "host {short}: the pair must split");
            let avail = base.available(HostId::from_index(short));
            assert!(!roomy.contains(avail) && !exact.contains(avail), "host {short}");
            assert!(!tight.contains(base.available(HostId::from_index(1))));
        }
    }

    #[test]
    fn unlinked_heavy_nodes_go_to_imaginary_hosts_for_free() {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        for i in 0..4 {
            b.vm(format!("iso{i}"), 8, 16_384).unwrap();
        }
        let topo = b.build().unwrap();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = ctx_for(&topo, &infra, &base, &req);
        let path = Path::empty(&ctx);
        // No links at all: bound must be zero (imaginary hosts are free).
        assert_eq!(lower_bound_mbps(&ctx, &path, a, HostId::from_index(0), None), 0);
    }
}
