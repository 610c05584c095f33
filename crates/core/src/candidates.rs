//! Candidate-host enumeration (`GetCandidates`, Alg. 1 line 5) and
//! utility scoring (`GetUsage` + `GetHeuristic`, lines 7–9).
//!
//! Enumeration runs as a structure-of-arrays sweep: the per-request
//! [`CapacityTable`] is synced to the path's overlay, then branch-free
//! column compares build a per-host candidate bitmask (vectorized by
//! the compiler, or by explicit intrinsics under the `simd` feature).
//! Only the handful of hosts whose NIC admission depends on per-path
//! hash state (promised bandwidth, co-located neighbors) fall back to
//! the exact scalar screen — the sweep's decisions are bit-identical
//! to filtering every host through [`admits`].
//!
//! Scoring resolves the round's §III-A2 bounds first, against regions
//! instead of per host: [`lower_bound_mbps`] reports where each answer
//! holds, and [`resolve_bounds`] — the one resolver — evaluates only
//! the candidates no region of the round contains. The regions live
//! for that round alone; there is no bound cache of any kind.
//! `GetBest` (line 11) is [`pick_best`], a linear pass.

use ostro_datacenter::{CapacityTable, HostId};
use ostro_model::{DiversityLevel, NodeId, Proximity};

use crate::heuristic::{lower_bound_mbps, Region};
use crate::placement::SearchStats;
use crate::pool::lock_unpoisoned;
use crate::search::{Ctx, Path, NO_GROUP};

/// A candidate host together with the utilities the objective needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScoredCandidate {
    pub host: HostId,
    /// Hop-weighted Mbps added by this node's edges to placed neighbors.
    pub added_ubw: u64,
    /// Accumulated utility u\* of the child path.
    pub u_star: f64,
    /// u\* plus the heuristic lower bound — the A\* f-value.
    pub u_total: f64,
}

/// Reusable buffers for candidate enumeration and scoring, owned by the
/// caller so the per-expansion hot loop allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct CandidateScratch {
    /// Feasible hosts of the latest sweep, ascending.
    pub hosts: Vec<HostId>,
    /// One byte per host: 1 while the host survives every dense screen.
    mask: Vec<u8>,
    /// Hosts whose NIC admission needs the exact scalar screen.
    special: Vec<HostId>,
    /// Scored candidates of the latest scoring round.
    pub scored: Vec<ScoredCandidate>,
}

impl CandidateScratch {
    /// Split borrow: the current host list (shared) alongside the
    /// scored buffer (mutable), for passing both to
    /// [`score_candidates_into`].
    pub fn hosts_and_scored(&mut self) -> (&[HostId], &mut Vec<ScoredCandidate>) {
        (&self.hosts, &mut self.scored)
    }
}

/// All hosts passing the capacity, diversity, and symmetry screens for
/// placing `node` next on `path` (per-edge bandwidth feasibility is
/// checked during scoring, and definitively at materialization).
/// Convenience wrapper over [`feasible_hosts_into`] for tests and
/// one-shot callers; hot loops hold a [`CandidateScratch`] instead.
#[cfg(test)]
pub(crate) fn feasible_hosts(ctx: &Ctx<'_>, path: &Path<'_>, node: NodeId) -> Vec<HostId> {
    let mut scratch = CandidateScratch::default();
    let mut stats = SearchStats::default();
    feasible_hosts_into(ctx, path, node, &mut scratch, &mut stats);
    scratch.hosts
}

/// Fills `scratch.hosts` with every feasible host for placing `node`
/// next on `path` and returns how many otherwise-valid hosts the
/// §III-B3 symmetry floor excluded.
///
/// The capacity + NIC screen runs as a branch-free sweep over the
/// synced [`CapacityTable`] columns; the conservative NIC predicate
/// (total incident bandwidth, zero promised) is exact for every host
/// without path-local NIC state, and the few hosts with such state
/// (promised-bandwidth entries, placed neighbors' hosts) are re-screened
/// through the exact [`admits`] — so the result is bit-identical to the
/// all-scalar path.
pub(crate) fn feasible_hosts_into(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    scratch: &mut CandidateScratch,
    stats: &mut SearchStats,
) -> u64 {
    scratch.hosts.clear();
    let req = ctx.topo.node(node).requirements();
    if let Some(pinned) = ctx.pinned[node.index()] {
        stats.candidates_scanned += 1;
        if admits(ctx, path, node, req, pinned) {
            scratch.hosts.push(pinned);
        }
        return 0;
    }
    let n = ctx.infra.host_count();
    let range = ctx.sweep_range();
    let (lo, hi) = (range.start, range.end);
    stats.candidates_scanned += (hi - lo) as u64;
    let mask = &mut scratch.mask;
    // Out-of-range bytes stay 0 for the scratch's whole life: they are
    // zeroed here once and every writer below is range-restricted, so
    // a restricted sweep never pays an O(fleet) clear per expansion.
    if mask.len() != n {
        mask.clear();
        mask.resize(n, 0);
    }
    {
        let mut table = lock_unpoisoned(&ctx.table);
        table.sync(&path.overlay);
        // Conservative NIC demand: every incident edge off-host, no
        // promises (exact for hosts outside the special set below).
        let total_bw: u64 = ctx.topo.neighbors(node).iter().map(|&(_, bw)| bw.as_mbps()).sum();
        capacity_mask(&mut mask[lo..hi], &table, lo, req, total_bw);
        stats.candidates_pruned_simd += mask[lo..hi].iter().filter(|&&m| m == 0).count() as u64;
        // Latency bounds and diversity zones as dense column compares.
        for &(neighbor, proximity) in ctx.topo.proximity_bounds(node) {
            if let Some(neighbor_host) = path.assignment[neighbor.index()] {
                apply_within_mask(&mut mask[lo..hi], &table, lo, neighbor_host, proximity);
            }
        }
        for &zone_id in ctx.topo.zones_of(node) {
            let zone = ctx.topo.zone(zone_id);
            for &member in zone.members() {
                if member == node {
                    continue;
                }
                if let Some(member_host) = path.assignment[member.index()] {
                    apply_diversity_mask(&mut mask[lo..hi], &table, lo, member_host, zone.level());
                }
            }
        }
    }
    // Exact fix-ups: hosts carrying promised NIC bandwidth or a placed
    // neighbor of `node` — the only hosts where the dense NIC predicate
    // can differ (in either direction) from the exact screen.
    scratch.special.clear();
    for &host in path.promised_nic.keys() {
        if !scratch.special.contains(&host) {
            scratch.special.push(host);
        }
    }
    for &(neighbor, _) in ctx.topo.neighbors(node) {
        if let Some(host) = path.assignment[neighbor.index()] {
            if !scratch.special.contains(&host) {
                scratch.special.push(host);
            }
        }
    }
    for &host in &scratch.special {
        // Out-of-range hosts are not candidates no matter what the
        // exact screen says (their mask bytes must stay 0).
        if range.contains(&host.index()) {
            scratch.mask[host.index()] = u8::from(admits(ctx, path, node, req, host));
        }
    }
    // Symmetry floor last, counting hosts it alone excluded.
    let min_host = symmetry_floor(ctx, path, node);
    let mut skipped = 0;
    for (i, &m) in scratch.mask[lo..hi].iter().enumerate() {
        let i = lo + i;
        if m != 0 {
            if (i as u32) < min_host {
                skipped += 1;
            } else {
                scratch.hosts.push(HostId::from_index(i as u32));
            }
        }
    }
    skipped
}

/// Branch-free capacity + conservative-NIC sweep: `mask[i] = 1` iff
/// `req` fits host `i`'s effective availability and `nic_demand` fits
/// its NIC headroom. Scalar form; the compiler autovectorizes it.
fn capacity_mask_scalar(
    mask: &mut [u8],
    vcpus: &[u32],
    memory: &[u64],
    disk: &[u64],
    nic: &[u64],
    req: ostro_model::Resources,
    nic_demand: u64,
) {
    for (i, m) in mask.iter_mut().enumerate() {
        *m = u8::from(req.vcpus <= vcpus[i])
            & u8::from(req.memory_mb <= memory[i])
            & u8::from(req.disk_gb <= disk[i])
            & u8::from(nic_demand <= nic[i]);
    }
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn capacity_mask(
    mask: &mut [u8],
    table: &CapacityTable,
    lo: usize,
    req: ostro_model::Resources,
    nic: u64,
) {
    let hi = lo + mask.len();
    capacity_mask_scalar(
        mask,
        &table.vcpus()[lo..hi],
        &table.memory_mb()[lo..hi],
        &table.disk_gb()[lo..hi],
        &table.nic_mbps()[lo..hi],
        req,
        nic,
    );
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn capacity_mask(
    mask: &mut [u8],
    table: &CapacityTable,
    lo: usize,
    req: ostro_model::Resources,
    nic: u64,
) {
    let hi = lo + mask.len();
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: gated on runtime SSE4.2 support; all column slices
        // cover the same `lo..hi` host range, matching `mask`'s length
        // (loads are unaligned, so any offset is fine).
        unsafe {
            capacity_mask_sse42(
                mask,
                &table.vcpus()[lo..hi],
                &table.memory_mb()[lo..hi],
                &table.disk_gb()[lo..hi],
                &table.nic_mbps()[lo..hi],
                req,
                nic,
            );
        }
    } else {
        capacity_mask_scalar(
            mask,
            &table.vcpus()[lo..hi],
            &table.memory_mb()[lo..hi],
            &table.disk_gb()[lo..hi],
            &table.nic_mbps()[lo..hi],
            req,
            nic,
        );
    }
}

/// SSE4.2 sweep: two hosts per iteration. Unsigned 64-bit `<=` has no
/// direct intrinsic, so both sides are sign-flipped and compared with
/// the signed `cmpgt` (`a <= b  ⇔  !(flip(a) > flip(b))`).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "sse4.2")]
unsafe fn capacity_mask_sse42(
    mask: &mut [u8],
    vcpus: &[u32],
    memory: &[u64],
    disk: &[u64],
    nic: &[u64],
    req: ostro_model::Resources,
    nic_demand: u64,
) {
    use std::arch::x86_64::{
        __m128i, _mm_castsi128_pd, _mm_cmpgt_epi64, _mm_loadu_si128, _mm_movemask_pd, _mm_or_si128,
        _mm_set1_epi64x, _mm_xor_si128,
    };
    const FLIP: i64 = i64::MIN;
    let n = mask.len();
    let flip = _mm_set1_epi64x(FLIP);
    let req_m = _mm_set1_epi64x(req.memory_mb as i64 ^ FLIP);
    let req_d = _mm_set1_epi64x(req.disk_gb as i64 ^ FLIP);
    let req_n = _mm_set1_epi64x(nic_demand as i64 ^ FLIP);
    let pairs = n / 2 * 2;
    for i in (0..pairs).step_by(2) {
        let m = _mm_xor_si128(_mm_loadu_si128(memory.as_ptr().add(i).cast::<__m128i>()), flip);
        let d = _mm_xor_si128(_mm_loadu_si128(disk.as_ptr().add(i).cast::<__m128i>()), flip);
        let c = _mm_xor_si128(_mm_loadu_si128(nic.as_ptr().add(i).cast::<__m128i>()), flip);
        let reject = _mm_or_si128(
            _mm_or_si128(_mm_cmpgt_epi64(req_m, m), _mm_cmpgt_epi64(req_d, d)),
            _mm_cmpgt_epi64(req_n, c),
        );
        let bits = _mm_movemask_pd(_mm_castsi128_pd(reject));
        mask[i] = u8::from(bits & 1 == 0) & u8::from(req.vcpus <= vcpus[i]);
        mask[i + 1] = u8::from(bits & 2 == 0) & u8::from(req.vcpus <= vcpus[i + 1]);
    }
    for i in pairs..n {
        mask[i] = u8::from(req.vcpus <= vcpus[i])
            & u8::from(req.memory_mb <= memory[i])
            & u8::from(req.disk_gb <= disk[i])
            & u8::from(nic_demand <= nic[i]);
    }
}

/// Clears mask bits for hosts outside `neighbor_host`'s `proximity`
/// unit, replicating [`Infrastructure::within`] semantics densely
/// (`a == b` always passes; `Host` admits only the neighbor's host).
///
/// [`Infrastructure::within`]: ostro_datacenter::Infrastructure::within
fn apply_within_mask(
    mask: &mut [u8],
    table: &CapacityTable,
    lo: usize,
    neighbor_host: HostId,
    proximity: Proximity,
) {
    // `mask` covers hosts `lo..lo + mask.len()`; the neighbor is
    // addressed globally (it may sit outside a restricted sweep).
    let ni = neighbor_host.index();
    let column = match proximity {
        Proximity::Host => {
            for (i, m) in mask.iter_mut().enumerate() {
                *m &= u8::from(lo + i == ni);
            }
            return;
        }
        Proximity::Rack => table.racks(),
        Proximity::Pod => table.pods(),
        Proximity::DataCenter => table.sites(),
    };
    let unit = column[ni];
    for (m, &c) in mask.iter_mut().zip(&column[lo..]) {
        *m &= u8::from(c == unit);
    }
}

/// Clears mask bits for hosts violating a diversity zone against a
/// placed member on `member_host`, replicating
/// [`Infrastructure::satisfies_diversity`] densely (`a == b` always
/// fails; `Host` level excludes only the member's host).
///
/// [`Infrastructure::satisfies_diversity`]:
///     ostro_datacenter::Infrastructure::satisfies_diversity
fn apply_diversity_mask(
    mask: &mut [u8],
    table: &CapacityTable,
    lo: usize,
    member_host: HostId,
    level: DiversityLevel,
) {
    // `mask` covers hosts `lo..lo + mask.len()`; the member is
    // addressed globally (it may sit outside a restricted sweep).
    let mi = member_host.index();
    let column = match level {
        DiversityLevel::Host => {
            if (lo..lo + mask.len()).contains(&mi) {
                mask[mi - lo] = 0;
            }
            return;
        }
        DiversityLevel::Rack => table.racks(),
        DiversityLevel::Pod => table.pods(),
        DiversityLevel::DataCenter => table.sites(),
    };
    let unit = column[mi];
    for (m, &c) in mask.iter_mut().zip(&column[lo..]) {
        *m &= u8::from(c != unit);
    }
}

/// Capacity, NIC-headroom, and diversity screen for one (node, host)
/// pair. `req` is `node`'s requirements, hoisted by the caller.
fn admits(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    req: ostro_model::Resources,
    host: HostId,
) -> bool {
    if !req.fits_within(&path.overlay.available(host)) {
        return false;
    }
    // Bandwidth admission control: the host's NIC must be able to
    // carry (a) every incident edge of this node that is not already
    // co-located here, now or in the future, plus (b) the bandwidth
    // already promised to residents' still-unplaced edges. Without
    // this screen a one-shot search can park nodes on a host whose
    // NIC then saturates, stranding residents' future edges — a
    // dead-end the paper's testbed never triggers but Table IV's
    // 100 Mbps-headroom hosts do.
    let mut off_host_mbps = 0u64;
    let mut promised_to_node_mbps = 0u64;
    for &(neighbor, bw) in ctx.topo.neighbors(node) {
        if path.assignment[neighbor.index()] == Some(host) {
            // A co-located resident's promise to us becomes void.
            promised_to_node_mbps += bw.as_mbps();
        } else {
            off_host_mbps += bw.as_mbps();
        }
    }
    let promised = path.promised_nic(host).saturating_sub(promised_to_node_mbps);
    let nic_avail = path.overlay.link_available(ostro_datacenter::LinkRef::HostNic(host)).as_mbps();
    if off_host_mbps + promised > nic_avail {
        return false;
    }
    // Latency bounds: a bounded link to an already-placed neighbor
    // forces this node into the same infrastructure unit.
    for &(neighbor, proximity) in ctx.topo.proximity_bounds(node) {
        if let Some(neighbor_host) = path.assignment[neighbor.index()] {
            if !ctx.infra.within(host, neighbor_host, proximity) {
                return false;
            }
        }
    }
    for &zone_id in ctx.topo.zones_of(node) {
        let zone = ctx.topo.zone(zone_id);
        for &member in zone.members() {
            if member == node {
                continue;
            }
            if let Some(member_host) = path.assignment[member.index()] {
                if !ctx.infra.satisfies_diversity(host, member_host, zone.level()) {
                    return false;
                }
            }
        }
    }
    true
}

/// §III-B3 symmetry reduction: interchangeable zone siblings must be
/// assigned hosts in strictly increasing order, so `node` may only go
/// to hosts above the last-placed sibling's.
fn symmetry_floor(ctx: &Ctx<'_>, path: &Path<'_>, node: NodeId) -> u32 {
    let group = ctx.sym_group[node.index()];
    if group == NO_GROUP {
        return 0;
    }
    let mut floor = 0;
    for other in ctx.topo.nodes() {
        let oid = other.id();
        if oid != node && ctx.sym_group[oid.index()] == group {
            if let Some(h) = path.assignment[oid.index()] {
                floor = floor.max(h.index() as u32 + 1);
            }
        }
    }
    floor
}

/// Scores every candidate: child accumulated utility plus heuristic
/// lower bound. Candidates whose per-edge bandwidth probe fails are
/// dropped. Runs on the context's persistent worker pool when the
/// request allows and the candidate set is large (the paper's "EG
/// computes the utility in parallel").
///
/// With memoization on (the default), heuristic bounds are resolved
/// first by [`resolve_bounds`] — one §III-A2 evaluation per decision
/// region of the round, not per host — and the remaining per-host work
/// (probe + objective) is cheap enough that chunked dispatch only
/// engages for large candidate sets.
///
/// The output order — and therefore every downstream decision — is
/// identical at any thread count and with memoization on or off: chunk
/// results are concatenated in chunk order (reproducing the serial host
/// order exactly), and a region serves the bit-exact bound a per-host
/// evaluation would.
#[cfg(test)]
pub(crate) fn score_candidates(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    hosts: &[HostId],
    stats: &mut SearchStats,
) -> Vec<ScoredCandidate> {
    let mut out = Vec::new();
    score_candidates_into(ctx, path, node, hosts, stats, &mut out);
    out
}

/// Like [`score_candidates`], filling a caller-owned buffer so hot
/// loops reuse one allocation across expansions. The buffer is cleared
/// first; output order is unchanged.
pub(crate) fn score_candidates_into(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    hosts: &[HostId],
    stats: &mut SearchStats,
    out: &mut Vec<ScoredCandidate>,
) {
    out.clear();
    stats.heuristic_evals += hosts.len() as u64;
    // The table lock is held for the whole round (workers read it
    // through the guard's shared reborrow; only this thread ever locks),
    // so bound resolution and every per-candidate probe read synced
    // columns directly.
    let mut table_guard = lock_unpoisoned(&ctx.table);
    table_guard.sync(&path.overlay);
    let table: &CapacityTable = &table_guard;
    let bounds = resolve_bounds(ctx, path, node, hosts, table, stats);
    let bound_of = |i: usize| bounds.as_ref().map(|b| b[i]);
    // `new_hosts` is identical for every candidate (the candidate's own
    // activation is added per host below), so the O(placed) walk runs
    // once per round instead of once per host.
    let path_new_hosts = path.new_hosts();
    let probe = ProbeCtx::new(ctx, path, node, table);
    let threads = ctx.score_threads;
    // Adaptive serial threshold: dispatch pays off only once every
    // participant can claim a few chunks of real work, so the floor
    // scales with the pool size instead of a fixed constant.
    let serial_threshold = (32 * threads).max(96);
    if !ctx.parallel || threads < 2 || hosts.len() < serial_threshold {
        out.extend(hosts.iter().enumerate().filter_map(|(i, &h)| {
            score_one(ctx, path, node, h, path_new_hosts, bound_of(i), &probe)
        }));
        return;
    }
    let pool = ctx.scoring_pool();
    // Contiguous chunks claimed off the pool's shared cursor: four per
    // participant balances steal granularity against claim overhead,
    // capped so one chunk's working set stays within the configured
    // cache budget (`chunk_bytes`). Chunk geometry never changes the
    // output — results are concatenated in chunk order.
    let flat = hosts.len().div_ceil(pool.threads() * 4);
    let chunk_size = flat.min(ctx.chunk_cap).max(1);
    let chunk_count = hosts.len().div_ceil(chunk_size);
    out.extend(pool.run_scored(chunk_count, &|ci, buf| {
        let offset = ci * chunk_size;
        let chunk = &hosts[offset..hosts.len().min(offset + chunk_size)];
        buf.extend(chunk.iter().enumerate().filter_map(|(j, &h)| {
            score_one(ctx, path, node, h, path_new_hosts, bound_of(offset + j), &probe)
        }));
    }));
}

/// Resolves the heuristic lower bound for every candidate of one
/// scoring round, or returns `None` when memoization is off (bounds are
/// then evaluated per host by [`score_one`], inside the parallel
/// region — the independent reference this resolver is tested against).
///
/// A candidate that already hosts part of the placement shares its slot
/// with placed nodes, so it is evaluated directly (at most one per used
/// host per round). Every other candidate is an untouched host whose
/// bound depends on it only through its availability, read here from
/// the synced `table` columns: it takes the bound of the [`Region`]
/// containing that availability — the one that hit last is tried first,
/// then the round's short list — and only a candidate no region
/// contains is evaluated, appending the region it reports. The list
/// lives for this round only; nothing is keyed, shared or kept.
fn resolve_bounds(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    hosts: &[HostId],
    table: &CapacityTable,
    stats: &mut SearchStats,
) -> Option<Vec<u64>> {
    if !ctx.memoize {
        return None;
    }
    let mut used: Vec<HostId> = path.assignment.iter().flatten().copied().collect();
    used.sort_unstable();
    used.dedup();
    let mut regions: Vec<Region> = Vec::new();
    let mut last = 0;
    let mut evaluated = 0u64;
    let bounds = hosts
        .iter()
        .map(|&h| {
            if used.binary_search(&h).is_ok() {
                evaluated += 1;
                return lower_bound_mbps(ctx, path, node, h, None);
            }
            let avail = table.available(h);
            if !regions.get(last).is_some_and(|r| r.contains(avail)) {
                last = match regions.iter().position(|r| r.contains(avail)) {
                    Some(hit) => hit,
                    None => {
                        evaluated += 1;
                        let mut region = Region::default();
                        lower_bound_mbps(ctx, path, node, h, Some(&mut region));
                        debug_assert!(region.contains(avail), "host outside its own region");
                        regions.push(region);
                        regions.len() - 1
                    }
                };
            }
            regions[last].bound
        })
        .collect();
    stats.bound_cache_misses += evaluated;
    stats.bound_cache_hits += hosts.len() as u64 - evaluated;
    Some(bounds)
}

/// The dense per-round flow screen: everything [`Path::probe`] reads,
/// gathered once per scoring round so per-candidate bandwidth admission
/// is pure array indexing — no hash probes, no route materialization.
/// Decisions and added-bandwidth sums are bit-identical to calling
/// `probe` per host (same links, same headroom, same hop weights).
struct ProbeCtx<'t> {
    /// The synced capacity table the candidates' columns come from.
    table: &'t CapacityTable,
    /// One entry per placed neighbor of the node being scored.
    neighbors: Vec<NeighborFlow>,
    /// Remaining ToR-uplink headroom per rack, overlay-synced (Mbps).
    tor: Vec<u64>,
    /// Remaining pod-uplink headroom per pod (unused entries for
    /// transparent pods, which carry no capacity).
    pod: Vec<u64>,
    /// Remaining site-uplink headroom per site.
    site: Vec<u64>,
    /// Whether each pod's uplink is real (capacity-bearing).
    pod_real: Vec<bool>,
}

/// One placed neighbor's flow, with its fixed (neighbor-side) route
/// quantities resolved up front.
struct NeighborFlow {
    host: HostId,
    rack: u32,
    pod: u32,
    site: u32,
    pod_real: bool,
    /// The edge's demand in Mbps.
    bw: u64,
    /// Headroom of the neighbor-side links a route may cross.
    nic: u64,
    tor: u64,
    pod_hr: u64,
    site_hr: u64,
}

impl<'t> ProbeCtx<'t> {
    fn new(ctx: &Ctx<'_>, path: &Path<'_>, node: NodeId, table: &'t CapacityTable) -> Self {
        use ostro_datacenter::LinkRef;
        let tor: Vec<u64> = ctx
            .infra
            .racks()
            .iter()
            .map(|r| path.overlay.link_available(LinkRef::TorUplink(r.id())).as_mbps())
            .collect();
        let pod: Vec<u64> = ctx
            .infra
            .pods()
            .iter()
            .map(|p| path.overlay.link_available(LinkRef::PodUplink(p.id())).as_mbps())
            .collect();
        let site: Vec<u64> = ctx
            .infra
            .sites()
            .iter()
            .map(|s| path.overlay.link_available(LinkRef::SiteUplink(s.id())).as_mbps())
            .collect();
        let pod_real: Vec<bool> = ctx.infra.pods().iter().map(|p| !p.is_transparent()).collect();
        let neighbors = ctx
            .topo
            .neighbors(node)
            .iter()
            .filter_map(|&(neighbor, bw)| {
                let host = path.assignment[neighbor.index()]?;
                let hi = host.index();
                let (r, p, s) = (table.racks()[hi], table.pods()[hi], table.sites()[hi]);
                Some(NeighborFlow {
                    host,
                    rack: r,
                    pod: p,
                    site: s,
                    pod_real: pod_real[p as usize],
                    bw: bw.as_mbps(),
                    nic: table.nic_mbps()[hi],
                    tor: tor[r as usize],
                    pod_hr: pod[p as usize],
                    site_hr: site[s as usize],
                })
            })
            .collect();
        ProbeCtx { table, neighbors, tor, pod, site, pod_real }
    }

    /// Bit-identical replacement for [`Path::probe`]: `None` when any
    /// edge's flow (or the summed off-host NIC demand) does not fit,
    /// otherwise the hop-weighted Mbps placing the node here adds.
    fn admit(&self, host: HostId) -> Option<u64> {
        let hi = host.index();
        let (rack, pod, site) =
            (self.table.racks()[hi], self.table.pods()[hi], self.table.sites()[hi]);
        let nic = self.table.nic_mbps()[hi];
        let mut added = 0u64;
        let mut nic_demand = 0u64;
        for nb in &self.neighbors {
            if nb.host == host {
                // Co-located: zero hops, no links crossed.
                continue;
            }
            // Walk the same levels `route_pair` would, folding each
            // crossed link's headroom into the min and counting hops
            // exactly as `hop_cost` does.
            let mut headroom = nic.min(nb.nic);
            let mut hops = 2;
            if rack != nb.rack {
                headroom = headroom.min(self.tor[rack as usize]).min(nb.tor);
                hops = 4;
                if pod != nb.pod {
                    if self.pod_real[pod as usize] {
                        headroom = headroom.min(self.pod[pod as usize]);
                        hops += 1;
                    }
                    if nb.pod_real {
                        headroom = headroom.min(nb.pod_hr);
                        hops += 1;
                    }
                }
                if site != nb.site {
                    headroom = headroom.min(self.site[site as usize]).min(nb.site_hr);
                    hops += 2;
                }
            }
            if nb.bw > headroom {
                return None;
            }
            nic_demand += nb.bw;
            added += nb.bw * hops;
        }
        // Every off-host flow shares the candidate's NIC; the per-edge
        // checks above cannot see their sum.
        if nic_demand > nic {
            return None;
        }
        Some(added)
    }
}

fn score_one(
    ctx: &Ctx<'_>,
    path: &Path<'_>,
    node: NodeId,
    host: HostId,
    path_new_hosts: usize,
    bound: Option<u64>,
    probe: &ProbeCtx<'_>,
) -> Option<ScoredCandidate> {
    let added_ubw = probe.admit(host)?;
    let new_hosts = path_new_hosts + usize::from(probe.table.active()[host.index()] == 0);
    let ubw_child = path.ubw_mbps + added_ubw;
    let u_star = ctx.objective(ubw_child, new_hosts);
    let bound = match bound {
        Some(resolved) => resolved,
        None if ctx.use_estimate => lower_bound_mbps(ctx, path, node, host, None),
        None => 0,
    };
    let u_total = ctx.objective(ubw_child + bound, new_hosts);
    Some(ScoredCandidate { host, added_ubw, u_star, u_total })
}

/// `GetBest` (Alg. 1 line 11): the candidate minimizing the estimated
/// total utility, tie-broken toward already-active hosts and then the
/// lowest host index (deterministic). `active` is the synced table's
/// activity column. The one place this order is written.
pub(crate) fn pick_best(active: &[u8], scored: &[ScoredCandidate]) -> Option<ScoredCandidate> {
    scored
        .iter()
        .min_by(|a, b| {
            a.u_total
                .total_cmp(&b.u_total)
                .then_with(|| active[b.host.index()].cmp(&active[a.host.index()]))
                .then_with(|| a.host.cmp(&b.host))
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::PlacementRequest;
    use ostro_datacenter::{CapacityState, Infrastructure, InfrastructureBuilder};
    use ostro_model::{ApplicationTopology, Bandwidth, DiversityLevel, Resources, TopologyBuilder};

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

    fn topo_pair() -> ApplicationTopology {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 4, 8_192).unwrap();
        let c = b.vm("c", 4, 8_192).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.diversity_zone("z", DiversityLevel::Rack, &[a, c]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn capacity_screen_excludes_full_hosts() {
        let topo = topo_pair();
        let infra = infra();
        let mut base = CapacityState::new(&infra);
        base.reserve_node(HostId::from_index(0), Resources::new(8, 16_384, 500)).unwrap();
        let req = PlacementRequest { zone_symmetry: false, ..PlacementRequest::default() };
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 2]).unwrap();
        let path = Path::empty(&ctx);
        let node = ctx.order[0];
        let hosts = feasible_hosts(&ctx, &path, node);
        assert_eq!(hosts.len(), 7);
        assert!(!hosts.contains(&HostId::from_index(0)));
    }

    #[test]
    fn diversity_screen_uses_zone_level() {
        let topo = topo_pair();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest { zone_symmetry: false, ..PlacementRequest::default() };
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 2]).unwrap();
        let path = Path::empty(&ctx);
        let first = ctx.order[0];
        let second = ctx.order[1];
        let child = path.place(&ctx, first, HostId::from_index(1)).unwrap();
        let hosts = feasible_hosts(&ctx, &child, second);
        // Rack 0 is hosts 0..4; the rack-level zone forbids all of them.
        assert_eq!(hosts.len(), 4);
        assert!(hosts.iter().all(|h| h.index() >= 4));
    }

    #[test]
    fn pinned_node_gets_exactly_its_host() {
        let topo = topo_pair();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest { zone_symmetry: false, ..PlacementRequest::default() };
        let a = topo.node_by_name("a").unwrap().id();
        let mut pinned = vec![None; 2];
        pinned[a.index()] = Some(HostId::from_index(5));
        let ctx = Ctx::new(&topo, &infra, &base, &req, pinned).unwrap();
        let path = Path::empty(&ctx);
        assert_eq!(feasible_hosts(&ctx, &path, a), vec![HostId::from_index(5)]);
    }

    #[test]
    fn symmetry_floor_orders_sibling_hosts() {
        let mut b = TopologyBuilder::new("t");
        let hub = b.vm("hub", 1, 1_024).unwrap();
        let w1 = b.vm("w1", 1, 1_024).unwrap();
        let w2 = b.vm("w2", 1, 1_024).unwrap();
        b.link(hub, w1, Bandwidth::from_mbps(10)).unwrap();
        b.link(hub, w2, Bandwidth::from_mbps(10)).unwrap();
        b.diversity_zone("z", DiversityLevel::Host, &[w1, w2]).unwrap();
        let topo = b.build().unwrap();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 3]).unwrap();
        assert_ne!(ctx.sym_group[w1.index()], NO_GROUP);

        let mut path = Path::empty(&ctx);
        // Place nodes until w1 is placed (order may interleave hub).
        while let Some(n) = path.next_node(&ctx) {
            if n == w2 {
                break;
            }
            let host = if n == w1 { HostId::from_index(3) } else { HostId::from_index(0) };
            path = path.place(&ctx, n, host).unwrap();
        }
        let hosts = feasible_hosts(&ctx, &path, w2);
        assert!(!hosts.is_empty());
        assert!(hosts.iter().all(|h| h.index() > 3));
    }

    #[test]
    fn scoring_prefers_colocation_for_bandwidth_dominant_weights() {
        let topo = topo_no_zone();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest {
            weights: crate::objective::ObjectiveWeights::BANDWIDTH_DOMINANT,
            zone_symmetry: false,
            parallel: false,
            ..PlacementRequest::default()
        };
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 2]).unwrap();
        let path = Path::empty(&ctx);
        let first = ctx.order[0];
        let child = path.place(&ctx, first, HostId::from_index(0)).unwrap();
        let second = child.next_node(&ctx).unwrap();
        let hosts = feasible_hosts(&ctx, &child, second);
        let mut stats = SearchStats::default();
        let scored = score_candidates(&ctx, &child, second, &hosts, &mut stats);
        let best = pick_best(&active_column(&ctx, &child), &scored).unwrap();
        assert_eq!(best.host, HostId::from_index(0));
        assert_eq!(best.added_ubw, 0);
        assert_eq!(stats.heuristic_evals, hosts.len() as u64);
    }

    fn topo_no_zone() -> ApplicationTopology {
        let mut b = TopologyBuilder::new("t");
        let a = b.vm("a", 2, 2_048).unwrap();
        let c = b.vm("c", 2, 2_048).unwrap();
        b.link(a, c, Bandwidth::from_mbps(100)).unwrap();
        b.build().unwrap()
    }

    /// The activity column [`pick_best`] reads, synced to `path`.
    fn active_column(ctx: &Ctx<'_>, path: &Path<'_>) -> Vec<u8> {
        let mut table = lock_unpoisoned(&ctx.table);
        table.sync(&path.overlay);
        table.active().to_vec()
    }

    #[test]
    fn parallel_and_serial_scoring_agree() {
        let topo = topo_no_zone();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let mk = |parallel| PlacementRequest {
            parallel,
            zone_symmetry: false,
            ..PlacementRequest::default()
        };
        let req_par = mk(true);
        let req_ser = mk(false);
        let ctx_p = Ctx::new(&topo, &infra, &base, &req_par, vec![None; 2]).unwrap();
        let ctx_s = Ctx::new(&topo, &infra, &base, &req_ser, vec![None; 2]).unwrap();
        let path_p = Path::empty(&ctx_p);
        let path_s = Path::empty(&ctx_s);
        let node = ctx_p.order[0];
        let hosts = feasible_hosts(&ctx_p, &path_p, node);
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        // Force the parallel path despite the small candidate count by
        // repeating the host list beyond the threshold.
        let many: Vec<HostId> = hosts.iter().cycle().take(200).copied().collect();
        let a = score_candidates(&ctx_p, &path_p, node, &many, &mut s1);
        let b = score_candidates(&ctx_s, &path_s, node, &many, &mut s2);
        assert_eq!(a, b);
    }

    /// A memoizing and a per-host-evaluating context over the same
    /// instance: the region memo and the independent reference it must
    /// equal bit for bit.
    fn memo_and_reference<'a>(
        topo: &'a ApplicationTopology,
        infra: &'a Infrastructure,
        base: &'a CapacityState,
    ) -> (Ctx<'a>, Ctx<'a>) {
        let mk = |memoize_bounds| {
            let req = PlacementRequest {
                memoize_bounds,
                zone_symmetry: false,
                ..PlacementRequest::default()
            };
            Ctx::new(topo, infra, base, &req, vec![None; topo.node_count()]).unwrap()
        };
        (mk(true), mk(false))
    }

    /// Scores one round both ways and asserts the region-resolved
    /// candidates equal the per-host reference, with every resolution
    /// accounted as a hit or an evaluation on the memo side and none on
    /// the reference side. Returns the round and its evaluation count.
    fn assert_round_matches_reference(
        (ctx_m, path_m): (&Ctx<'_>, &Path<'_>),
        (ctx_c, path_c): (&Ctx<'_>, &Path<'_>),
        node: NodeId,
        hosts: &[HostId],
        what: &str,
    ) -> (Vec<ScoredCandidate>, u64) {
        let mut sm = SearchStats::default();
        let mut sc = SearchStats::default();
        let memo = score_candidates(ctx_m, path_m, node, hosts, &mut sm);
        let reference = score_candidates(ctx_c, path_c, node, hosts, &mut sc);
        assert_eq!(memo, reference, "{what}: region memo diverged from per-host bounds");
        assert_eq!(sm.bound_cache_hits + sm.bound_cache_misses, hosts.len() as u64, "{what}");
        assert_eq!(sm.heuristic_evals, hosts.len() as u64, "{what}");
        assert_eq!(sc.bound_cache_hits + sc.bound_cache_misses, 0, "{what}");
        (memo, sm.bound_cache_misses)
    }

    #[test]
    fn memoized_scoring_matches_cold_cache_scoring() {
        let topo = topo_no_zone();
        let infra = infra();
        let base = CapacityState::new(&infra);
        let (ctx_m, ctx_c) = memo_and_reference(&topo, &infra, &base);
        let path_m = Path::empty(&ctx_m);
        let path_c = Path::empty(&ctx_c);
        let node = ctx_m.order[0];
        let hosts = feasible_hosts(&ctx_m, &path_m, node);
        let (first, evaluated) = assert_round_matches_reference(
            (&ctx_m, &path_m),
            (&ctx_c, &path_c),
            node,
            &hosts,
            "empty path",
        );
        // All eight hosts are untouched with identical availability:
        // one region, one heuristic evaluation.
        assert_eq!(evaluated, 1);
        // Regions live for one round: a second round evaluates again
        // and still lands on the same candidates.
        let (again, evaluated) = assert_round_matches_reference(
            (&ctx_m, &path_m),
            (&ctx_c, &path_c),
            node,
            &hosts,
            "second round",
        );
        assert_eq!(again, first);
        assert_eq!(evaluated, 1);
    }

    /// Over random small topologies, a search that places, descends,
    /// rolls back via [`PlacedMark`] undo, and re-scores must produce
    /// the scores it produced before the detour, and every round —
    /// before, inside and after the detour — must equal the per-host
    /// reference: nothing a round resolved outlives it.
    ///
    /// [`PlacedMark`]: crate::search::PlacedMark
    #[test]
    fn memo_survives_rollback_and_matches_cold_cache_on_random_topologies() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x05_7280);
        for trial in 0u64..25 {
            let mut b = TopologyBuilder::new(format!("t{trial}"));
            let n = rng.gen_range(3usize..7);
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    b.vm(format!("v{i}"), rng.gen_range(1u32..4), 1_024 * rng.gen_range(1u64..4))
                        .unwrap()
                })
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.4) {
                        b.link(ids[i], ids[j], Bandwidth::from_mbps(rng.gen_range(10u64..200)))
                            .unwrap();
                    }
                }
            }
            let topo = b.build().unwrap();
            let infra = infra();
            let base = CapacityState::new(&infra);
            let (ctx_m, ctx_c) = memo_and_reference(&topo, &infra, &base);
            let mut warm = Path::empty(&ctx_m);
            let mut cold = Path::empty(&ctx_c);
            while let Some(node) = warm.next_node(&ctx_m) {
                let hosts = feasible_hosts(&ctx_m, &warm, node);
                if hosts.is_empty() {
                    break;
                }
                let what = format!("trial {trial} node {node}");
                let (first, _) = assert_round_matches_reference(
                    (&ctx_m, &warm),
                    (&ctx_c, &cold),
                    node,
                    &hosts,
                    &what,
                );
                // Detour: place on a random feasible host, score the
                // *next* node down there, roll back.
                let detour_host = hosts[rng.gen_range(0usize..hosts.len())];
                if let Some(mark) = warm.place_mut(&ctx_m, node, detour_host) {
                    let cold_mark = cold.place_mut(&ctx_c, node, detour_host).unwrap();
                    if let Some(next) = warm.next_node(&ctx_m) {
                        let deeper = feasible_hosts(&ctx_m, &warm, next);
                        assert_round_matches_reference(
                            (&ctx_m, &warm),
                            (&ctx_c, &cold),
                            next,
                            &deeper,
                            &format!("{what} detour"),
                        );
                    }
                    warm.undo(mark);
                    cold.undo(cold_mark);
                }
                let (rescored, _) = assert_round_matches_reference(
                    (&ctx_m, &warm),
                    (&ctx_c, &cold),
                    node,
                    &hosts,
                    &format!("{what} after undo"),
                );
                assert_eq!(rescored, first, "{what}: rollback changed scores");
                let Some(best) = pick_best(&active_column(&ctx_m, &warm), &first) else { break };
                warm.place_mut(&ctx_m, node, best.host).unwrap();
                cold.place_mut(&ctx_c, node, best.host).unwrap();
            }
        }
    }

    /// The region memo's exactness property, where it is hardest: VM
    /// sizes differ, `Host`/`Rack` zones forbid slots, and every host's
    /// free capacity sits exactly on, one unit above or one unit below
    /// a multiple of a VM size — so fit tests flip between neighbouring
    /// hosts. Along a random place / descend / undo walk, at every step:
    /// the region-resolved round equals the per-host reference; every
    /// evaluated availability lies inside the region it produced; and
    /// every other untouched candidate inside that region evaluates to
    /// the region's bound on its own.
    #[test]
    fn region_memo_matches_per_host_bounds_on_boundary_capacities() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const VCPUS: [u32; 3] = [1, 2, 4];
        const MEMORY_MB: [u64; 3] = [1_024, 2_048, 3_072];
        const DISK_GB: [u64; 3] = [0, 10, 40];
        let mut rng = SmallRng::seed_from_u64(0x2E61_0BED);
        let capacity = Resources::new(16, 32_768, 500);
        let infra = InfrastructureBuilder::flat(
            "dc",
            3,
            6,
            capacity,
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap();
        let mut evaluated_total = 0u64;
        let mut resolved_total = 0u64;
        for trial in 0u64..30 {
            let mut b = TopologyBuilder::new(format!("t{trial}"));
            let n = rng.gen_range(3usize..9);
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    let vm = b
                        .vm(
                            format!("v{i}"),
                            VCPUS[rng.gen_range(0usize..3)],
                            MEMORY_MB[rng.gen_range(0usize..3)],
                        )
                        .unwrap();
                    let disk = DISK_GB[rng.gen_range(0usize..3)];
                    if disk > 0 {
                        let vol = b.volume(format!("d{i}"), disk).unwrap();
                        b.link(vm, vol, Bandwidth::from_mbps(rng.gen_range(10u64..100))).unwrap();
                    }
                    vm
                })
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.4) {
                        b.link(ids[i], ids[j], Bandwidth::from_mbps(rng.gen_range(10u64..200)))
                            .unwrap();
                    }
                }
            }
            for z in 0..rng.gen_range(0usize..3) {
                let level =
                    if rng.gen_bool(0.5) { DiversityLevel::Host } else { DiversityLevel::Rack };
                let members: Vec<_> =
                    ids.iter().copied().filter(|_| rng.gen_bool(0.5)).take(3).collect();
                if members.len() >= 2 {
                    b.diversity_zone(format!("z{z}"), level, &members).unwrap();
                }
            }
            let topo = b.build().unwrap();
            // Free capacity per host: a multiple of a VM size, nudged
            // by -1 / 0 / +1 in each dimension.
            let mut base = CapacityState::new(&infra);
            for host in infra.hosts() {
                let mut near_multiple = |sizes: &[u64], cap: u64| {
                    let multiple = sizes[rng.gen_range(0..sizes.len())] * rng.gen_range(0u64..6);
                    (multiple + rng.gen_range(0u64..3)).saturating_sub(1).min(cap)
                };
                let free = Resources::new(
                    near_multiple(&VCPUS.map(u64::from), u64::from(capacity.vcpus)) as u32,
                    near_multiple(&MEMORY_MB, capacity.memory_mb),
                    near_multiple(&DISK_GB[1..], capacity.disk_gb),
                );
                base.reserve_node(host.id(), capacity - free).unwrap();
            }
            let (ctx_m, ctx_c) = memo_and_reference(&topo, &infra, &base);
            let mut memo = Path::empty(&ctx_m);
            let mut reference = Path::empty(&ctx_c);
            let mut marks = Vec::new();
            for step in 0..40 {
                let what = format!("trial {trial} step {step}");
                let Some(node) = memo.next_node(&ctx_m) else {
                    let Some((m, c)) = marks.pop() else { break };
                    memo.undo(m);
                    reference.undo(c);
                    continue;
                };
                let hosts = feasible_hosts(&ctx_m, &memo, node);
                let (_, evaluated) = assert_round_matches_reference(
                    (&ctx_m, &memo),
                    (&ctx_c, &reference),
                    node,
                    &hosts,
                    &what,
                );
                evaluated_total += evaluated;
                resolved_total += hosts.len() as u64;
                let untouched: Vec<HostId> = hosts
                    .iter()
                    .copied()
                    .filter(|h| !memo.assignment.contains(&Some(*h)))
                    .collect();
                for &h in &untouched {
                    let mut region = Region::default();
                    lower_bound_mbps(&ctx_m, &memo, node, h, Some(&mut region));
                    assert!(
                        region.contains(memo.overlay.available(h)),
                        "{what}: host {h} evaluated outside its own region"
                    );
                    for &other in &untouched {
                        if region.contains(memo.overlay.available(other)) {
                            assert_eq!(
                                lower_bound_mbps(&ctx_c, &reference, node, other, None),
                                region.bound,
                                "{what}: host {other} is inside host {h}'s region"
                            );
                        }
                    }
                }
                if !hosts.is_empty() && rng.gen_bool(0.7) {
                    let host = hosts[rng.gen_range(0usize..hosts.len())];
                    if let Some(m) = memo.place_mut(&ctx_m, node, host) {
                        marks.push((m, reference.place_mut(&ctx_c, node, host).unwrap()));
                        continue;
                    }
                }
                if let Some((m, c)) = marks.pop() {
                    memo.undo(m);
                    reference.undo(c);
                }
            }
        }
        // The walk must actually exercise sharing, not degenerate into
        // one evaluation per host.
        assert!(resolved_total > 1_000, "walk too short: {resolved_total}");
        assert!(evaluated_total < resolved_total, "{evaluated_total} of {resolved_total}");
    }

    /// Scalar reference for the SoA sweep: the pre-vectorization
    /// per-host loop — every host through the exact [`admits`] screen,
    /// then the symmetry floor, counting floor-only exclusions.
    fn reference_feasible(ctx: &Ctx<'_>, path: &Path<'_>, node: NodeId) -> (Vec<HostId>, u64) {
        let req = ctx.topo.node(node).requirements();
        if let Some(pinned) = ctx.pinned[node.index()] {
            let hosts =
                if admits(ctx, path, node, req, pinned) { vec![pinned] } else { Vec::new() };
            return (hosts, 0);
        }
        let min_host = symmetry_floor(ctx, path, node);
        let mut skipped = 0;
        let hosts = ctx
            .infra
            .hosts()
            .iter()
            .map(|h| h.id())
            .filter(|&h| {
                if !admits(ctx, path, node, req, h) {
                    return false;
                }
                if (h.index() as u32) < min_host {
                    skipped += 1;
                    return false;
                }
                true
            })
            .collect();
        (hosts, skipped)
    }

    /// The tentpole's bit-identity property: over random topologies
    /// with zones, latency bounds, and tight NICs, the mask sweep must
    /// enumerate exactly the hosts (and the exact symmetry-skip count)
    /// the all-scalar screen does, at every point of a random
    /// place/undo churn walk.
    #[test]
    fn soa_sweep_matches_scalar_reference_under_churn() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x50A5_CAB1);
        // Tight NICs (600 Mbps against links up to 400) so the
        // conservative dense NIC predicate actually diverges from the
        // exact screen on promised/co-located hosts, forcing the
        // special-host fix-up path to earn its keep.
        let infra = InfrastructureBuilder::flat(
            "dc",
            3,
            4,
            Resources::new(8, 16_384, 500),
            Bandwidth::from_mbps(600),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap();
        for trial in 0u64..20 {
            let mut b = TopologyBuilder::new(format!("t{trial}"));
            let n = rng.gen_range(3usize..8);
            let ids: Vec<_> = (0..n)
                .map(|i| {
                    b.vm(format!("v{i}"), rng.gen_range(1u32..4), 1_024 * rng.gen_range(1u64..4))
                        .unwrap()
                })
                .collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.4) {
                        let bw = Bandwidth::from_mbps(rng.gen_range(10u64..400));
                        if rng.gen_bool(0.2) {
                            let prox = match rng.gen_range(0u8..3) {
                                0 => ostro_model::Proximity::Rack,
                                1 => ostro_model::Proximity::Pod,
                                _ => ostro_model::Proximity::DataCenter,
                            };
                            b.link_within(ids[i], ids[j], bw, prox).unwrap();
                        } else {
                            b.link(ids[i], ids[j], bw).unwrap();
                        }
                    }
                }
            }
            if rng.gen_bool(0.7) {
                let level = match rng.gen_range(0u8..3) {
                    0 => DiversityLevel::Host,
                    1 => DiversityLevel::Rack,
                    _ => DiversityLevel::Pod,
                };
                let members: Vec<_> =
                    ids.iter().copied().filter(|_| rng.gen_bool(0.6)).take(3).collect();
                if members.len() >= 2 {
                    b.diversity_zone("z", level, &members).unwrap();
                }
            }
            let topo = b.build().unwrap();
            let base = CapacityState::new(&infra);
            let req = PlacementRequest { parallel: false, ..PlacementRequest::default() };
            let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; n]).unwrap();
            let mut path = Path::empty(&ctx);
            let mut marks = Vec::new();
            let mut scratch = CandidateScratch::default();
            for step in 0..40 {
                if let Some(node) = path.next_node(&ctx) {
                    let mut stats = SearchStats::default();
                    let skipped = feasible_hosts_into(&ctx, &path, node, &mut scratch, &mut stats);
                    let (ref_hosts, ref_skipped) = reference_feasible(&ctx, &path, node);
                    assert_eq!(
                        scratch.hosts, ref_hosts,
                        "trial {trial} step {step}: sweep diverged from scalar reference"
                    );
                    assert_eq!(
                        skipped, ref_skipped,
                        "trial {trial} step {step}: symmetry-skip count diverged"
                    );
                    assert_eq!(stats.candidates_scanned, infra.host_count() as u64);
                    if !ref_hosts.is_empty() && rng.gen_bool(0.7) {
                        let host = ref_hosts[rng.gen_range(0usize..ref_hosts.len())];
                        if let Some(mark) = path.place_mut(&ctx, node, host) {
                            marks.push(mark);
                            continue;
                        }
                    }
                    match marks.pop() {
                        Some(mark) => path.undo(mark),
                        None => continue,
                    }
                } else if let Some(mark) = marks.pop() {
                    path.undo(mark);
                } else {
                    break;
                }
            }
        }
    }
}
