//! Shared search state: the per-request context and the partial
//! placement paths the algorithms branch over. The context carries no
//! heuristic-bound state — a scoring round resolves its bounds against
//! its own region list (`candidates::resolve_bounds`) and drops it.

use std::sync::OnceLock;

use ostro_datacenter::{
    CapacityState, CapacityTable, FxHashMap, HostId, Infrastructure, OverlayMark, OverlayState,
};
use ostro_model::{ApplicationTopology, DiversityLevel, NodeId, Resources};

use crate::error::PlacementError;
use crate::objective::{Normalizers, ObjectiveWeights};
use crate::request::PlacementRequest;

/// Sentinel meaning "node belongs to no symmetry group".
pub(crate) const NO_GROUP: u32 = u32::MAX;

/// Minimum hop costs needed to satisfy each diversity level on a given
/// infrastructure; used by the admissible heuristic.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SeparationCosts {
    host: u64,
    rack: u64,
    pod: u64,
    site: u64,
}

/// Hop cost stand-in for a separation the infrastructure cannot provide
/// at all; large but safe against overflow when multiplied by Mbps.
pub(crate) const INFEASIBLE_COST: u64 = 1 << 20;

impl SeparationCosts {
    pub(crate) fn compute(infra: &Infrastructure) -> Self {
        // Cheapest cross-site flow: NICs + ToRs + per-side pod uplink
        // (0 if the site has a transparent pod) + site uplinks.
        let site = if infra.sites().len() >= 2 {
            let mut side: Vec<u64> = infra
                .sites()
                .iter()
                .map(|s| {
                    let all_real = s.pods().iter().all(|&p| !infra.pod(p).is_transparent());
                    u64::from(all_real)
                })
                .collect();
            side.sort_unstable();
            4 + side[0] + side[1] + 2
        } else {
            INFEASIBLE_COST
        };
        // Cheapest cross-pod flow within one site.
        let pod = infra
            .sites()
            .iter()
            .filter(|s| s.pods().len() >= 2)
            .map(|s| {
                let mut contrib: Vec<u64> =
                    s.pods().iter().map(|&p| u64::from(!infra.pod(p).is_transparent())).collect();
                contrib.sort_unstable();
                4 + contrib[0] + contrib[1]
            })
            .min()
            .unwrap_or(site);
        let rack = if infra.pods().iter().any(|p| p.racks().len() >= 2) { 4 } else { pod };
        let host = if infra.racks().iter().any(|r| r.hosts().len() >= 2) { 2 } else { rack };
        SeparationCosts { host, rack, pod, site }
    }

    /// The cheapest hop cost of any placement separating two nodes at
    /// `level` (`None` = no constraint, co-location possible).
    pub(crate) fn min_cost(&self, level: Option<DiversityLevel>) -> u64 {
        match level {
            None => 0,
            Some(DiversityLevel::Host) => self.host,
            Some(DiversityLevel::Rack) => self.rack,
            Some(DiversityLevel::Pod) => self.pod,
            Some(DiversityLevel::DataCenter) => self.site,
        }
    }
}

/// Everything immutable the search needs, precomputed once per request.
pub(crate) struct Ctx<'a> {
    pub topo: &'a ApplicationTopology,
    pub infra: &'a Infrastructure,
    pub base: &'a CapacityState,
    pub weights: ObjectiveWeights,
    pub norm: Normalizers,
    /// Node placement order: pinned nodes first, then by descending
    /// relative weight (Algorithm 1's `Sort(V)`).
    pub order: Vec<NodeId>,
    /// Number of leading entries of `order` that are pinned.
    pub pinned_prefix: usize,
    /// Per node: the host it is pinned to (online re-placement).
    pub pinned: Vec<Option<HostId>>,
    /// Imaginary-host capacity: the max real host capacity (§III-A2).
    pub max_capacity: Resources,
    /// Symmetry group per node (`NO_GROUP` if none).
    pub sym_group: Vec<u32>,
    /// Remaining nodes pre-sorted by descending incident bandwidth,
    /// for the heuristic's `Sort by bandwidth requirement`.
    pub bw_order: Vec<NodeId>,
    pub parallel: bool,
    /// Whether candidate scoring includes the heuristic lower bound.
    pub use_estimate: bool,
    /// Resolved scoring participant count (request knob, or
    /// `available_parallelism` when the request said 0).
    pub score_threads: usize,
    /// Whether a scoring round resolves its heuristic bounds once per
    /// decision region (`true`) or evaluates them per host (`false`).
    pub memoize: bool,
    /// Persistent scoring workers, created lazily on the first
    /// over-threshold candidate set and reused for the whole run.
    /// Unused when a session provides its own longer-lived pool.
    pub(crate) pool: std::sync::OnceLock<crate::pool::ScoringPool>,
    /// Cross-request session state, when this request is served by a
    /// [`SchedulerSession`](crate::session::SchedulerSession).
    pub(crate) session: Option<&'a crate::session::SessionShared>,
    /// Cache-aware ceiling on scoring chunk length, resolved from the
    /// request's `chunk_bytes` budget.
    pub(crate) chunk_cap: usize,
    /// Structure-of-arrays capacity columns, lazily synced to whichever
    /// overlay the candidate sweep is currently screening. One table per
    /// request: candidate enumeration is serial, so the lock is always
    /// uncontended; it exists only to keep `Ctx: Sync` for the pool.
    pub(crate) table: std::sync::Mutex<CapacityTable>,
    /// Per-topology-link minimum split cost (hop cost of the cheapest
    /// separation compatible with the endpoints' diversity constraints,
    /// floored at the plain host-split cost), aligned with
    /// `topo.links()`. Precomputed so the heuristic's edge-costing loop
    /// reads a flat column instead of re-deriving hop costs per call.
    pub(crate) link_costs: Vec<u64>,
    /// When set, candidate enumeration sweeps only this contiguous
    /// host-index range (the sharded per-pod search); hosts outside it
    /// are never candidates. `None` sweeps the whole fleet.
    pub(crate) host_range: Option<std::ops::Range<usize>>,
}

impl<'a> Ctx<'a> {
    pub(crate) fn new(
        topo: &'a ApplicationTopology,
        infra: &'a Infrastructure,
        base: &'a CapacityState,
        request: &PlacementRequest,
        pinned: Vec<Option<HostId>>,
    ) -> Result<Self, PlacementError> {
        Self::with_session(topo, infra, base, request, pinned, None)
    }

    pub(crate) fn with_session(
        topo: &'a ApplicationTopology,
        infra: &'a Infrastructure,
        base: &'a CapacityState,
        request: &PlacementRequest,
        pinned: Vec<Option<HostId>>,
        session: Option<&'a crate::session::SessionShared>,
    ) -> Result<Self, PlacementError> {
        request.weights.validate()?;
        debug_assert_eq!(pinned.len(), topo.node_count());
        let stats = topo.stats();
        let mut order: Vec<NodeId> = topo.nodes().iter().map(|n| n.id()).collect();
        // Sort descending by relative weight; stable tie-break on id so
        // symmetry-group members appear consecutively in id order.
        order.sort_by(|&a, &b| {
            let wa = stats.relative_weight(topo, a);
            let wb = stats.relative_weight(topo, b);
            wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        // Pinned nodes move to the front, preserving relative order.
        order.sort_by_key(|&n| pinned[n.index()].is_none());
        let pinned_prefix = pinned.iter().filter(|p| p.is_some()).count();

        let mut bw_order: Vec<NodeId> = topo.nodes().iter().map(|n| n.id()).collect();
        bw_order.sort_by(|&a, &b| {
            topo.incident_bandwidth(b).cmp(&topo.incident_bandwidth(a)).then(a.cmp(&b))
        });

        let max_capacity =
            infra.hosts().iter().map(|h| h.capacity()).fold(Resources::ZERO, Resources::max);

        let sym_group = if request.zone_symmetry {
            symmetry_groups(topo)
        } else {
            vec![NO_GROUP; topo.node_count()]
        };

        let sep_costs = SeparationCosts::compute(infra);
        let min_split_cost = sep_costs.min_cost(Some(DiversityLevel::Host));
        let link_costs = topo
            .links()
            .iter()
            .map(|link| {
                let (a, b) = link.endpoints();
                sep_costs.min_cost(topo.required_separation(a, b)).max(min_split_cost)
            })
            .collect();
        // Session requests clone the shared base-mirror table (kept
        // fresh by dirty-host refresh); one-shot requests build it from
        // the base state directly.
        let table = match session {
            Some(shared) => shared.table.clone(),
            None => CapacityTable::new(infra, base),
        };
        Ok(Ctx {
            topo,
            infra,
            base,
            weights: request.weights,
            norm: Normalizers::compute(topo, infra, base),
            order,
            pinned_prefix,
            pinned,
            max_capacity,
            sym_group,
            bw_order,
            parallel: request.parallel,
            use_estimate: request.use_estimate,
            score_threads: resolve_score_threads(request.score_threads),
            memoize: request.memoize_bounds && request.use_estimate,
            pool: std::sync::OnceLock::new(),
            session,
            chunk_cap: resolve_chunk_cap(request.chunk_bytes),
            table: std::sync::Mutex::new(table),
            link_costs,
            host_range: None,
        })
    }

    /// The candidate sweep's host-index range: the restriction when one
    /// is set, the whole fleet otherwise.
    pub(crate) fn sweep_range(&self) -> std::ops::Range<usize> {
        match &self.host_range {
            Some(r) => r.clone(),
            None => 0..self.infra.host_count(),
        }
    }

    /// The scoring pool serving this request: the session's persistent
    /// pool when one is attached (workers and scratch survive across
    /// requests), else this context's per-request pool. Thread count
    /// only affects how the work is split, never its result, so a
    /// session pool sized by its first request stays correct for all.
    pub(crate) fn scoring_pool(&self) -> &crate::pool::ScoringPool {
        let cell = match self.session {
            Some(shared) => &shared.pool,
            None => &self.pool,
        };
        cell.get_or_init(|| crate::pool::ScoringPool::new(self.score_threads))
    }

    /// Normalized objective of a (possibly partial) usage.
    pub(crate) fn objective(&self, ubw_mbps: u64, new_hosts: usize) -> f64 {
        self.norm.objective(self.weights, ubw_mbps, new_hosts)
    }
}

/// Groups interchangeable nodes: same requirements, same diversity-zone
/// membership (non-empty), and identical links to every third node
/// (§III-B3's assumption, verified rather than assumed).
fn symmetry_groups(topo: &ApplicationTopology) -> Vec<u32> {
    let n = topo.node_count();
    let mut group = vec![NO_GROUP; n];
    let mut next_group = 0u32;
    // Representative node of each open group.
    let mut reps: Vec<NodeId> = Vec::new();
    for node in topo.nodes() {
        let id = node.id();
        if topo.zones_of(id).is_empty() {
            continue;
        }
        let mut found = false;
        for (gi, &rep) in reps.iter().enumerate() {
            if interchangeable(topo, rep, id) {
                group[id.index()] = gi as u32;
                found = true;
                break;
            }
        }
        if !found {
            group[id.index()] = next_group;
            reps.push(id);
            next_group += 1;
        }
    }
    // Singleton groups are useless; clear them.
    let mut counts = vec![0u32; next_group as usize];
    for &g in &group {
        if g != NO_GROUP {
            counts[g as usize] += 1;
        }
    }
    for g in &mut group {
        if *g != NO_GROUP && counts[*g as usize] < 2 {
            *g = NO_GROUP;
        }
    }
    group
}

/// `true` if swapping `a` and `b` leaves the placement problem
/// unchanged: same kind and size, same zone set, and identical
/// bandwidth to every other node.
fn interchangeable(topo: &ApplicationTopology, a: NodeId, b: NodeId) -> bool {
    if topo.node(a).kind() != topo.node(b).kind() {
        return false;
    }
    let (za, zb) = (topo.zones_of(a), topo.zones_of(b));
    if za != zb {
        return false;
    }
    let mut na: Vec<(NodeId, _)> =
        topo.neighbors(a).iter().filter(|&&(n, _)| n != b).copied().collect();
    let mut nb: Vec<(NodeId, _)> =
        topo.neighbors(b).iter().filter(|&&(n, _)| n != a).copied().collect();
    na.sort_unstable();
    nb.sort_unstable();
    na == nb
}

/// One partial placement hypothesis: the paper's search path
/// `(V_p, H*_p, u_p)`.
#[derive(Clone, Debug)]
pub(crate) struct Path<'a> {
    pub overlay: OverlayState<'a>,
    /// Host per node; `None` while unplaced.
    pub assignment: Vec<Option<HostId>>,
    /// How many entries of `ctx.order` are placed (always a prefix).
    pub placed: usize,
    /// Accumulated hop-weighted bandwidth of placed-placed edges (Mbps·hops).
    pub ubw_mbps: u64,
    /// Normalized accumulated utility u\* of the placed prefix.
    pub u_star: f64,
    /// u\* plus the admissible heuristic lower bound.
    pub u_total: f64,
    /// Order-independent signature of the assignment set, for the
    /// closed queue.
    pub signature: u64,
    /// Per host: Mbps promised to edges between a resident node and a
    /// still-unplaced neighbor. The candidate screen reserves this
    /// headroom so placing more nodes never strands a resident's
    /// future edges behind a saturated NIC. Entries may sit at zero
    /// once fully consumed; only [`Path::promised_nic`] reads them.
    pub promised_nic: FxHashMap<HostId, u64>,
}

/// Everything needed to revert one [`Path::place_mut`] call: the
/// overlay journal position plus the scalar fields and `promised_nic`
/// entries the placement touched. Marks must be undone in LIFO order
/// (the overlay journal enforces this).
#[derive(Debug)]
pub(crate) struct PlacedMark {
    overlay: OverlayMark,
    node: NodeId,
    host: HostId,
    prev_ubw_mbps: u64,
    prev_u_star: f64,
    prev_u_total: f64,
    /// `promised_nic` entries this placement modified, oldest first,
    /// with their prior values (`None` = the key was absent).
    promised_prev: Vec<(HostId, Option<u64>)>,
}

impl<'a> Path<'a> {
    /// The empty root path (before pinned nodes are applied).
    pub(crate) fn empty(ctx: &Ctx<'a>) -> Self {
        Path {
            overlay: OverlayState::new(ctx.infra, ctx.base),
            assignment: vec![None; ctx.topo.node_count()],
            placed: 0,
            ubw_mbps: 0,
            u_star: 0.0,
            u_total: 0.0,
            signature: 0,
            promised_nic: FxHashMap::default(),
        }
    }

    /// A copy of this path whose overlay starts a fresh journal —
    /// cheaper than `clone()` when this path has a long undo history,
    /// and what arena snapshots should use.
    pub(crate) fn fork(&self) -> Path<'a> {
        Path {
            overlay: self.overlay.fork(),
            assignment: self.assignment.clone(),
            placed: self.placed,
            ubw_mbps: self.ubw_mbps,
            u_star: self.u_star,
            u_total: self.u_total,
            signature: self.signature,
            promised_nic: self.promised_nic.clone(),
        }
    }

    /// Mbps of NIC bandwidth promised to residents' future edges.
    pub(crate) fn promised_nic(&self, host: HostId) -> u64 {
        self.promised_nic.get(&host).copied().unwrap_or(0)
    }

    /// The next node this path must place, per the fixed order.
    pub(crate) fn next_node(&self, ctx: &Ctx<'a>) -> Option<NodeId> {
        ctx.order.get(self.placed).copied()
    }

    /// `true` once every node is placed.
    pub(crate) fn is_complete(&self, ctx: &Ctx<'a>) -> bool {
        self.placed == ctx.order.len()
    }

    /// Newly activated hosts under this hypothesis (the uc numerator).
    pub(crate) fn new_hosts(&self) -> usize {
        self.overlay.newly_active_hosts()
    }

    /// Materializes the child path that places `node` on `host`, by
    /// forking this path and applying the placement in place.
    ///
    /// Returns `None` if the combined reservations do not fit (the
    /// per-edge feasibility pre-check is necessary but not sufficient
    /// when several flows share links).
    pub(crate) fn place(&self, ctx: &Ctx<'a>, node: NodeId, host: HostId) -> Option<Path<'a>> {
        let mut child = self.fork();
        child.place_mut(ctx, node, host)?;
        Some(child)
    }

    /// Applies the placement of `node` on `host` to this path directly,
    /// returning a mark that [`undo`](Self::undo) reverts. Costs
    /// O(edges of `node`) instead of the O(placed prefix) a clone-based
    /// child would — this is the search kernel's child-expansion fast
    /// path.
    ///
    /// On failure the path is left exactly as it was (the partial
    /// reservations are rolled back internally) and `None` is returned.
    pub(crate) fn place_mut(
        &mut self,
        ctx: &Ctx<'a>,
        node: NodeId,
        host: HostId,
    ) -> Option<PlacedMark> {
        debug_assert_eq!(Some(node), self.next_node(ctx));
        let mut mark = PlacedMark {
            overlay: self.overlay.checkpoint(),
            node,
            host,
            prev_ubw_mbps: self.ubw_mbps,
            prev_u_star: self.u_star,
            prev_u_total: self.u_total,
            promised_prev: Vec::new(),
        };
        let req = ctx.topo.node(node).requirements();
        if self.overlay.reserve_node(host, req).is_err() {
            return None; // reserve_node is atomic; nothing to revert.
        }
        let mut added = 0u64;
        let mut future_mbps = 0u64;
        for &(neighbor, bw) in ctx.topo.neighbors(node) {
            if let Some(other_host) = self.assignment[neighbor.index()] {
                if self.overlay.reserve_flow(host, other_host, bw).is_err() {
                    self.revert_to(&mut mark);
                    return None;
                }
                added += bw.as_mbps() * ctx.infra.hop_cost(host, other_host);
                // The promise made when the neighbor was placed is now
                // either consumed (reserved above) or void (co-located).
                // The entry stays, possibly at zero — removing it here
                // and re-inserting on the next promise just churns the
                // map.
                if let Some(p) = self.promised_nic.get_mut(&other_host) {
                    mark.promised_prev.push((other_host, Some(*p)));
                    *p = p.saturating_sub(bw.as_mbps());
                }
            } else {
                future_mbps += bw.as_mbps();
            }
        }
        if future_mbps > 0 {
            mark.promised_prev.push((host, self.promised_nic.get(&host).copied()));
            *self.promised_nic.entry(host).or_insert(0) += future_mbps;
        }
        self.assignment[node.index()] = Some(host);
        self.placed += 1;
        self.ubw_mbps += added;
        self.u_star = ctx.objective(self.ubw_mbps, self.new_hosts());
        self.signature ^= pair_hash(node, host);
        Some(mark)
    }

    /// Reverts one [`place_mut`](Self::place_mut), restoring the path
    /// to the state observed when the mark was taken. Marks must be
    /// undone newest-first.
    pub(crate) fn undo(&mut self, mark: PlacedMark) {
        let mut mark = mark;
        self.assignment[mark.node.index()] = None;
        self.placed -= 1;
        self.signature ^= pair_hash(mark.node, mark.host);
        self.revert_to(&mut mark);
    }

    /// Restores the overlay, promises, and scalar cost fields recorded
    /// in `mark` (shared by `undo` and `place_mut`'s failure path).
    fn revert_to(&mut self, mark: &mut PlacedMark) {
        self.overlay.rollback(mark.overlay);
        for (host, prev) in mark.promised_prev.drain(..).rev() {
            match prev {
                Some(v) => {
                    self.promised_nic.insert(host, v);
                }
                None => {
                    self.promised_nic.remove(&host);
                }
            }
        }
        self.ubw_mbps = mark.prev_ubw_mbps;
        self.u_star = mark.prev_u_star;
        self.u_total = mark.prev_u_total;
    }

    /// The original clone-per-child expansion, kept as the reference
    /// implementation the delta-undo equivalence tests compare
    /// [`place_mut`](Self::place_mut) against.
    #[cfg(test)]
    pub(crate) fn place_via_clone(
        &self,
        ctx: &Ctx<'a>,
        node: NodeId,
        host: HostId,
    ) -> Option<Path<'a>> {
        debug_assert_eq!(Some(node), self.next_node(ctx));
        let mut child = self.clone();
        let req = ctx.topo.node(node).requirements();
        child.overlay.reserve_node(host, req).ok()?;
        let mut added = 0u64;
        let mut future_mbps = 0u64;
        for &(neighbor, bw) in ctx.topo.neighbors(node) {
            if let Some(other_host) = child.assignment[neighbor.index()] {
                child.overlay.reserve_flow(host, other_host, bw).ok()?;
                added += bw.as_mbps() * ctx.infra.hop_cost(host, other_host);
                if let Some(p) = child.promised_nic.get_mut(&other_host) {
                    *p = p.saturating_sub(bw.as_mbps());
                    if *p == 0 {
                        child.promised_nic.remove(&other_host);
                    }
                }
            } else {
                future_mbps += bw.as_mbps();
            }
        }
        if future_mbps > 0 {
            *child.promised_nic.entry(host).or_insert(0) += future_mbps;
        }
        child.assignment[node.index()] = Some(host);
        child.placed += 1;
        child.ubw_mbps += added;
        child.u_star = ctx.objective(child.ubw_mbps, child.new_hosts());
        child.signature ^= pair_hash(node, host);
        Some(child)
    }

    /// The cost delta and feasibility of placing `node` on `host`,
    /// *without* materializing the child (used to score candidates).
    /// Returns the added hop-weighted Mbps, or `None` if an edge fails
    /// its individual feasibility check.
    pub(crate) fn probe(&self, ctx: &Ctx<'a>, node: NodeId, host: HostId) -> Option<u64> {
        let mut added = 0u64;
        let mut nic_demand = ostro_model::Bandwidth::ZERO;
        for &(neighbor, bw) in ctx.topo.neighbors(node) {
            if let Some(other_host) = self.assignment[neighbor.index()] {
                if !self.overlay.flow_fits(host, other_host, bw) {
                    return None;
                }
                if other_host != host {
                    nic_demand += bw;
                }
                added += bw.as_mbps() * ctx.infra.hop_cost(host, other_host);
            }
        }
        // Every off-host flow shares this host's NIC; the per-edge
        // checks above cannot see their sum.
        use ostro_datacenter::LinkRef;
        if nic_demand > self.overlay.link_available(LinkRef::HostNic(host)) {
            return None;
        }
        Some(added)
    }
}

/// Commutative hash of one (node, host) decision; XOR-combined into an
/// order-independent placement signature.
pub(crate) fn pair_hash(node: NodeId, host: HostId) -> u64 {
    let x = ((node.index() as u64) << 32) | host.index() as u64;
    mix64(x)
}

/// splitmix64 finalizer: the repo's standard bit mixer.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Resolves the request's `score_threads` knob: 0 means "ask the OS",
/// capped so an accidental 256-core box does not spawn 255 scoring
/// workers for candidate sets that rarely exceed a few thousand.
pub(crate) fn resolve_score_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(16)
}

/// Approximate bytes one candidate's scoring touches: the
/// `ScoredCandidate` written, the host's availability row and NIC/link
/// headroom. Used only to size chunks, so it needs to be the right
/// magnitude, not exact.
const BYTES_PER_CANDIDATE: usize = 192;

/// Fallback per-chunk cache budget when the core topology cannot be
/// read: a conservative slice of a typical per-core L2 (256 KiB keeps
/// a chunk resident even on older parts).
const DEFAULT_CHUNK_BYTES: usize = 256 * 1024;

/// Bounds on the detected budget: below 128 KiB chunking overhead
/// dominates; above 2 MiB a chunk stops fitting any realistic
/// mid-level cache slice and locality is lost anyway.
const MIN_CHUNK_BYTES: usize = 128 * 1024;
const MAX_CHUNK_BYTES: usize = 2 * 1024 * 1024;

/// The per-chunk budget when `--chunk-bytes` is unset: each core's
/// *share* of the mid-level (L2) cache, detected once from the core
/// topology sysfs exports. On parts with a private L2 this is the
/// whole L2; on parts sharing L2 across a module (or under SMT
/// sharing) it is the slice one scoring worker can actually keep
/// resident. Detection failure (non-Linux, masked sysfs) falls back to
/// the conservative 256 KiB default.
fn detected_chunk_bytes() -> usize {
    static DETECTED: OnceLock<usize> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        detect_cache_budget()
            .map_or(DEFAULT_CHUNK_BYTES, |b| b.clamp(MIN_CHUNK_BYTES, MAX_CHUNK_BYTES))
    })
}

/// One core's share of the L2: `cache/index2/size` divided by how many
/// CPUs `shared_cpu_list` says share that cache instance.
#[cfg(target_os = "linux")]
fn detect_cache_budget() -> Option<usize> {
    let base = "/sys/devices/system/cpu/cpu0/cache/index2";
    let size = parse_cache_size(&std::fs::read_to_string(format!("{base}/size")).ok()?)?;
    let sharers =
        parse_cpu_list_len(&std::fs::read_to_string(format!("{base}/shared_cpu_list")).ok()?)?;
    Some(size / sharers.max(1))
}

#[cfg(not(target_os = "linux"))]
fn detect_cache_budget() -> Option<usize> {
    None
}

/// Parses sysfs cache sizes: `"2048K"`, `"1M"`, or a bare byte count.
fn parse_cache_size(raw: &str) -> Option<usize> {
    let s = raw.trim();
    if let Some(kib) = s.strip_suffix(['K', 'k']) {
        return kib.parse::<usize>().ok().map(|v| v * 1024);
    }
    if let Some(mib) = s.strip_suffix(['M', 'm']) {
        return mib.parse::<usize>().ok().map(|v| v * 1024 * 1024);
    }
    s.parse().ok()
}

/// Counts CPUs in a sysfs cpu list (`"0"`, `"0-3"`, `"0,2-5,7"`).
fn parse_cpu_list_len(raw: &str) -> Option<usize> {
    let mut count = 0usize;
    for part in raw.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                let lo: usize = lo.trim().parse().ok()?;
                let hi: usize = hi.trim().parse().ok()?;
                count += hi.checked_sub(lo)? + 1;
            }
            None => {
                let _: usize = part.trim().parse().ok()?;
                count += 1;
            }
        }
    }
    if count == 0 {
        None
    } else {
        Some(count)
    }
}

/// Resolves the request's `chunk_bytes` knob (0 = the detected
/// per-core cache budget) into a ceiling on candidates per scoring
/// chunk. Chunking never changes results — chunks are concatenated in
/// host order — so this is purely a locality lever.
fn resolve_chunk_cap(chunk_bytes: usize) -> usize {
    let budget = if chunk_bytes == 0 { detected_chunk_bytes() } else { chunk_bytes };
    (budget / BYTES_PER_CANDIDATE).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ostro_datacenter::InfrastructureBuilder;
    use ostro_model::{Bandwidth, TopologyBuilder};

    fn infra_flat(racks: usize, hosts: usize) -> Infrastructure {
        InfrastructureBuilder::flat(
            "dc",
            racks,
            hosts,
            Resources::new(16, 32_768, 1_000),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap()
    }

    #[test]
    fn cache_size_parsing() {
        assert_eq!(parse_cache_size("2048K\n"), Some(2048 * 1024));
        assert_eq!(parse_cache_size("1M"), Some(1024 * 1024));
        assert_eq!(parse_cache_size("524288"), Some(524_288));
        assert_eq!(parse_cache_size("huge"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn cpu_list_parsing() {
        assert_eq!(parse_cpu_list_len("0\n"), Some(1));
        assert_eq!(parse_cpu_list_len("0-3"), Some(4));
        assert_eq!(parse_cpu_list_len("0,2-5,7"), Some(6));
        assert_eq!(parse_cpu_list_len("3-0"), None);
        assert_eq!(parse_cpu_list_len(""), None);
    }

    #[test]
    fn detected_budget_is_clamped_and_stable() {
        let detected = detected_chunk_bytes();
        assert!((MIN_CHUNK_BYTES..=MAX_CHUNK_BYTES).contains(&detected));
        assert_eq!(detected_chunk_bytes(), detected);
        // An explicit knob always wins over detection.
        assert_eq!(resolve_chunk_cap(192 * 1024), 192 * 1024 / BYTES_PER_CANDIDATE);
        assert_eq!(resolve_chunk_cap(0), detected / BYTES_PER_CANDIDATE);
    }

    #[test]
    fn separation_costs_flat_site() {
        let infra = infra_flat(3, 4);
        let costs = SeparationCosts::compute(&infra);
        assert_eq!(costs.min_cost(None), 0);
        assert_eq!(costs.min_cost(Some(DiversityLevel::Host)), 2);
        assert_eq!(costs.min_cost(Some(DiversityLevel::Rack)), 4);
        // Single transparent pod, single site: pod/DC diversity infeasible.
        assert_eq!(costs.min_cost(Some(DiversityLevel::Pod)), INFEASIBLE_COST);
        assert_eq!(costs.min_cost(Some(DiversityLevel::DataCenter)), INFEASIBLE_COST);
    }

    #[test]
    fn separation_costs_with_pods_and_sites() {
        let mut b = InfrastructureBuilder::new();
        let cap = Resources::new(8, 8_192, 100);
        for s in 0..2 {
            let site = b.site(format!("s{s}"), Bandwidth::from_gbps(100));
            for p in 0..2 {
                let pod = b.pod(site, format!("s{s}p{p}"), Bandwidth::from_gbps(40)).unwrap();
                let rack =
                    b.rack_in_pod(pod, format!("s{s}p{p}r"), Bandwidth::from_gbps(100)).unwrap();
                b.host(rack, format!("s{s}p{p}h"), cap, Bandwidth::from_gbps(10)).unwrap();
            }
        }
        let infra = b.build().unwrap();
        let costs = SeparationCosts::compute(&infra);
        // One host per rack: host diversity needs a rack change... but
        // racks are one per pod, so it needs a pod change.
        assert_eq!(costs.min_cost(Some(DiversityLevel::Host)), 6);
        assert_eq!(costs.min_cost(Some(DiversityLevel::Rack)), 6);
        assert_eq!(costs.min_cost(Some(DiversityLevel::Pod)), 6);
        // Cross-site: 4 + 1 + 1 + 2 (all pods real).
        assert_eq!(costs.min_cost(Some(DiversityLevel::DataCenter)), 8);
    }

    fn simple_ctx_fixture() -> (ApplicationTopology, Infrastructure) {
        let mut b = TopologyBuilder::new("t");
        let big = b.vm("big", 8, 16_384).unwrap();
        let small = b.vm("small", 1, 1_024).unwrap();
        let vol = b.volume("vol", 100).unwrap();
        b.link(big, small, Bandwidth::from_mbps(100)).unwrap();
        b.link(big, vol, Bandwidth::from_mbps(200)).unwrap();
        (b.build().unwrap(), infra_flat(2, 2))
    }

    #[test]
    fn order_is_heaviest_first() {
        let (topo, infra) = simple_ctx_fixture();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 3]).unwrap();
        assert_eq!(ctx.order[0], topo.node_by_name("big").unwrap().id());
        assert_eq!(ctx.pinned_prefix, 0);
        // bw_order: big (300) first, then vol (200), then small (100).
        assert_eq!(ctx.bw_order[0], topo.node_by_name("big").unwrap().id());
        assert_eq!(ctx.bw_order[1], topo.node_by_name("vol").unwrap().id());
    }

    #[test]
    fn pinned_nodes_lead_the_order() {
        let (topo, infra) = simple_ctx_fixture();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let small = topo.node_by_name("small").unwrap().id();
        let mut pinned = vec![None; 3];
        pinned[small.index()] = Some(HostId::from_index(1));
        let ctx = Ctx::new(&topo, &infra, &base, &req, pinned).unwrap();
        assert_eq!(ctx.order[0], small);
        assert_eq!(ctx.pinned_prefix, 1);
    }

    #[test]
    fn place_accumulates_cost_and_signature() {
        let (topo, infra) = simple_ctx_fixture();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 3]).unwrap();
        let root = Path::empty(&ctx);
        assert_eq!(root.next_node(&ctx), Some(ctx.order[0]));

        let h0 = HostId::from_index(0);
        let h2 = HostId::from_index(2); // different rack
        let p1 = root.place(&ctx, ctx.order[0], h0).unwrap();
        assert_eq!(p1.placed, 1);
        assert_eq!(p1.ubw_mbps, 0);
        assert_eq!(p1.new_hosts(), 1);

        let next = p1.next_node(&ctx).unwrap();
        let probe_same = p1.probe(&ctx, next, h0).unwrap();
        let probe_far = p1.probe(&ctx, next, h2).unwrap();
        assert_eq!(probe_same, 0);
        // next is `vol` (200 Mbps to big) at hop cost 4.
        assert!(probe_far > 0);

        let p2 = p1.place(&ctx, next, h2).unwrap();
        assert_eq!(p2.ubw_mbps, probe_far);
        assert!(p2.u_star > p1.u_star);
        assert_ne!(p2.signature, p1.signature);
        assert!(!p2.is_complete(&ctx));
    }

    #[test]
    fn place_rejects_overflow() {
        let (topo, infra) = simple_ctx_fixture();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 3]).unwrap();
        let root = Path::empty(&ctx);
        let h0 = HostId::from_index(0);
        let p1 = root.place(&ctx, ctx.order[0], h0).unwrap();
        // big took 8 of 16 vCPUs; second node is the volume (disk
        // only); third (small) fits. Saturate by placing big again is
        // impossible; instead verify a too-big reservation fails via
        // overlay state — emulate by exhausting vCPUs.
        let mut ov = p1.overlay.clone();
        ov.reserve_node(h0, Resources::new(8, 16_384, 0)).unwrap();
        assert!(ov.reserve_node(h0, Resources::new(1, 1, 0)).is_err());
    }

    /// Asserts two paths are observably identical: same scalars, same
    /// assignment, same promises, and same availability on every host
    /// and NIC.
    fn assert_paths_identical(infra: &Infrastructure, a: &Path<'_>, b: &Path<'_>, what: &str) {
        assert_eq!(a.placed, b.placed, "{what}: placed");
        assert_eq!(a.assignment, b.assignment, "{what}: assignment");
        assert_eq!(a.ubw_mbps, b.ubw_mbps, "{what}: ubw");
        assert_eq!(a.u_star.to_bits(), b.u_star.to_bits(), "{what}: u_star");
        assert_eq!(a.signature, b.signature, "{what}: signature");
        for host in infra.hosts() {
            let id = host.id();
            assert_eq!(a.promised_nic(id), b.promised_nic(id), "{what}: promise {id}");
            assert_eq!(a.overlay.available(id), b.overlay.available(id), "{what}: avail {id}");
            assert_eq!(
                a.overlay.link_available(ostro_datacenter::LinkRef::HostNic(id)),
                b.overlay.link_available(ostro_datacenter::LinkRef::HostNic(id)),
                "{what}: nic {id}"
            );
            assert_eq!(a.overlay.is_active(id), b.overlay.is_active(id), "{what}: active {id}");
        }
        assert_eq!(a.new_hosts(), b.new_hosts(), "{what}: new hosts");
    }

    /// The delta-undo expansion and the clone-based reference produce
    /// byte-identical children on every (node, host) choice of a walk.
    #[test]
    fn place_mut_matches_clone_based_expansion() {
        let (topo, infra) = simple_ctx_fixture();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 3]).unwrap();
        let hosts: Vec<HostId> = infra.hosts().iter().map(|h| h.id()).collect();

        let mut delta = Path::empty(&ctx);
        let mut reference = Path::empty(&ctx);
        for step in 0..ctx.order.len() {
            let node = delta.next_node(&ctx).unwrap();
            // Probe every host both ways before committing to one.
            for &host in &hosts {
                let via_clone = reference.place_via_clone(&ctx, node, host);
                let mut trial = delta.fork();
                match trial.place_mut(&ctx, node, host) {
                    Some(_) => {
                        let clone_child = via_clone.expect("clone path must also admit");
                        assert_paths_identical(
                            &infra,
                            &trial,
                            &clone_child,
                            &format!("step {step} host {host}"),
                        );
                    }
                    None => assert!(via_clone.is_none(), "step {step} host {host}: admission"),
                }
            }
            let host = hosts[step % hosts.len()];
            let mark = delta.place_mut(&ctx, node, host);
            let clone_child = reference.place_via_clone(&ctx, node, host);
            assert_eq!(mark.is_some(), clone_child.is_some(), "step {step}");
            if let Some(child) = clone_child {
                reference = child;
                assert_paths_identical(&infra, &delta, &reference, &format!("step {step}"));
            }
        }
    }

    /// place_mut followed by undo restores the path exactly, including
    /// after failed placements (which must self-revert).
    #[test]
    fn undo_reverts_place_mut_exactly() {
        let (topo, infra) = simple_ctx_fixture();
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 3]).unwrap();
        let hosts: Vec<HostId> = infra.hosts().iter().map(|h| h.id()).collect();

        let mut path = Path::empty(&ctx);
        // Put one node down so later trials touch promises.
        let n0 = path.next_node(&ctx).unwrap();
        path.place_mut(&ctx, n0, hosts[0]).unwrap();
        let reference = path.fork();

        let node = path.next_node(&ctx).unwrap();
        for &host in &hosts {
            if let Some(mark) = path.place_mut(&ctx, node, host) {
                path.undo(mark);
            }
            assert_paths_identical(&infra, &path, &reference, &format!("undo on {host}"));
        }
    }

    /// The NIC promise made for a resident's future edge is consumed
    /// when the neighbor lands on a remote host, and voided when the
    /// neighbor co-locates — in both cases the entry drains without
    /// churning the map, and undo restores it.
    #[test]
    fn promises_are_consumed_or_voided() {
        let mut b = TopologyBuilder::new("t");
        let hub = b.vm("hub", 4, 4_096).unwrap();
        let w1 = b.vm("w1", 1, 1_024).unwrap();
        let w2 = b.vm("w2", 1, 1_024).unwrap();
        b.link(hub, w1, Bandwidth::from_mbps(300)).unwrap();
        b.link(hub, w2, Bandwidth::from_mbps(200)).unwrap();
        let topo = b.build().unwrap();
        let infra = infra_flat(2, 2);
        let base = CapacityState::new(&infra);
        let req = PlacementRequest::default();
        let ctx = Ctx::new(&topo, &infra, &base, &req, vec![None; 3]).unwrap();
        assert_eq!(ctx.order[0], hub, "hub is heaviest and goes first");

        let h0 = HostId::from_index(0);
        let h2 = HostId::from_index(2); // different rack
        let mut path = Path::empty(&ctx);
        path.place_mut(&ctx, hub, h0).unwrap();
        // Both edges are still open: the full 500 Mbps is promised.
        assert_eq!(path.promised_nic(h0), 500);

        // Remote placement consumes w1's share of the promise and
        // reserves the flow for real.
        let next = path.next_node(&ctx).unwrap();
        let (first_bw, second_bw) = if next == w1 { (300, 200) } else { (200, 300) };
        let mark = path.place_mut(&ctx, next, h2).unwrap();
        assert_eq!(path.promised_nic(h0), second_bw);
        assert_eq!(
            path.overlay.link_available(ostro_datacenter::LinkRef::HostNic(h0)),
            Bandwidth::from_mbps(10_000 - first_bw)
        );
        path.undo(mark);
        assert_eq!(path.promised_nic(h0), 500, "undo restores the promise");

        // Co-location voids the promise instead: nothing is reserved,
        // but the promise still drains.
        let mid_mark = path.place_mut(&ctx, next, h0).unwrap();
        assert_eq!(path.promised_nic(h0), second_bw);
        assert_eq!(
            path.overlay.link_available(ostro_datacenter::LinkRef::HostNic(h0)),
            Bandwidth::from_gbps(10),
            "co-located edge reserves no NIC bandwidth"
        );
        let last = path.next_node(&ctx).unwrap();
        let last_mark = path.place_mut(&ctx, last, h0).unwrap();
        assert_eq!(path.promised_nic(h0), 0, "all promises drained");

        // LIFO undo walks back through both promise states.
        path.undo(last_mark);
        assert_eq!(path.promised_nic(h0), second_bw);
        path.undo(mid_mark);
        assert_eq!(path.promised_nic(h0), 500);
    }

    #[test]
    fn signature_is_order_independent() {
        let a = pair_hash(NodeId::from_index(1), HostId::from_index(2));
        let b = pair_hash(NodeId::from_index(3), HostId::from_index(4));
        assert_eq!(a ^ b, b ^ a);
        assert_ne!(a, b);
    }

    #[test]
    fn symmetry_groups_require_identical_links_and_zones() {
        let mut b = TopologyBuilder::new("t");
        let hub = b.vm("hub", 2, 2_048).unwrap();
        let w1 = b.vm("w1", 1, 1_024).unwrap();
        let w2 = b.vm("w2", 1, 1_024).unwrap();
        let w3 = b.vm("w3", 2, 2_048).unwrap(); // different size
        let lone = b.vm("lone", 1, 1_024).unwrap(); // no zone
        for &w in &[w1, w2, w3] {
            b.link(hub, w, Bandwidth::from_mbps(50)).unwrap();
        }
        b.link(hub, lone, Bandwidth::from_mbps(50)).unwrap();
        b.diversity_zone("z", DiversityLevel::Host, &[w1, w2, w3]).unwrap();
        let topo = b.build().unwrap();
        let groups = symmetry_groups(&topo);
        assert_eq!(groups[w1.index()], groups[w2.index()]);
        assert_ne!(groups[w1.index()], NO_GROUP);
        assert_eq!(groups[w3.index()], NO_GROUP); // size differs -> singleton
        assert_eq!(groups[lone.index()], NO_GROUP);
        assert_eq!(groups[hub.index()], NO_GROUP);
    }
}
