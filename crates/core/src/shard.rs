//! Two-level sharded placement: a pod-level coarse stage in front of
//! the exact EG/BA\*/DBA\* search.
//!
//! Every pod carries an aggregate [`PodDigest`] — capacity sums, a
//! free-slot histogram, and NIC headroom, all folded from the same
//! per-host availability the session's capacity table mirrors.
//! Digests are integer-only sums and bucket counts, so the session's
//! dirty-host resync maintains them incrementally (subtract the host's
//! old contribution, add the new one) with *bit-exact* equality to a
//! from-scratch rebuild — the invariant the randomized maintenance
//! property test pins.
//!
//! A sharded request scores every pod's digest against the topology's
//! aggregate footprint, keeps the top-K candidates, and runs the
//! requested exact search restricted to each candidate pod's
//! contiguous host range — in parallel on the scoring pool when the
//! request allows. The best feasible per-pod result wins
//! (deterministically: objective, then coarse rank). Requests that
//! cannot shard — pinned nodes, a single or non-contiguous pod layout,
//! K covering every pod, or no feasible candidate pod — fall back to
//! the plain unsharded search, which is bit-identical to `shard:
//! false` by construction.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ostro_datacenter::{CapacityState, FleetLayout, HostId, Infrastructure};
use ostro_model::{ApplicationTopology, Resources};

use crate::error::PlacementError;
use crate::placement::{PlacementOutcome, SearchStats};
use crate::pool::ScoringPool;
use crate::request::{PlacementRequest, DEFAULT_PODS_CONSIDERED};
use crate::scheduler::{run_algorithm, Scheduler};
use crate::search::{resolve_score_threads, Ctx};
use crate::session::SessionShared;

/// Buckets of the free-vCPU histogram: bucket 0 holds exhausted hosts,
/// bucket `k >= 1` hosts with free vCPUs in `[2^(k-1), 2^k)`, and the
/// top bucket is open-ended.
pub(crate) const SLOT_BUCKETS: usize = 8;

/// Aggregate availability of one pod: sums and bucket counts only —
/// every quantity is exactly maintainable by subtracting a host's old
/// contribution and adding its new one, which is what keeps the
/// incremental journal bit-identical to a rebuild.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct PodDigest {
    /// Hosts in the pod (static).
    pub hosts: u32,
    /// Sum of free vCPUs across the pod.
    pub free_vcpus: u64,
    /// Sum of free memory (MB).
    pub free_memory_mb: u64,
    /// Sum of free disk (GB).
    pub free_disk_gb: u64,
    /// Sum of NIC uplink headroom (Mbps) — the pod's aggregate
    /// intra-pod bandwidth attach capacity.
    pub nic_mbps: u64,
    /// Free-slot histogram over per-host free vCPUs (see
    /// [`SLOT_BUCKETS`]).
    pub slots: [u32; SLOT_BUCKETS],
}

impl PodDigest {
    /// The histogram bucket a host with `vcpus` free lands in.
    fn bucket(vcpus: u32) -> usize {
        if vcpus == 0 {
            0
        } else {
            ((32 - vcpus.leading_zeros()) as usize).min(SLOT_BUCKETS - 1)
        }
    }

    /// The smallest free-vCPU count a host in bucket `k` can have.
    fn bucket_floor(k: usize) -> u32 {
        if k == 0 {
            0
        } else {
            1 << (k - 1)
        }
    }

    /// Adds one host's availability to the digest.
    fn admit(&mut self, free: Resources, nic_mbps: u64) {
        self.free_vcpus += u64::from(free.vcpus);
        self.free_memory_mb += free.memory_mb;
        self.free_disk_gb += free.disk_gb;
        self.nic_mbps += nic_mbps;
        self.slots[Self::bucket(free.vcpus)] += 1;
    }

    /// Removes one host's previously admitted availability.
    fn retire(&mut self, free: Resources, nic_mbps: u64) {
        self.free_vcpus -= u64::from(free.vcpus);
        self.free_memory_mb -= free.memory_mb;
        self.free_disk_gb -= free.disk_gb;
        self.nic_mbps -= nic_mbps;
        self.slots[Self::bucket(free.vcpus)] -= 1;
    }

    /// Hosts guaranteed by their bucket floor to have at least `vcpus`
    /// free (a conservative slot count — exact per-host counts would
    /// not be incrementally maintainable as cheaply).
    fn slots_at_least(&self, vcpus: u32) -> u64 {
        (0..SLOT_BUCKETS)
            .filter(|&k| Self::bucket_floor(k) >= vcpus)
            .map(|k| u64::from(self.slots[k]))
            .sum()
    }
}

/// All pods' digests over a shared [`FleetLayout`] (host → pod map and
/// per-pod host ranges), kept incrementally current by whoever owns the
/// per-host mirror via [`update`](Self::update).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PodDigests {
    layout: Arc<FleetLayout>,
    digests: Vec<PodDigest>,
}

impl PodDigests {
    /// Digests folded from live capacity state — a full O(hosts) scan,
    /// paid once per session and once per one-shot sharded request.
    pub(crate) fn from_state(layout: Arc<FleetLayout>, state: &CapacityState) -> Self {
        let mut digests = vec![PodDigest::default(); layout.pod_count()];
        for (i, &pod) in layout.pods().iter().enumerate() {
            let host = HostId::from_index(i as u32);
            let d = &mut digests[pod as usize];
            d.hosts += 1;
            d.admit(state.available(host), state.nic_available(host).as_mbps());
        }
        PodDigests { layout, digests }
    }

    /// Replaces `host`'s contribution: its pod's digest retires the
    /// `old` `(free, nic_mbps)` and admits the `new` one — the
    /// incremental half of the rebuild-equals-journal invariant.
    pub(crate) fn update(&mut self, host: HostId, old: (Resources, u64), new: (Resources, u64)) {
        let d = &mut self.digests[self.layout.pods()[host.index()] as usize];
        d.retire(old.0, old.1);
        d.admit(new.0, new.1);
    }

    pub(crate) fn pod_count(&self) -> usize {
        self.digests.len()
    }

    pub(crate) fn contiguous(&self) -> bool {
        self.layout.pods_contiguous()
    }

    /// The contiguous host-index range of pod `p`.
    fn range(&self, p: usize) -> Range<usize> {
        self.layout.pod_range(p)
    }

    #[cfg(test)]
    pub(crate) fn digest(&self, p: usize) -> &PodDigest {
        &self.digests[p]
    }

    #[cfg(test)]
    pub(crate) fn layout(&self) -> &Arc<FleetLayout> {
        &self.layout
    }

    /// The coarse stage: pods whose digests plausibly admit
    /// `footprint`, ranked best-first — most large-enough free slots,
    /// then most free compute, then most NIC headroom, ties toward the
    /// lower pod id — truncated to the top `k`. Purely integer
    /// comparisons on digests, so selection is deterministic and
    /// O(pods log pods) regardless of fleet size.
    fn select(&self, footprint: &Footprint, k: usize) -> Vec<usize> {
        let key = |p: usize| {
            let d = &self.digests[p];
            (d.slots_at_least(footprint.max_node_vcpus), d.free_vcpus, d.nic_mbps)
        };
        let mut candidates: Vec<usize> =
            (0..self.digests.len()).filter(|&p| self.admits(p, footprint)).collect();
        candidates.sort_by(|&a, &b| key(b).cmp(&key(a)).then(a.cmp(&b)));
        candidates.truncate(k);
        candidates
    }

    /// Optimistic pod-level feasibility: aggregate free resources cover
    /// the topology's totals, the NIC headroom sum covers the total
    /// link bandwidth, and at least one host can take the largest node.
    /// Optimistic by design — a pod passing this screen may still fail
    /// exact search (the fallback handles that); a pod failing it is
    /// pruned without ever being swept.
    fn admits(&self, p: usize, f: &Footprint) -> bool {
        let d = &self.digests[p];
        d.free_vcpus >= f.total_vcpus
            && d.free_memory_mb >= f.total_memory_mb
            && d.free_disk_gb >= f.total_disk_gb
            && d.nic_mbps >= f.total_bw_mbps
            && d.slots_at_least(f.max_node_vcpus) >= 1
    }
}

/// The request's aggregate demand, as the coarse stage scores it.
struct Footprint {
    total_vcpus: u64,
    total_memory_mb: u64,
    total_disk_gb: u64,
    /// Sum of all link bandwidths (each flow attaches to at least one
    /// NIC if split, zero if co-located — one NIC's worth is the
    /// optimistic bound).
    total_bw_mbps: u64,
    max_node_vcpus: u32,
}

impl Footprint {
    fn of(topology: &ApplicationTopology) -> Self {
        let mut f = Footprint {
            total_vcpus: 0,
            total_memory_mb: 0,
            total_disk_gb: 0,
            total_bw_mbps: 0,
            max_node_vcpus: 0,
        };
        for node in topology.nodes() {
            let req = node.requirements();
            f.total_vcpus += u64::from(req.vcpus);
            f.total_memory_mb += req.memory_mb;
            f.total_disk_gb += req.disk_gb;
            f.max_node_vcpus = f.max_node_vcpus.max(req.vcpus);
        }
        for link in topology.links() {
            f.total_bw_mbps += link.bandwidth().as_mbps();
        }
        f
    }
}

/// The K the coarse stage keeps (`0` = the default).
fn effective_k(requested: usize) -> usize {
    if requested == 0 {
        DEFAULT_PODS_CONSIDERED
    } else {
        requested
    }
}

/// Folds one per-pod search's effort counters into the merged request
/// stats (the sharded request reports the *total* work of every pod it
/// searched, exactly as a serial multi-pod sweep would).
fn fold_stats(into: &mut SearchStats, from: &SearchStats) {
    into.expanded += from.expanded;
    into.generated += from.generated;
    into.pruned_by_bound += from.pruned_by_bound;
    into.pruned_probabilistically += from.pruned_probabilistically;
    into.deduplicated += from.deduplicated;
    into.symmetry_skipped += from.symmetry_skipped;
    into.eg_runs += from.eg_runs;
    into.fold_scoring_effort(from);
    into.deadline_hit |= from.deadline_hit;
}

/// The plain unsharded search, carrying `stats` (whatever the coarse
/// stage already counted) into the outcome. Decisions are bit-identical
/// to a `shard: false` request by construction: same context, same
/// engines, no host-range restriction.
#[allow(clippy::too_many_arguments)]
fn full_search(
    infra: &Infrastructure,
    topology: &ApplicationTopology,
    state: &CapacityState,
    request: &PlacementRequest,
    pinned: &[Option<HostId>],
    session: Option<&SessionShared>,
    mut stats: SearchStats,
    started: Instant,
) -> Result<PlacementOutcome, PlacementError> {
    let ctx = Ctx::with_session(topology, infra, state, request, pinned.to_vec(), session)?;
    let path = run_algorithm(&ctx, request, &mut stats)?;
    drop(ctx);
    Scheduler::outcome(path, stats, started)
}

/// One pod's exact search: the requested engine over a context whose
/// candidate sweep is restricted to the pod's host range. Serial inside
/// (request-level parallelism comes from searching pods concurrently).
#[allow(clippy::too_many_arguments)]
fn search_pod(
    infra: &Infrastructure,
    topology: &ApplicationTopology,
    state: &CapacityState,
    request: &PlacementRequest,
    pinned: &[Option<HostId>],
    session: Option<&SessionShared>,
    range: Range<usize>,
    started: Instant,
) -> Result<PlacementOutcome, PlacementError> {
    let mut ctx = Ctx::with_session(topology, infra, state, request, pinned.to_vec(), session)?;
    ctx.host_range = Some(range);
    let mut stats = SearchStats::default();
    let path = run_algorithm(&ctx, request, &mut stats)?;
    drop(ctx);
    Scheduler::outcome(path, stats, started)
}

/// The sharded request driver (entered from
/// [`Scheduler::place_pinned_with`] when `request.shard` is set).
pub(crate) fn place_sharded(
    infra: &Infrastructure,
    topology: &ApplicationTopology,
    state: &CapacityState,
    request: &PlacementRequest,
    pinned: &[Option<HostId>],
    session: Option<&SessionShared>,
    started: Instant,
) -> Result<PlacementOutcome, PlacementError> {
    // Session digests are journal-maintained; one-shot requests pay a
    // single O(hosts) scan.
    let built;
    let digests = match session {
        Some(shared) => &shared.pods,
        None => {
            built = PodDigests::from_state(Arc::new(FleetLayout::new(infra)), state);
            &built
        }
    };
    let pod_count = digests.pod_count();
    let k = effective_k(request.pods_considered);
    let has_pins = pinned.iter().any(Option::is_some);
    if !digests.contiguous() || pod_count <= 1 || k >= pod_count || has_pins {
        // Nothing to shard over (or the restriction cannot be honored):
        // the unsharded search is the answer, bit-identical to
        // `shard: false`.
        let stats = SearchStats { shard_fallbacks: 1, ..SearchStats::default() };
        return full_search(infra, topology, state, request, pinned, session, stats, started);
    }
    let footprint = Footprint::of(topology);
    let selected = digests.select(&footprint, k);
    let mut stats = SearchStats {
        pods_scanned: pod_count as u64,
        pods_pruned: (pod_count - selected.len()) as u64,
        ..SearchStats::default()
    };
    if selected.is_empty() {
        // No pod digest admits the footprint — only a cross-pod
        // placement can work, if any does.
        stats.shard_fallbacks = 1;
        return full_search(infra, topology, state, request, pinned, session, stats, started);
    }
    // Per-pod searches are serial inside (the scoring pool serves one
    // caller at a time); request-level parallelism comes from running
    // the K pod searches as pool tasks.
    let pod_request =
        PlacementRequest { parallel: false, score_threads: 1, shard: false, ..request.clone() };
    let slots: Vec<Mutex<Option<Result<PlacementOutcome, PlacementError>>>> =
        selected.iter().map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let result = search_pod(
            infra,
            topology,
            state,
            &pod_request,
            pinned,
            session,
            digests.range(selected[i]),
            started,
        );
        if let Ok(mut slot) = slots[i].lock() {
            *slot = Some(result);
        }
    };
    let threads = resolve_score_threads(request.score_threads).min(selected.len());
    if request.parallel && threads >= 2 {
        match session {
            Some(shared) => {
                shared.pool.get_or_init(|| ScoringPool::new(threads)).run(selected.len(), &task);
            }
            None => ScoringPool::new(threads).run(selected.len(), &task),
        }
    } else {
        for i in 0..selected.len() {
            task(i);
        }
    }
    // Deterministic merge: best objective wins, ties toward the
    // coarse stage's rank (slot order). Thread interleaving cannot
    // change the answer — every pod writes its own slot.
    let mut best: Option<PlacementOutcome> = None;
    for slot in slots {
        let result = match slot.into_inner() {
            Ok(r) => r,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(Ok(outcome)) = result {
            fold_stats(&mut stats, &outcome.stats);
            let better = match &best {
                None => true,
                Some(b) => outcome.objective.total_cmp(&b.objective) == std::cmp::Ordering::Less,
            };
            if better {
                best = Some(outcome);
            }
        }
    }
    match best {
        Some(mut outcome) => {
            outcome.stats = stats;
            outcome.elapsed = started.elapsed();
            Ok(outcome)
        }
        None => {
            // Every candidate pod was infeasible in the exact sense;
            // only the full fleet-wide search can still find a
            // (cross-pod) placement.
            stats.shard_fallbacks += 1;
            full_search(infra, topology, state, request, pinned, session, stats, started)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Algorithm;
    use crate::validate::verify_placement;
    use ostro_datacenter::InfrastructureBuilder;
    use ostro_model::{Bandwidth, TopologyBuilder};
    use std::time::Duration;

    /// `pods` pods × `racks` racks × `hosts` hosts, one site.
    fn pod_infra(pods: usize, racks: usize, hosts: usize) -> Infrastructure {
        let mut b = InfrastructureBuilder::new();
        let site = b.site("dc", Bandwidth::from_gbps(400));
        for p in 0..pods {
            let pod = b.pod(site, format!("p{p}"), Bandwidth::from_gbps(200)).unwrap();
            for r in 0..racks {
                let rack =
                    b.rack_in_pod(pod, format!("p{p}r{r}"), Bandwidth::from_gbps(100)).unwrap();
                for h in 0..hosts {
                    b.host(
                        rack,
                        format!("p{p}r{r}h{h}"),
                        Resources::new(16, 32_768, 1_000),
                        Bandwidth::from_gbps(10),
                    )
                    .unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    fn app() -> ApplicationTopology {
        let mut b = TopologyBuilder::new("app");
        let hub = b.vm("hub", 4, 4_096).unwrap();
        for i in 0..3 {
            let w = b.vm(format!("w{i}"), 2, 2_048).unwrap();
            b.link(hub, w, Bandwidth::from_mbps(100 + 10 * i)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn buckets_partition_the_vcpu_axis() {
        assert_eq!(PodDigest::bucket(0), 0);
        assert_eq!(PodDigest::bucket(1), 1);
        assert_eq!(PodDigest::bucket(3), 2);
        assert_eq!(PodDigest::bucket(4), 3);
        assert_eq!(PodDigest::bucket(16), 5);
        assert_eq!(PodDigest::bucket(63), 6);
        assert_eq!(PodDigest::bucket(64), 7);
        assert_eq!(PodDigest::bucket(u32::MAX), 7);
        for k in 0..SLOT_BUCKETS {
            assert_eq!(PodDigest::bucket(PodDigest::bucket_floor(k)), k);
        }
    }

    #[test]
    fn digests_from_state_match_generated_layout() {
        let infra = pod_infra(3, 2, 4);
        let state = CapacityState::new(&infra);
        let digests = PodDigests::from_state(Arc::new(FleetLayout::new(&infra)), &state);
        assert_eq!(digests.pod_count(), 3);
        assert!(digests.contiguous());
        for p in 0..3 {
            assert_eq!(digests.range(p), p * 8..(p + 1) * 8);
            let d = digests.digest(p);
            assert_eq!(d.hosts, 8);
            assert_eq!(d.free_vcpus, 8 * 16);
            assert_eq!(d.slots_at_least(16), 8);
            assert_eq!(d.slots_at_least(17), 0, "16 free lands in the [16,32) bucket");
        }
    }

    #[test]
    fn sharded_search_stays_inside_one_pod_and_validates() {
        let infra = pod_infra(4, 2, 4);
        let state = CapacityState::new(&infra);
        let scheduler = Scheduler::new(&infra);
        let request = PlacementRequest::default().shard(true).pods_considered(2);
        let outcome = scheduler.place(&app(), &state, &request).unwrap();
        let violations = verify_placement(&app(), &infra, &state, &outcome.placement).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        let pods: std::collections::HashSet<_> =
            outcome.placement.assignments().iter().map(|&h| infra.location(h).1).collect();
        assert_eq!(pods.len(), 1, "a sharded decision is pod-confined");
        assert_eq!(outcome.stats.pods_scanned, 4);
        assert_eq!(outcome.stats.pods_pruned, 2);
        assert_eq!(outcome.stats.shard_fallbacks, 0);
    }

    /// The PR's acceptance pin: K spanning every pod falls back to the
    /// unsharded engine and reproduces its decision bit-for-bit, across
    /// EG, BA*, and DBA*.
    #[test]
    fn k_covering_all_pods_is_bit_identical_to_unsharded() {
        let infra = pod_infra(3, 2, 4);
        let mut state = CapacityState::new(&infra);
        // Background load so the fleets are not symmetric.
        for i in 0..infra.host_count() {
            if i % 3 == 0 {
                let host = HostId::from_index(i as u32);
                state.reserve_node(host, Resources::new(6, 8_192, 100)).unwrap();
            }
        }
        let scheduler = Scheduler::new(&infra);
        for algorithm in [
            Algorithm::Greedy,
            Algorithm::BoundedAStar,
            Algorithm::DeadlineBoundedAStar { deadline: Duration::from_secs(5) },
        ] {
            let plain = PlacementRequest {
                algorithm,
                max_expansions: 20_000,
                ..PlacementRequest::default()
            };
            let sharded = plain.clone().shard(true).pods_considered(infra.pods().len());
            let a = scheduler.place(&app(), &state, &plain).unwrap();
            let b = scheduler.place(&app(), &state, &sharded).unwrap();
            assert_eq!(a.placement, b.placement, "{algorithm:?}: placements diverged");
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{algorithm:?}: objective");
            assert_eq!(a.reserved_bandwidth, b.reserved_bandwidth, "{algorithm:?}: bandwidth");
            assert_eq!(b.stats.shard_fallbacks, 1, "{algorithm:?}: fallback not counted");
            assert_eq!(a.stats.shard_fallbacks, 0);
        }
    }

    #[test]
    fn pins_force_the_unsharded_fallback() {
        let infra = pod_infra(3, 2, 4);
        let state = CapacityState::new(&infra);
        let topo = app();
        let scheduler = Scheduler::new(&infra);
        let mut pinned = vec![None; topo.node_count()];
        pinned[0] = Some(HostId::from_index(0));
        let request = PlacementRequest::default().shard(true).pods_considered(1);
        let outcome = scheduler.place_pinned(&topo, &state, &request, &pinned).unwrap();
        assert_eq!(outcome.stats.shard_fallbacks, 1);
        assert_eq!(outcome.placement.host_of(ostro_model::NodeId::from_index(0)).index(), 0);
    }

    #[test]
    fn single_pod_fleets_fall_back() {
        let infra = InfrastructureBuilder::flat(
            "dc",
            2,
            4,
            Resources::new(16, 32_768, 1_000),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap();
        let state = CapacityState::new(&infra);
        let scheduler = Scheduler::new(&infra);
        let request = PlacementRequest::default().shard(true);
        let outcome = scheduler.place(&app(), &state, &request).unwrap();
        assert_eq!(outcome.stats.shard_fallbacks, 1);
        assert_eq!(outcome.stats.pods_scanned, 0);
    }

    #[test]
    fn coarse_stage_prefers_the_idle_pod() {
        let infra = pod_infra(3, 2, 4);
        let mut state = CapacityState::new(&infra);
        // Load pods 0 and 2 heavily; pod 1 stays idle.
        for p in [0usize, 2] {
            for i in p * 8..(p + 1) * 8 {
                state
                    .reserve_node(HostId::from_index(i as u32), Resources::new(14, 28_672, 500))
                    .unwrap();
            }
        }
        let digests = PodDigests::from_state(Arc::new(FleetLayout::new(&infra)), &state);
        let selected = digests.select(&Footprint::of(&app()), 1);
        assert_eq!(selected, vec![1]);
        let scheduler = Scheduler::new(&infra);
        let request = PlacementRequest::default().shard(true).pods_considered(1);
        let outcome = scheduler.place(&app(), &state, &request).unwrap();
        for &h in outcome.placement.assignments() {
            assert!((8..16).contains(&h.index()), "host {h:?} not in the idle pod");
        }
    }

    #[test]
    fn serial_and_parallel_pod_search_agree() {
        let infra = pod_infra(4, 2, 4);
        let state = CapacityState::new(&infra);
        let scheduler = Scheduler::new(&infra);
        let parallel = PlacementRequest::default().shard(true).pods_considered(3).score_threads(4);
        let serial = PlacementRequest { parallel: false, ..parallel.clone().score_threads(1) };
        let a = scheduler.place(&app(), &state, &parallel).unwrap();
        let b = scheduler.place(&app(), &state, &serial).unwrap();
        assert_eq!(a.placement, b.placement);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }
}
