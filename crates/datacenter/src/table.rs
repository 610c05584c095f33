//! Structure-of-arrays capacity columns for bulk candidate filtering.
//!
//! The search hot loop asks the same four questions for every host in
//! the data center: does the node's resource request fit, does its NIC
//! demand fit, and do proximity/diversity constraints hold. Answering
//! them through [`OverlayState`] costs a hash probe per host per
//! question. [`CapacityTable`] flattens the *effective* availability
//! (base state minus overlay usage) into contiguous per-resource
//! columns so a scoring kernel can sweep all hosts with branch-free,
//! autovectorization-friendly compares and produce a candidate bitmask.
//!
//! # Sync protocol
//!
//! A table is built against a [`CapacityState`] (all columns mirror the
//! base exactly) and then kept in sync with one overlay at a time via
//! [`sync`](CapacityTable::sync), driven by the overlay's op journal:
//!
//! * same generation, `Δops == Δjournal_len` — the overlay only
//!   *appended* since the last sync; replay the journal tail onto the
//!   columns (O(new ops)).
//! * same generation, `Δops > Δjournal_len` — a rollback happened in
//!   between; the popped ops are gone, so replay is impossible. Rebuild
//!   sparsely: restore every previously-touched column entry from the
//!   base state, then re-apply the overlay's (small) usage maps
//!   (O(touched before + touched now)).
//! * different generation — the table last tracked a different overlay
//!   (or none); same sparse rebuild.
//!
//! Saturating-sub chains compose per dimension
//! (`(b ∸ u1) ∸ u2 == b ∸ (u1 + u2)`), so incremental tail replay and
//! the sparse rebuild land on bit-identical columns — a property test
//! below churns randomly and checks exactly that.
//!
//! # What a clone copies
//!
//! Only the availability columns and the sync cursor can change after
//! construction. Everything fixed by the infrastructure — rack/pod/site
//! coordinates and the per-pod host ranges — lives in one
//! [`FleetLayout`] behind an [`Arc`], so cloning a table (per snapshot,
//! per batch, per request) shares it instead of copying it.

use std::ops::Range;
use std::sync::Arc;

use ostro_model::{Bandwidth, Resources};

use crate::ids::HostId;
use crate::overlay::{OverlayOp, OverlayState};
use crate::path::LinkRef;
use crate::state::CapacityState;
use crate::structure::Infrastructure;

/// The per-host facts no commit can change: topology coordinates for
/// dense proximity/diversity compares, and each pod's host-index
/// range for pod-restricted sweeps.
#[derive(Debug, PartialEq, Eq)]
pub struct FleetLayout {
    rack: Vec<u32>,
    pod: Vec<u32>,
    site: Vec<u32>,
    /// Per pod: the `[lo, hi)` host-index extent (empty for a pod
    /// without hosts, meaningless when `pods_contiguous` is false).
    pod_ranges: Vec<Range<u32>>,
    pods_contiguous: bool,
}

impl FleetLayout {
    /// Reads every host's location out of `infra`.
    #[must_use]
    pub fn new(infra: &Infrastructure) -> Self {
        let n = infra.host_count();
        let pod_count = infra.pods().len();
        let mut layout = FleetLayout {
            rack: Vec::with_capacity(n),
            pod: Vec::with_capacity(n),
            site: Vec::with_capacity(n),
            pod_ranges: vec![0..0; pod_count],
            pods_contiguous: true,
        };
        let mut hosts_in_pod = vec![0u32; pod_count];
        for i in 0..n as u32 {
            let (rack, pod, site) = infra.location(HostId::from_index(i));
            layout.rack.push(rack.index() as u32);
            layout.pod.push(pod.index() as u32);
            layout.site.push(site.index() as u32);
            // Hosts arrive in ascending index order, so a pod's extent
            // starts at its first host and ends after its latest.
            let p = pod.index();
            if hosts_in_pod[p] == 0 {
                layout.pod_ranges[p].start = i;
            }
            layout.pod_ranges[p].end = i + 1;
            hosts_in_pod[p] += 1;
        }
        layout.pods_contiguous =
            layout.pod_ranges.iter().zip(&hosts_in_pod).all(|(r, &count)| r.end - r.start == count);
        layout
    }

    /// Rack index per host.
    #[must_use]
    pub fn racks(&self) -> &[u32] {
        &self.rack
    }

    /// Pod index per host.
    #[must_use]
    pub fn pods(&self) -> &[u32] {
        &self.pod
    }

    /// Site index per host.
    #[must_use]
    pub fn sites(&self) -> &[u32] {
        &self.site
    }

    /// Number of pods.
    #[must_use]
    pub fn pod_count(&self) -> usize {
        self.pod_ranges.len()
    }

    /// The host-index range of pod `p`; exactly the pod's hosts when
    /// [`pods_contiguous`](Self::pods_contiguous) holds.
    #[must_use]
    pub fn pod_range(&self, p: usize) -> Range<usize> {
        let r = &self.pod_ranges[p];
        r.start as usize..r.end as usize
    }

    /// Whether every pod's hosts occupy one contiguous id range — the
    /// precondition for restricting a sweep to a pod by host range.
    /// Builders emit hosts pod-by-pod so this holds for every generated
    /// fleet; a hand-built interleaved layout does not.
    #[must_use]
    pub fn pods_contiguous(&self) -> bool {
        self.pods_contiguous
    }
}

/// Flat per-host columns of effective availability plus the shared
/// [`FleetLayout`], synced to one [`OverlayState`] at a time.
#[derive(Debug, Clone)]
pub struct CapacityTable {
    // Effective availability: base minus overlay usage, saturating.
    vcpus: Vec<u32>,
    memory_mb: Vec<u64>,
    disk_gb: Vec<u64>,
    nic_mbps: Vec<u64>,
    /// `true` where the host runs nodes in base state or overlay.
    active: Vec<u8>,
    layout: Arc<FleetLayout>,
    /// Hosts whose columns deviate from the base state (plus possibly
    /// some that deviated earlier; cleared lazily on rebuild).
    touched: Vec<u32>,
    touched_flag: Vec<bool>,
    // Sync cursor into the tracked overlay's journal. Generation 0 is
    // reserved: no overlay ever has it, so a fresh table always takes
    // the sparse-rebuild path on first sync.
    generation: u64,
    ops: u64,
    journal_len: usize,
}

impl CapacityTable {
    /// Builds a table mirroring `base` exactly (no overlay usage).
    #[must_use]
    pub fn new(infra: &Infrastructure, base: &CapacityState) -> Self {
        let n = infra.host_count();
        let mut table = CapacityTable {
            vcpus: vec![0; n],
            memory_mb: vec![0; n],
            disk_gb: vec![0; n],
            nic_mbps: vec![0; n],
            active: vec![0; n],
            layout: Arc::new(FleetLayout::new(infra)),
            touched: Vec::new(),
            touched_flag: vec![false; n],
            generation: 0,
            ops: 0,
            journal_len: 0,
        };
        for i in 0..n {
            table.load_base(base, i);
        }
        table
    }

    /// The construction-time layout this table (and every clone of it)
    /// shares.
    #[must_use]
    pub fn layout(&self) -> &Arc<FleetLayout> {
        &self.layout
    }

    /// Rewrites one host's columns from the base state.
    ///
    /// Used for session dirty-host refresh after commits/releases land
    /// on the underlying [`CapacityState`]. The table must not be
    /// tracking overlay usage on that host (session-shared tables never
    /// are; per-request copies resync from their own overlay instead).
    pub fn refresh_base_host(&mut self, base: &CapacityState, host: HostId) {
        debug_assert!(!self.touched_flag[host.index()], "refreshing an overlay-touched host");
        self.load_base(base, host.index());
    }

    fn load_base(&mut self, base: &CapacityState, i: usize) {
        let host = HostId::from_index(i as u32);
        let avail = base.available(host);
        self.vcpus[i] = avail.vcpus;
        self.memory_mb[i] = avail.memory_mb;
        self.disk_gb[i] = avail.disk_gb;
        self.nic_mbps[i] = base.nic_available(host).as_mbps();
        self.active[i] = u8::from(base.is_active(host));
    }

    /// Brings the columns up to date with `overlay` (see module docs
    /// for the journal-cursor protocol).
    pub fn sync(&mut self, overlay: &OverlayState<'_>) {
        let generation = overlay.generation();
        let ops = overlay.ops();
        let journal_len = overlay.journal_len();
        if generation == self.generation {
            if ops == self.ops {
                return; // Nothing happened since the last sync.
            }
            let appended_only = journal_len >= self.journal_len
                && ops - self.ops == (journal_len - self.journal_len) as u64;
            if appended_only {
                for &op in overlay.journal_tail(self.journal_len) {
                    self.apply(op);
                }
                self.ops = ops;
                self.journal_len = journal_len;
                return;
            }
        }
        self.rebuild(overlay);
        self.generation = generation;
        self.ops = ops;
        self.journal_len = journal_len;
    }

    /// Applies one journaled reservation to the columns.
    fn apply(&mut self, op: OverlayOp) {
        match op {
            OverlayOp::Host { host, req } => {
                let i = host.index();
                self.vcpus[i] = self.vcpus[i].saturating_sub(req.vcpus);
                self.memory_mb[i] = self.memory_mb[i].saturating_sub(req.memory_mb);
                self.disk_gb[i] = self.disk_gb[i].saturating_sub(req.disk_gb);
                self.active[i] = 1;
                self.mark_touched(i);
            }
            OverlayOp::Link { link: LinkRef::HostNic(host), amount } => {
                let i = host.index();
                self.nic_mbps[i] = self.nic_mbps[i].saturating_sub(amount.as_mbps());
                self.mark_touched(i);
            }
            // ToR/pod/site uplinks have no per-host column.
            OverlayOp::Link { .. } => {}
        }
    }

    /// Sparse rebuild: restore touched hosts to base, then re-apply the
    /// overlay's usage maps.
    fn rebuild(&mut self, overlay: &OverlayState<'_>) {
        let base = overlay.base();
        for i in std::mem::take(&mut self.touched) {
            let i = i as usize;
            self.touched_flag[i] = false;
            self.load_base(base, i);
        }
        // A usage entry exists exactly while the overlay has nodes on
        // the host, so it also carries the activity bit.
        for (host, used) in overlay.used_host_entries() {
            let i = host.index();
            self.vcpus[i] = self.vcpus[i].saturating_sub(used.vcpus);
            self.memory_mb[i] = self.memory_mb[i].saturating_sub(used.memory_mb);
            self.disk_gb[i] = self.disk_gb[i].saturating_sub(used.disk_gb);
            self.active[i] = 1;
            self.mark_touched(i);
        }
        for (link, used) in overlay.used_link_entries() {
            if let LinkRef::HostNic(host) = link {
                let i = host.index();
                self.nic_mbps[i] = self.nic_mbps[i].saturating_sub(used.as_mbps());
                self.mark_touched(i);
            }
        }
    }

    fn mark_touched(&mut self, i: usize) {
        if !self.touched_flag[i] {
            self.touched_flag[i] = true;
            self.touched.push(i as u32);
        }
    }

    /// Number of hosts (the length of every column).
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.vcpus.len()
    }

    /// Effective available vCPUs per host.
    #[must_use]
    pub fn vcpus(&self) -> &[u32] {
        &self.vcpus
    }

    /// Effective available memory (MB) per host.
    #[must_use]
    pub fn memory_mb(&self) -> &[u64] {
        &self.memory_mb
    }

    /// Effective available disk (GB) per host.
    #[must_use]
    pub fn disk_gb(&self) -> &[u64] {
        &self.disk_gb
    }

    /// Effective available NIC bandwidth (Mbps) per host.
    #[must_use]
    pub fn nic_mbps(&self) -> &[u64] {
        &self.nic_mbps
    }

    /// Host activity (1 where any node runs, base or overlay).
    #[must_use]
    pub fn active(&self) -> &[u8] {
        &self.active
    }

    /// Rack index per host.
    #[must_use]
    pub fn racks(&self) -> &[u32] {
        self.layout.racks()
    }

    /// Pod index per host.
    #[must_use]
    pub fn pods(&self) -> &[u32] {
        self.layout.pods()
    }

    /// Site index per host.
    #[must_use]
    pub fn sites(&self) -> &[u32] {
        self.layout.sites()
    }

    /// Effective availability of one host as a [`Resources`] bundle.
    #[must_use]
    pub fn available(&self, host: HostId) -> Resources {
        let i = host.index();
        Resources::new(self.vcpus[i], self.memory_mb[i], self.disk_gb[i])
    }

    /// Effective NIC headroom of one host.
    #[must_use]
    pub fn nic_available(&self, host: HostId) -> Bandwidth {
        Bandwidth::from_mbps(self.nic_mbps[host.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InfrastructureBuilder;
    use crate::path::LinkRef;

    fn setup() -> (Infrastructure, CapacityState) {
        let infra = InfrastructureBuilder::flat(
            "dc",
            4,
            8,
            Resources::new(16, 32_768, 1_000),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap();
        let state = CapacityState::new(&infra);
        (infra, state)
    }

    fn h(i: u32) -> HostId {
        HostId::from_index(i)
    }

    /// Full-table equality against the ground truth: every column entry
    /// must match what the overlay (or base) reports host by host.
    fn assert_matches_overlay(table: &CapacityTable, infra: &Infrastructure, ov: &OverlayState) {
        for i in 0..infra.host_count() {
            let host = h(i as u32);
            let avail = ov.available(host);
            assert_eq!(table.available(host), avail, "host {i} resources");
            assert_eq!(
                table.nic_available(host),
                ov.link_available(LinkRef::HostNic(host)),
                "host {i} nic"
            );
            assert_eq!(table.active()[i] != 0, ov.is_active(host), "host {i} active");
            let (rack, pod, site) = infra.location(host);
            assert_eq!(table.racks()[i], rack.index() as u32);
            assert_eq!(table.pods()[i], pod.index() as u32);
            assert_eq!(table.sites()[i], site.index() as u32);
        }
    }

    #[test]
    fn fresh_table_mirrors_base() {
        let (infra, mut base) = setup();
        base.reserve_node(h(3), Resources::new(4, 4_096, 100)).unwrap();
        let table = CapacityTable::new(&infra, &base);
        let ov = OverlayState::new(&infra, &base);
        assert_matches_overlay(&table, &infra, &ov);
    }

    /// Pod ranges are exact for builder-ordered fleets and flagged
    /// unusable when two pods' hosts interleave.
    #[test]
    fn layout_ranges_cover_pods_and_flag_interleaving() {
        let build = |order: &[usize]| {
            let mut b = InfrastructureBuilder::new();
            let site = b.site("dc", Bandwidth::from_gbps(400));
            let racks: Vec<_> = (0..2)
                .map(|p| {
                    let pod = b.pod(site, format!("p{p}"), Bandwidth::from_gbps(200)).unwrap();
                    b.rack_in_pod(pod, format!("p{p}r0"), Bandwidth::from_gbps(100)).unwrap()
                })
                .collect();
            for (i, &p) in order.iter().enumerate() {
                b.host(
                    racks[p],
                    format!("h{i}"),
                    Resources::new(8, 8_192, 100),
                    Bandwidth::from_gbps(10),
                )
                .unwrap();
            }
            FleetLayout::new(&b.build().unwrap())
        };
        let ordered = build(&[0, 0, 1, 1, 1]);
        assert!(ordered.pods_contiguous());
        assert_eq!(ordered.pod_count(), 2);
        assert_eq!(ordered.pod_range(0), 0..2);
        assert_eq!(ordered.pod_range(1), 2..5);
        assert_eq!(ordered.pods(), &[0, 0, 1, 1, 1]);
        assert!(!build(&[0, 1, 0, 1]).pods_contiguous());
    }

    #[test]
    fn sync_replays_appended_journal_tail() {
        let (infra, base) = setup();
        let mut table = CapacityTable::new(&infra, &base);
        let mut ov = OverlayState::new(&infra, &base);
        ov.reserve_node(h(0), Resources::new(2, 2_048, 50)).unwrap();
        table.sync(&ov);
        assert_matches_overlay(&table, &infra, &ov);
        // Incremental: only the new tail is applied.
        ov.reserve_node(h(0), Resources::new(1, 1_024, 0)).unwrap();
        ov.reserve_flow(h(0), h(9), Bandwidth::from_gbps(2)).unwrap();
        table.sync(&ov);
        assert_matches_overlay(&table, &infra, &ov);
    }

    #[test]
    fn sync_survives_rollback_via_sparse_rebuild() {
        let (infra, base) = setup();
        let mut table = CapacityTable::new(&infra, &base);
        let mut ov = OverlayState::new(&infra, &base);
        ov.reserve_node(h(1), Resources::new(4, 4_096, 0)).unwrap();
        let mark = ov.checkpoint();
        ov.reserve_node(h(2), Resources::new(8, 8_192, 200)).unwrap();
        ov.reserve_flow(h(1), h(2), Bandwidth::from_gbps(3)).unwrap();
        table.sync(&ov);
        assert_matches_overlay(&table, &infra, &ov);
        ov.rollback(mark);
        table.sync(&ov);
        assert_matches_overlay(&table, &infra, &ov);
        // Rollback plus fresh appends in between syncs also degrade to
        // the sparse rebuild (Δops > Δlen), and still land exactly.
        let mark = ov.checkpoint();
        ov.reserve_node(h(2), Resources::new(1, 1, 1)).unwrap();
        ov.rollback(mark);
        ov.reserve_node(h(3), Resources::new(2, 2_048, 0)).unwrap();
        table.sync(&ov);
        assert_matches_overlay(&table, &infra, &ov);
    }

    #[test]
    fn sync_detects_overlay_switch_by_generation() {
        let (infra, base) = setup();
        let mut table = CapacityTable::new(&infra, &base);
        let mut a = OverlayState::new(&infra, &base);
        a.reserve_node(h(0), Resources::new(8, 8_192, 0)).unwrap();
        table.sync(&a);
        let mut b = OverlayState::new(&infra, &base);
        b.reserve_node(h(5), Resources::new(2, 2_048, 0)).unwrap();
        table.sync(&b);
        assert_matches_overlay(&table, &infra, &b);
        // Clones and forks get fresh generations, so a table synced to
        // the parent never mistakes the child's journal for its own.
        let mut c = b.clone();
        c.reserve_node(h(5), Resources::new(2, 2_048, 0)).unwrap();
        table.sync(&c);
        assert_matches_overlay(&table, &infra, &c);
        let mut d = c.fork();
        d.reserve_node(h(6), Resources::new(1, 1_024, 0)).unwrap();
        table.sync(&d);
        assert_matches_overlay(&table, &infra, &d);
    }

    #[test]
    fn refresh_base_host_tracks_state_mutations() {
        let (infra, mut base) = setup();
        let mut table = CapacityTable::new(&infra, &base);
        base.reserve_node(h(7), Resources::new(6, 6_144, 300)).unwrap();
        table.refresh_base_host(&base, h(7));
        let ov = OverlayState::new(&infra, &base);
        assert_matches_overlay(&table, &infra, &ov);
        base.release_node(&infra, h(7), Resources::new(6, 6_144, 300)).unwrap();
        table.refresh_base_host(&base, h(7));
        let ov = OverlayState::new(&infra, &base);
        assert_matches_overlay(&table, &infra, &ov);
    }

    /// Randomized churn: interleaved reserves, flows, rollbacks, and
    /// overlay switches; after every sync the columns must be
    /// bit-identical to a freshly built table put through one sync.
    #[test]
    fn columns_match_fresh_rebuild_under_random_churn() {
        let (infra, base) = setup();
        let mut table = CapacityTable::new(&infra, &base);
        let mut ov = OverlayState::new(&infra, &base);
        let mut marks = Vec::new();
        let mut rng = 0x5EED_u64;
        let mut next = |bound: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % bound
        };
        for step in 0..400 {
            match next(10) {
                0..=3 => {
                    let host = h(next(infra.host_count() as u64) as u32);
                    let req =
                        Resources::new(next(4) as u32 + 1, 1_024 * (next(4) + 1), 10 * next(5));
                    let _ = ov.reserve_node(host, req);
                }
                4..=5 => {
                    let a = h(next(infra.host_count() as u64) as u32);
                    let b = h(next(infra.host_count() as u64) as u32);
                    let _ = ov.reserve_flow(a, b, Bandwidth::from_mbps(50 * (next(8) + 1)));
                }
                6 => marks.push(ov.checkpoint()),
                7 => {
                    if let Some(mark) = marks.pop() {
                        ov.rollback(mark);
                    }
                }
                8 => {
                    ov = ov.fork();
                    marks.clear();
                }
                _ => {
                    ov = ov.clone();
                    // Clone keeps the journal, so old marks stay valid.
                }
            }
            if step % 7 == 0 {
                table.sync(&ov);
                let mut fresh = CapacityTable::new(&infra, &base);
                fresh.sync(&ov);
                assert_eq!(table.vcpus(), fresh.vcpus(), "step {step}");
                assert_eq!(table.memory_mb(), fresh.memory_mb(), "step {step}");
                assert_eq!(table.disk_gb(), fresh.disk_gb(), "step {step}");
                assert_eq!(table.nic_mbps(), fresh.nic_mbps(), "step {step}");
                assert_eq!(table.active(), fresh.active(), "step {step}");
                assert_matches_overlay(&table, &infra, &ov);
            }
        }
    }
}
