use ostro_model::{Bandwidth, Resources};

use crate::error::CapacityError;
use crate::fx::FxHashMap;
use crate::ids::HostId;
use crate::path::LinkRef;
use crate::state::{link_total, CapacityState};
use crate::structure::Infrastructure;

/// A cheap copy-on-write view over a [`CapacityState`].
///
/// Search algorithms branch thousands of placement hypotheses; cloning
/// the full availability vectors for each would dominate runtime. An
/// overlay records only the *additional* usage of one hypothesis in
/// small hash maps, so cloning costs O(nodes placed so far), not
/// O(hosts in the data center).
///
/// On top of that, every reservation is journaled, so a search can
/// speculatively apply a child expansion and revert it in O(edges of
/// that child) via [`checkpoint`](Self::checkpoint) /
/// [`rollback`](Self::rollback) instead of cloning at all.
///
/// Overlays are additive-only (a hypothesis never un-places a node
/// except by rolling back to a checkpoint); releases happen on the
/// underlying [`CapacityState`] after a decision is committed.
///
/// ```
/// use ostro_datacenter::{CapacityState, InfrastructureBuilder, OverlayState};
/// use ostro_model::{Bandwidth, Resources};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let infra = InfrastructureBuilder::flat(
///     "dc", 1, 2, Resources::new(8, 8_192, 100),
///     Bandwidth::from_gbps(10), Bandwidth::from_gbps(100),
/// ).build()?;
/// let base = CapacityState::new(&infra);
/// let h0 = infra.hosts()[0].id();
///
/// let mut hypothesis = OverlayState::new(&infra, &base);
/// let mark = hypothesis.checkpoint();
/// hypothesis.reserve_node(h0, Resources::new(2, 2_048, 0))?;
/// assert_eq!(hypothesis.available(h0).vcpus, 6);
/// assert_eq!(base.available(h0).vcpus, 8); // base untouched
/// hypothesis.rollback(mark);
/// assert_eq!(hypothesis.available(h0).vcpus, 8); // hypothesis undone
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct OverlayState<'a> {
    infra: &'a Infrastructure,
    base: &'a CapacityState,
    used_host: FxHashMap<HostId, Resources>,
    used_link: FxHashMap<LinkRef, Bandwidth>,
    added_nodes: FxHashMap<HostId, u32>,
    journal: Vec<OverlayOp>,
    /// Process-unique identity of this overlay's journal stream; fresh
    /// on `new`, `clone`, and `fork` so a [`CapacityTable`] cursor from
    /// one overlay can never silently apply to another.
    ///
    /// [`CapacityTable`]: crate::CapacityTable
    generation: u64,
    /// Total journal mutations ever performed: pushes *and* rollback
    /// pops both count. A consumer that saw `(ops, journal_len)` can
    /// tell "appended only" (`Δops == Δlen`) from "rolled back in
    /// between" (`Δops > Δlen`) without scanning anything.
    ops: u64,
}

impl Clone for OverlayState<'_> {
    fn clone(&self) -> Self {
        OverlayState {
            infra: self.infra,
            base: self.base,
            used_host: self.used_host.clone(),
            used_link: self.used_link.clone(),
            added_nodes: self.added_nodes.clone(),
            journal: self.journal.clone(),
            generation: next_generation(),
            ops: self.ops,
        }
    }
}

/// Monotonic source of overlay generations; generation 0 is reserved
/// for "never synced" table cursors.
fn next_generation() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One journaled mutation, inverted on rollback. Crate-visible so
/// [`CapacityTable`](crate::CapacityTable) can replay appended tails.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OverlayOp {
    Host { host: HostId, req: Resources },
    Link { link: LinkRef, amount: Bandwidth },
}

/// A point in an overlay's journal, returned by
/// [`OverlayState::checkpoint`] and consumed by
/// [`OverlayState::rollback`]. Marks must be unwound in LIFO order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayMark(usize);

impl<'a> OverlayState<'a> {
    /// An overlay that initially mirrors `base` exactly.
    #[must_use]
    pub fn new(infra: &'a Infrastructure, base: &'a CapacityState) -> Self {
        OverlayState {
            infra,
            base,
            used_host: FxHashMap::default(),
            used_link: FxHashMap::default(),
            added_nodes: FxHashMap::default(),
            journal: Vec::new(),
            generation: next_generation(),
            ops: 0,
        }
    }

    /// The infrastructure this overlay is defined over.
    #[must_use]
    pub fn infrastructure(&self) -> &'a Infrastructure {
        self.infra
    }

    /// The base state this overlay extends.
    #[must_use]
    pub fn base(&self) -> &'a CapacityState {
        self.base
    }

    /// A copy of this overlay that starts its own journal. Equivalent
    /// to `clone()` for every query, but cheaper when the parent has a
    /// long history: the journal is not carried over, so the fork can
    /// only roll back to its own checkpoints.
    #[must_use]
    pub fn fork(&self) -> Self {
        OverlayState {
            infra: self.infra,
            base: self.base,
            used_host: self.used_host.clone(),
            used_link: self.used_link.clone(),
            added_nodes: self.added_nodes.clone(),
            journal: Vec::new(),
            generation: next_generation(),
            ops: 0,
        }
    }

    /// Identity of this overlay's journal stream (see the field docs).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Lifetime count of journal pushes plus rollback pops.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Current journal length (also exposed as [`checkpoint`](Self::checkpoint)).
    #[must_use]
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The journal suffix starting at `from`, for incremental replay.
    pub(crate) fn journal_tail(&self, from: usize) -> &[OverlayOp] {
        &self.journal[from..]
    }

    /// Per-host resource usage entries of this hypothesis.
    pub(crate) fn used_host_entries(&self) -> impl Iterator<Item = (HostId, Resources)> + '_ {
        self.used_host.iter().map(|(&h, &r)| (h, r))
    }

    /// Per-link bandwidth usage entries of this hypothesis.
    pub(crate) fn used_link_entries(&self) -> impl Iterator<Item = (LinkRef, Bandwidth)> + '_ {
        self.used_link.iter().map(|(&l, &b)| (l, b))
    }

    /// Marks the current journal position. Reservations made after the
    /// checkpoint can be reverted with [`rollback`](Self::rollback).
    #[must_use]
    pub fn checkpoint(&self) -> OverlayMark {
        OverlayMark(self.journal.len())
    }

    /// Reverts every reservation made since `mark`, restoring the
    /// overlay to exactly the state observed at the checkpoint.
    ///
    /// Nested marks must be unwound innermost-first; rolling back to an
    /// outer mark discards any inner marks taken after it.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the current journal (i.e. it was
    /// already rolled back, or it came from a different overlay).
    pub fn rollback(&mut self, mark: OverlayMark) {
        assert!(
            mark.0 <= self.journal.len(),
            "rollback past the journal: mark {} > len {}",
            mark.0,
            self.journal.len()
        );
        while self.journal.len() > mark.0 {
            self.ops += 1;
            match self.journal.pop().unwrap() {
                OverlayOp::Host { host, req } => {
                    let used = self.used_host.get_mut(&host).expect("journaled host present");
                    *used -= req;
                    let count = self.added_nodes.get_mut(&host).expect("journaled count present");
                    *count -= 1;
                    if *count == 0 {
                        // Drop empty entries: `newly_active_hosts` and
                        // `is_active` key off map membership.
                        self.added_nodes.remove(&host);
                        self.used_host.remove(&host);
                    }
                }
                OverlayOp::Link { link, amount } => {
                    let used = self.used_link.get_mut(&link).expect("journaled link present");
                    *used -= amount;
                    if *used == Bandwidth::ZERO {
                        self.used_link.remove(&link);
                    }
                }
            }
        }
    }

    /// Remaining host-local capacity under this hypothesis.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    #[must_use]
    pub fn available(&self, host: HostId) -> Resources {
        let base = self.base.available(host);
        match self.used_host.get(&host) {
            Some(&extra) => base.saturating_sub(extra),
            None => base,
        }
    }

    /// Remaining bandwidth on a link under this hypothesis.
    ///
    /// # Panics
    ///
    /// Panics if the link's id is out of range.
    #[must_use]
    pub fn link_available(&self, link: LinkRef) -> Bandwidth {
        let base = self.base.link_available(link);
        match self.used_link.get(&link) {
            Some(&extra) => base.saturating_sub(extra),
            None => base,
        }
    }

    /// `true` if the host runs any node, in the base state or in this
    /// hypothesis.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    #[must_use]
    pub fn is_active(&self, host: HostId) -> bool {
        self.base.is_active(host) || self.added_nodes.contains_key(&host)
    }

    /// Number of nodes this hypothesis itself placed on `host`.
    #[must_use]
    pub fn added_node_count(&self, host: HostId) -> u32 {
        self.added_nodes.get(&host).copied().unwrap_or(0)
    }

    /// Hosts that were idle in the base state but are used by this
    /// hypothesis — the objective's `uc` numerator.
    #[must_use]
    pub fn newly_active_hosts(&self) -> usize {
        self.added_nodes.keys().filter(|&&h| !self.base.is_active(h)).count()
    }

    /// Total additional bandwidth this hypothesis reserved across all
    /// links — its contribution to `ubw`.
    #[must_use]
    pub fn added_reserved_bandwidth(&self) -> Bandwidth {
        self.used_link.values().copied().sum()
    }

    /// Reserves host-local resources for one node under this hypothesis.
    ///
    /// # Errors
    ///
    /// [`CapacityError::InsufficientHost`] if the node does not fit on
    /// top of base usage plus this overlay's usage; the overlay is
    /// unchanged on error.
    pub fn reserve_node(&mut self, host: HostId, req: Resources) -> Result<(), CapacityError> {
        let available = self.available(host);
        if !req.fits_within(&available) {
            return Err(CapacityError::InsufficientHost { host, needed: req, available });
        }
        *self.used_host.entry(host).or_insert(Resources::ZERO) += req;
        *self.added_nodes.entry(host).or_insert(0) += 1;
        self.journal.push(OverlayOp::Host { host, req });
        self.ops += 1;
        Ok(())
    }

    /// Bandwidth remaining along the route between `a` and `b`, or
    /// `None` when `a == b`.
    #[must_use]
    pub fn route_headroom(&self, a: HostId, b: HostId) -> Option<Bandwidth> {
        self.infra.route_pair(a, b).iter().map(|l| self.link_available(l)).min()
    }

    /// `true` if a flow of `demand` fits on every link between `a` and `b`.
    #[must_use]
    pub fn flow_fits(&self, a: HostId, b: HostId, demand: Bandwidth) -> bool {
        match self.route_headroom(a, b) {
            None => true,
            Some(headroom) => demand <= headroom,
        }
    }

    /// Reserves `demand` on every link between `a` and `b` under this
    /// hypothesis.
    ///
    /// # Errors
    ///
    /// [`CapacityError::InsufficientLink`] naming the first saturated
    /// link; the overlay is unchanged on error.
    pub fn reserve_flow(
        &mut self,
        a: HostId,
        b: HostId,
        demand: Bandwidth,
    ) -> Result<(), CapacityError> {
        let route = self.infra.route_pair(a, b);
        for link in route.iter() {
            let available = self.link_available(link);
            if demand > available {
                return Err(CapacityError::InsufficientLink { link, needed: demand, available });
            }
        }
        for link in route.iter() {
            *self.used_link.entry(link).or_insert(Bandwidth::ZERO) += demand;
            self.journal.push(OverlayOp::Link { link, amount: demand });
            self.ops += 1;
        }
        Ok(())
    }

    /// Commits this hypothesis into a real capacity state, which must be
    /// equal to the overlay's base (same usage).
    ///
    /// # Errors
    ///
    /// Propagates the first reservation failure; `target` may then hold
    /// a partial commit, so callers should treat an error as fatal for
    /// that state (in practice this cannot fail when `target` equals
    /// the overlay's base, because every reservation was validated).
    pub fn commit(&self, target: &mut CapacityState) -> Result<(), CapacityError> {
        for (&host, &used) in &self.used_host {
            let avail = target.available(host);
            if !used.fits_within(&avail) {
                return Err(CapacityError::InsufficientHost {
                    host,
                    needed: used,
                    available: avail,
                });
            }
        }
        for (&link, &used) in &self.used_link {
            let available = target.link_available(link);
            if used > available {
                return Err(CapacityError::InsufficientLink { link, needed: used, available });
            }
        }
        for (&host, &used) in &self.used_host {
            let count = self.added_nodes.get(&host).copied().unwrap_or(0);
            target.reserve_node(host, used)?;
            if count > 1 {
                target.bump_node_count(host, count - 1);
            }
        }
        for (&link, &used) in &self.used_link {
            debug_assert!(target.link_available(link) <= link_total(self.infra, link));
            target.debit_link_unchecked(link, used);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InfrastructureBuilder;
    use crate::ids::RackId;

    fn setup() -> (Infrastructure, CapacityState) {
        let infra = InfrastructureBuilder::flat(
            "dc",
            2,
            2,
            Resources::new(8, 16_384, 500),
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

    #[test]
    fn overlay_shadows_base_without_mutating_it() {
        let (infra, base) = setup();
        let mut ov = OverlayState::new(&infra, &base);
        ov.reserve_node(h(0), Resources::new(4, 4_096, 0)).unwrap();
        assert_eq!(ov.available(h(0)).vcpus, 4);
        assert_eq!(base.available(h(0)).vcpus, 8);
        assert!(ov.is_active(h(0)));
        assert!(!base.is_active(h(0)));
        assert_eq!(ov.newly_active_hosts(), 1);
    }

    #[test]
    fn overlay_sees_base_usage() {
        let (infra, mut base) = setup();
        base.reserve_node(h(1), Resources::new(6, 1, 1)).unwrap();
        let mut ov = OverlayState::new(&infra, &base);
        assert!(ov.is_active(h(1)));
        assert_eq!(ov.newly_active_hosts(), 0);
        let err = ov.reserve_node(h(1), Resources::new(3, 1, 1)).unwrap_err();
        assert!(matches!(err, CapacityError::InsufficientHost { .. }));
        ov.reserve_node(h(1), Resources::new(2, 1, 1)).unwrap();
        assert_eq!(ov.newly_active_hosts(), 0);
        assert_eq!(ov.added_node_count(h(1)), 1);
    }

    #[test]
    fn overlay_flow_accounting() {
        let (infra, base) = setup();
        let mut ov = OverlayState::new(&infra, &base);
        let bw = Bandwidth::from_gbps(2);
        ov.reserve_flow(h(0), h(2), bw).unwrap();
        // 2 NICs + 2 ToR uplinks.
        assert_eq!(ov.added_reserved_bandwidth(), Bandwidth::from_gbps(8));
        assert_eq!(ov.link_available(LinkRef::HostNic(h(0))), Bandwidth::from_gbps(8));
        assert_eq!(
            ov.link_available(LinkRef::TorUplink(RackId::from_index(0))),
            Bandwidth::from_gbps(98)
        );
        assert!(ov.flow_fits(h(0), h(2), Bandwidth::from_gbps(8)));
        assert!(!ov.flow_fits(h(0), h(2), Bandwidth::from_gbps(9)));
        assert_eq!(ov.route_headroom(h(0), h(1)), Some(Bandwidth::from_gbps(8)));
    }

    #[test]
    fn overlay_flow_rejection_is_atomic() {
        let (infra, base) = setup();
        let mut ov = OverlayState::new(&infra, &base);
        ov.reserve_flow(h(0), h(1), Bandwidth::from_gbps(10)).unwrap();
        let snapshot = ov.added_reserved_bandwidth();
        assert!(ov.reserve_flow(h(0), h(2), Bandwidth::from_mbps(1)).is_err());
        assert_eq!(ov.added_reserved_bandwidth(), snapshot);
    }

    #[test]
    fn clone_branches_independently() {
        let (infra, base) = setup();
        let mut a = OverlayState::new(&infra, &base);
        a.reserve_node(h(0), Resources::new(2, 2_048, 0)).unwrap();
        let mut b = a.clone();
        b.reserve_node(h(0), Resources::new(2, 2_048, 0)).unwrap();
        assert_eq!(a.available(h(0)).vcpus, 6);
        assert_eq!(b.available(h(0)).vcpus, 4);
    }

    #[test]
    fn fork_branches_independently_with_fresh_journal() {
        let (infra, base) = setup();
        let mut a = OverlayState::new(&infra, &base);
        a.reserve_node(h(0), Resources::new(2, 2_048, 0)).unwrap();
        let mut b = a.fork();
        assert_eq!(b.checkpoint(), OverlayMark(0));
        let mark = b.checkpoint();
        b.reserve_node(h(0), Resources::new(2, 2_048, 0)).unwrap();
        assert_eq!(a.available(h(0)).vcpus, 6);
        assert_eq!(b.available(h(0)).vcpus, 4);
        b.rollback(mark);
        assert_eq!(b.available(h(0)).vcpus, 6);
        assert_eq!(b.added_node_count(h(0)), 1);
    }

    #[test]
    fn rollback_restores_activation_accounting() {
        let (infra, base) = setup();
        let mut ov = OverlayState::new(&infra, &base);
        let mark = ov.checkpoint();
        ov.reserve_node(h(0), Resources::new(1, 1_024, 0)).unwrap();
        ov.reserve_node(h(0), Resources::new(1, 1_024, 0)).unwrap();
        ov.reserve_flow(h(0), h(2), Bandwidth::from_gbps(1)).unwrap();
        assert_eq!(ov.newly_active_hosts(), 1);
        assert_eq!(ov.added_node_count(h(0)), 2);
        ov.rollback(mark);
        assert_eq!(ov.newly_active_hosts(), 0);
        assert_eq!(ov.added_node_count(h(0)), 0);
        assert!(!ov.is_active(h(0)));
        assert_eq!(ov.added_reserved_bandwidth(), Bandwidth::ZERO);
        assert_eq!(ov.available(h(0)), base.available(h(0)));
    }

    #[test]
    fn partial_rollback_keeps_earlier_reservations() {
        let (infra, base) = setup();
        let mut ov = OverlayState::new(&infra, &base);
        ov.reserve_node(h(0), Resources::new(2, 2_048, 0)).unwrap();
        let mark = ov.checkpoint();
        ov.reserve_node(h(0), Resources::new(3, 3_072, 0)).unwrap();
        ov.reserve_node(h(1), Resources::new(1, 1_024, 0)).unwrap();
        ov.rollback(mark);
        assert_eq!(ov.available(h(0)).vcpus, 6);
        assert_eq!(ov.added_node_count(h(0)), 1);
        assert_eq!(ov.added_node_count(h(1)), 0);
        assert!(!ov.is_active(h(1)));
        assert_eq!(ov.newly_active_hosts(), 1);
    }

    #[test]
    #[should_panic(expected = "rollback past the journal")]
    fn stale_mark_panics() {
        let (infra, base) = setup();
        let mut ov = OverlayState::new(&infra, &base);
        ov.reserve_node(h(0), Resources::new(1, 1, 0)).unwrap();
        let mark = ov.checkpoint();
        ov.rollback(OverlayMark(0));
        ov.rollback(mark); // now beyond the journal
    }

    #[test]
    fn commit_transfers_usage_to_real_state() {
        let (infra, mut base) = setup();
        let committed = {
            let snapshot = base.clone();
            let mut ov = OverlayState::new(&infra, &snapshot);
            ov.reserve_node(h(0), Resources::new(4, 4_096, 100)).unwrap();
            ov.reserve_node(h(0), Resources::new(1, 1_024, 0)).unwrap();
            ov.reserve_node(h(2), Resources::new(2, 2_048, 0)).unwrap();
            ov.reserve_flow(h(0), h(2), Bandwidth::from_gbps(1)).unwrap();
            let mut target = snapshot.clone();
            ov.commit(&mut target).unwrap();
            target
        };
        base = committed;
        assert_eq!(base.available(h(0)), Resources::new(3, 11_264, 400));
        assert_eq!(base.node_count(h(0)), 2);
        assert_eq!(base.node_count(h(2)), 1);
        assert_eq!(base.total_reserved_bandwidth(&infra), Bandwidth::from_gbps(4));
    }

    #[test]
    fn same_host_flow_is_free_in_overlay() {
        let (infra, base) = setup();
        let mut ov = OverlayState::new(&infra, &base);
        ov.reserve_flow(h(0), h(0), Bandwidth::from_gbps(1_000)).unwrap();
        assert_eq!(ov.added_reserved_bandwidth(), Bandwidth::ZERO);
    }
}
