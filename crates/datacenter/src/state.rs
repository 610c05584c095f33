use ostro_model::{Bandwidth, Resources};
use serde::{Deserialize, Serialize};

use crate::error::CapacityError;
use crate::ids::{HostId, PodId, RackId, SiteId};
use crate::path::LinkRef;
use crate::structure::Infrastructure;

/// Mutable availability bookkeeping over an [`Infrastructure`]: what is
/// left on every host and every network link, and which hosts are
/// *active* (running at least one placed node).
///
/// All reservations validate before mutating: a failed reserve leaves
/// the state untouched. Flows reserve bandwidth on every link of the
/// route between the two hosts (§II-B2's path constraint).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapacityState {
    host_avail: Vec<Resources>,
    nic_avail: Vec<Bandwidth>,
    tor_avail: Vec<Bandwidth>,
    pod_avail: Vec<Bandwidth>,
    site_avail: Vec<Bandwidth>,
    node_count: Vec<u32>,
}

impl CapacityState {
    /// A fully available state: every host idle, every link empty.
    #[must_use]
    pub fn new(infra: &Infrastructure) -> Self {
        CapacityState {
            host_avail: infra.hosts().iter().map(|h| h.capacity()).collect(),
            nic_avail: infra.hosts().iter().map(|h| h.nic()).collect(),
            tor_avail: infra.racks().iter().map(|r| r.uplink()).collect(),
            pod_avail: infra.pods().iter().map(|p| p.uplink()).collect(),
            site_avail: infra.sites().iter().map(|s| s.uplink()).collect(),
            node_count: vec![0; infra.host_count()],
        }
    }

    /// Remaining host-local capacity.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range for the underlying infrastructure.
    #[must_use]
    pub fn available(&self, host: HostId) -> Resources {
        self.host_avail[host.index()]
    }

    /// Remaining bandwidth on a host's NIC.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    #[must_use]
    pub fn nic_available(&self, host: HostId) -> Bandwidth {
        self.nic_avail[host.index()]
    }

    /// Remaining bandwidth on a link.
    ///
    /// # Panics
    ///
    /// Panics if the link's id is out of range.
    #[must_use]
    pub fn link_available(&self, link: LinkRef) -> Bandwidth {
        match link {
            LinkRef::HostNic(h) => self.nic_avail[h.index()],
            LinkRef::TorUplink(r) => self.tor_avail[r.index()],
            LinkRef::PodUplink(p) => self.pod_avail[p.index()],
            LinkRef::SiteUplink(s) => self.site_avail[s.index()],
        }
    }

    /// Remaining bandwidth on a rack's ToR uplink.
    ///
    /// # Panics
    ///
    /// Panics if `rack` is out of range.
    #[must_use]
    pub fn tor_available(&self, rack: RackId) -> Bandwidth {
        self.tor_avail[rack.index()]
    }

    /// Remaining bandwidth on a pod switch's uplink.
    ///
    /// # Panics
    ///
    /// Panics if `pod` is out of range.
    #[must_use]
    pub fn pod_available(&self, pod: PodId) -> Bandwidth {
        self.pod_avail[pod.index()]
    }

    /// Remaining bandwidth on a site's backbone uplink.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn site_available(&self, site: SiteId) -> Bandwidth {
        self.site_avail[site.index()]
    }

    /// `true` if at least one node is currently placed on `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    #[must_use]
    pub fn is_active(&self, host: HostId) -> bool {
        self.node_count[host.index()] > 0
    }

    /// Number of nodes currently placed on `host`.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    #[must_use]
    pub fn node_count(&self, host: HostId) -> u32 {
        self.node_count[host.index()]
    }

    /// Number of hosts with at least one placed node.
    #[must_use]
    pub fn active_host_count(&self) -> usize {
        self.node_count.iter().filter(|&&c| c > 0).count()
    }

    /// Number of hosts this state tracks — used to validate that a
    /// deserialized state actually matches an infrastructure before any
    /// indexed access can go wrong.
    #[must_use]
    pub fn host_count(&self) -> usize {
        self.host_avail.len()
    }

    /// Reserves host-local resources for one node and marks the host
    /// active.
    ///
    /// # Errors
    ///
    /// [`CapacityError::InsufficientHost`] if the request does not fit;
    /// the state is unchanged on error.
    pub fn reserve_node(&mut self, host: HostId, req: Resources) -> Result<(), CapacityError> {
        let avail = &mut self.host_avail[host.index()];
        match avail.checked_sub(req) {
            Some(rest) => {
                *avail = rest;
                self.node_count[host.index()] += 1;
                Ok(())
            }
            None => Err(CapacityError::InsufficientHost { host, needed: req, available: *avail }),
        }
    }

    /// Releases one node's host-local resources.
    ///
    /// # Errors
    ///
    /// [`CapacityError::ReleaseUnderflowHost`] if the release exceeds
    /// what is reserved (including if no node is placed on the host).
    pub fn release_node(
        &mut self,
        infra: &Infrastructure,
        host: HostId,
        req: Resources,
    ) -> Result<(), CapacityError> {
        if self.node_count[host.index()] == 0 {
            return Err(CapacityError::ReleaseUnderflowHost(host));
        }
        let total = infra.host(host).capacity();
        let restored = self.host_avail[host.index()] + req;
        if !restored.fits_within(&total) {
            return Err(CapacityError::ReleaseUnderflowHost(host));
        }
        self.host_avail[host.index()] = restored;
        self.node_count[host.index()] -= 1;
        Ok(())
    }

    /// Bandwidth remaining along the whole route between `a` and `b`
    /// (the minimum over its links), or `None` when `a == b` (infinite
    /// intra-host bandwidth).
    #[must_use]
    pub fn route_headroom(
        &self,
        infra: &Infrastructure,
        a: HostId,
        b: HostId,
    ) -> Option<Bandwidth> {
        infra.route_pair(a, b).iter().map(|l| self.link_available(l)).min()
    }

    /// `true` if a flow of `demand` fits on every link between `a` and `b`.
    #[must_use]
    pub fn flow_fits(
        &self,
        infra: &Infrastructure,
        a: HostId,
        b: HostId,
        demand: Bandwidth,
    ) -> bool {
        match self.route_headroom(infra, a, b) {
            None => true,
            Some(headroom) => demand <= headroom,
        }
    }

    /// Reserves `demand` on every link between `a` and `b`. A flow
    /// between co-located nodes reserves nothing.
    ///
    /// # Errors
    ///
    /// [`CapacityError::InsufficientLink`] naming the first saturated
    /// link; the state is unchanged on error.
    pub fn reserve_flow(
        &mut self,
        infra: &Infrastructure,
        a: HostId,
        b: HostId,
        demand: Bandwidth,
    ) -> Result<(), CapacityError> {
        let route = infra.route_pair(a, b);
        for link in route.iter() {
            let available = self.link_available(link);
            if demand > available {
                return Err(CapacityError::InsufficientLink { link, needed: demand, available });
            }
        }
        for link in route.iter() {
            *self.link_available_mut(link) -= demand;
        }
        Ok(())
    }

    /// Releases `demand` on every link between `a` and `b`.
    ///
    /// # Errors
    ///
    /// [`CapacityError::ReleaseUnderflowLink`] if any link would exceed
    /// its total capacity; the state is unchanged on error.
    pub fn release_flow(
        &mut self,
        infra: &Infrastructure,
        a: HostId,
        b: HostId,
        demand: Bandwidth,
    ) -> Result<(), CapacityError> {
        let route = infra.route_pair(a, b);
        for link in route.iter() {
            let total = link_total(infra, link);
            if self.link_available(link) + demand > total {
                return Err(CapacityError::ReleaseUnderflowLink(link));
            }
        }
        for link in route.iter() {
            *self.link_available_mut(link) += demand;
        }
        Ok(())
    }

    /// Takes a host out of service: whatever capacity and NIC
    /// bandwidth it still has is marked used, so no placement can
    /// select it. Resources already reserved on the host remain
    /// reserved (release them by releasing their placements).
    ///
    /// Note that the frozen capacity counts as *used* in aggregate
    /// metrics such as
    /// [`total_reserved_bandwidth`](Self::total_reserved_bandwidth).
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn quarantine_host(&mut self, host: HostId) {
        self.host_avail[host.index()] = Resources::ZERO;
        self.nic_avail[host.index()] = Bandwidth::ZERO;
    }

    /// Lifts a quarantined host's zeroed availability by `free` and its
    /// NIC headroom by `nic` — exactly what a reservation about to be
    /// re-applied there takes back out. Undoing a release that happened
    /// while the host was frozen needs this: the release left the
    /// frozen cells at zero, so its inverse must enter them at the
    /// released amount to leave them at zero again.
    ///
    /// # Panics
    ///
    /// Panics if `host` is out of range.
    pub fn thaw_host(&mut self, host: HostId, free: Resources, nic: Bandwidth) {
        self.host_avail[host.index()] = self.host_avail[host.index()] + free;
        self.nic_avail[host.index()] += nic;
    }

    /// Forces one host's local books to an externally observed truth:
    /// `used` resources reserved and `count` nodes resident. The
    /// anti-entropy sweep uses this to repair a host whose session view
    /// drifted from the Nova ground truth; NIC and fabric bandwidth are
    /// left untouched (link truth is reconciled separately, if at all).
    ///
    /// # Errors
    ///
    /// [`CapacityError::InsufficientHost`] if `used` exceeds the host's
    /// total capacity; the state is unchanged on error.
    pub fn resync_host(
        &mut self,
        infra: &Infrastructure,
        host: HostId,
        used: Resources,
        count: u32,
    ) -> Result<(), CapacityError> {
        let total = infra.host(host).capacity();
        let avail = total.checked_sub(used).ok_or(CapacityError::InsufficientHost {
            host,
            needed: used,
            available: total,
        })?;
        self.host_avail[host.index()] = avail;
        self.node_count[host.index()] = count;
        Ok(())
    }

    /// Marks pre-existing bandwidth usage on a single link, for
    /// modeling workloads that were running before any placement this
    /// state tracks (e.g. the paper's Table IV availability profiles).
    ///
    /// Unlike [`reserve_flow`](Self::reserve_flow) this touches exactly
    /// one link and is not tied to a host pair.
    ///
    /// # Errors
    ///
    /// [`CapacityError::InsufficientLink`] if `used` exceeds the link's
    /// remaining bandwidth.
    pub fn preload_link(&mut self, link: LinkRef, used: Bandwidth) -> Result<(), CapacityError> {
        let available = self.link_available(link);
        if used > available {
            return Err(CapacityError::InsufficientLink { link, needed: used, available });
        }
        *self.link_available_mut(link) -= used;
        Ok(())
    }

    pub(crate) fn debit_link_unchecked(&mut self, link: LinkRef, amount: Bandwidth) {
        *self.link_available_mut(link) -= amount;
    }

    pub(crate) fn bump_node_count(&mut self, host: HostId, extra: u32) {
        self.node_count[host.index()] += extra;
    }

    fn link_available_mut(&mut self, link: LinkRef) -> &mut Bandwidth {
        match link {
            LinkRef::HostNic(h) => &mut self.nic_avail[h.index()],
            LinkRef::TorUplink(r) => &mut self.tor_avail[r.index()],
            LinkRef::PodUplink(p) => &mut self.pod_avail[p.index()],
            LinkRef::SiteUplink(s) => &mut self.site_avail[s.index()],
        }
    }

    /// Total bandwidth currently reserved across all links — the
    /// objective's `ubw` measured on live state.
    #[must_use]
    pub fn total_reserved_bandwidth(&self, infra: &Infrastructure) -> Bandwidth {
        let mut total = Bandwidth::ZERO;
        for host in infra.hosts() {
            total += host.nic() - self.nic_avail[host.id().index()];
        }
        for rack in infra.racks() {
            total += rack.uplink() - self.tor_avail[rack.id().index()];
        }
        for pod in infra.pods() {
            total += pod.uplink() - self.pod_avail[pod.id().index()];
        }
        for site in infra.sites() {
            total += site.uplink() - self.site_avail[site.id().index()];
        }
        total
    }
}

pub(crate) fn link_total(infra: &Infrastructure, link: LinkRef) -> Bandwidth {
    match link {
        LinkRef::HostNic(h) => infra.host(h).nic(),
        LinkRef::TorUplink(r) => infra.rack(r).uplink(),
        LinkRef::PodUplink(p) => infra.pod(p).uplink(),
        LinkRef::SiteUplink(s) => infra.site(s).uplink(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::InfrastructureBuilder;

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
    fn fresh_state_is_idle_and_full() {
        let (infra, state) = setup();
        assert_eq!(state.active_host_count(), 0);
        for host in infra.hosts() {
            assert_eq!(state.available(host.id()), host.capacity());
            assert_eq!(state.nic_available(host.id()), host.nic());
            assert!(!state.is_active(host.id()));
        }
        assert_eq!(state.total_reserved_bandwidth(&infra), Bandwidth::ZERO);
    }

    #[test]
    fn reserve_and_release_node_round_trip() {
        let (infra, mut state) = setup();
        let req = Resources::new(4, 8_192, 100);
        state.reserve_node(h(0), req).unwrap();
        assert!(state.is_active(h(0)));
        assert_eq!(state.node_count(h(0)), 1);
        assert_eq!(state.active_host_count(), 1);
        assert_eq!(state.available(h(0)), Resources::new(4, 8_192, 400));
        state.release_node(&infra, h(0), req).unwrap();
        assert!(!state.is_active(h(0)));
        assert_eq!(state.available(h(0)), Resources::new(8, 16_384, 500));
    }

    #[test]
    fn reserve_node_rejects_overcommit_without_mutating() {
        let (_, mut state) = setup();
        let before = state.clone();
        let err = state.reserve_node(h(0), Resources::new(9, 1, 1)).unwrap_err();
        assert!(matches!(err, CapacityError::InsufficientHost { host, .. } if host == h(0)));
        assert_eq!(state, before);
    }

    #[test]
    fn release_node_guards_underflow() {
        let (infra, mut state) = setup();
        assert!(matches!(
            state.release_node(&infra, h(0), Resources::new(1, 1, 1)).unwrap_err(),
            CapacityError::ReleaseUnderflowHost(_)
        ));
        state.reserve_node(h(0), Resources::new(1, 1, 1)).unwrap();
        assert!(matches!(
            state.release_node(&infra, h(0), Resources::new(2, 1, 1)).unwrap_err(),
            CapacityError::ReleaseUnderflowHost(_)
        ));
    }

    #[test]
    fn flow_reservation_spans_route() {
        let (infra, mut state) = setup();
        // h0 and h2 are in different racks: 2 NICs + 2 ToR uplinks.
        let bw = Bandwidth::from_gbps(1);
        state.reserve_flow(&infra, h(0), h(2), bw).unwrap();
        assert_eq!(state.nic_available(h(0)), Bandwidth::from_gbps(9));
        assert_eq!(state.nic_available(h(2)), Bandwidth::from_gbps(9));
        assert_eq!(state.tor_available(RackId::from_index(0)), Bandwidth::from_gbps(99));
        assert_eq!(state.tor_available(RackId::from_index(1)), Bandwidth::from_gbps(99));
        // ubw counts every traversed link once.
        assert_eq!(state.total_reserved_bandwidth(&infra), Bandwidth::from_gbps(4));
        state.release_flow(&infra, h(0), h(2), bw).unwrap();
        assert_eq!(state.total_reserved_bandwidth(&infra), Bandwidth::ZERO);
    }

    #[test]
    fn same_host_flow_is_free() {
        let (infra, mut state) = setup();
        state.reserve_flow(&infra, h(0), h(0), Bandwidth::from_gbps(99)).unwrap();
        assert_eq!(state.total_reserved_bandwidth(&infra), Bandwidth::ZERO);
        assert!(state.flow_fits(&infra, h(0), h(0), Bandwidth::from_gbps(10_000)));
        assert_eq!(state.route_headroom(&infra, h(0), h(0)), None);
    }

    #[test]
    fn flow_rejection_is_atomic() {
        let (infra, mut state) = setup();
        // Saturate h0's NIC.
        state.reserve_flow(&infra, h(0), h(1), Bandwidth::from_gbps(10)).unwrap();
        let before = state.clone();
        let err = state.reserve_flow(&infra, h(0), h(2), Bandwidth::from_mbps(1)).unwrap_err();
        assert!(matches!(
            err,
            CapacityError::InsufficientLink { link: LinkRef::HostNic(host), .. } if host == h(0)
        ));
        assert_eq!(state, before);
    }

    #[test]
    fn headroom_is_min_over_route() {
        let (infra, mut state) = setup();
        state.reserve_flow(&infra, h(0), h(1), Bandwidth::from_gbps(4)).unwrap();
        // h0's NIC now has 6 left; ToR uplinks are untouched by the
        // intra-rack flow.
        assert_eq!(state.route_headroom(&infra, h(0), h(2)), Some(Bandwidth::from_gbps(6)));
        assert!(state.flow_fits(&infra, h(0), h(2), Bandwidth::from_gbps(6)));
        assert!(!state.flow_fits(&infra, h(0), h(2), Bandwidth::from_mbps(6_001)));
    }

    #[test]
    fn quarantine_blocks_all_new_use() {
        let (infra, mut state) = setup();
        state.reserve_node(h(0), Resources::new(2, 1_024, 10)).unwrap();
        state.quarantine_host(h(0));
        assert!(state.available(h(0)).is_zero());
        assert_eq!(state.nic_available(h(0)), Bandwidth::ZERO);
        assert!(state.reserve_node(h(0), Resources::new(1, 1, 0)).is_err());
        assert!(state.reserve_flow(&infra, h(0), h(1), Bandwidth::from_mbps(1)).is_err());
        // The resident node is still accounted.
        assert_eq!(state.node_count(h(0)), 1);
        assert!(state.is_active(h(0)));
    }

    #[test]
    fn resync_host_forces_books_to_truth() {
        let (infra, mut state) = setup();
        assert_eq!(state.host_count(), infra.host_count());
        state.reserve_node(h(0), Resources::new(4, 8_192, 100)).unwrap();
        // Ground truth says only half of that is real.
        let truth = Resources::new(2, 4_096, 50);
        state.resync_host(&infra, h(0), truth, 1).unwrap();
        assert_eq!(state.available(h(0)), Resources::new(6, 12_288, 450));
        assert_eq!(state.node_count(h(0)), 1);
        // Truth exceeding capacity is rejected without mutating.
        let before = state.clone();
        let err = state.resync_host(&infra, h(0), Resources::new(99, 1, 1), 1).unwrap_err();
        assert!(matches!(err, CapacityError::InsufficientHost { host, .. } if host == h(0)));
        assert_eq!(state, before);
    }

    #[test]
    fn preload_link_consumes_exactly_one_link() {
        let (infra, mut state) = setup();
        state.preload_link(LinkRef::HostNic(h(0)), Bandwidth::from_gbps(4)).unwrap();
        assert_eq!(state.nic_available(h(0)), Bandwidth::from_gbps(6));
        assert_eq!(state.tor_available(RackId::from_index(0)), Bandwidth::from_gbps(100));
        let err = state.preload_link(LinkRef::HostNic(h(0)), Bandwidth::from_gbps(7)).unwrap_err();
        assert!(matches!(err, CapacityError::InsufficientLink { .. }));
        assert_eq!(state.nic_available(h(0)), Bandwidth::from_gbps(6));
        let _ = infra;
    }

    #[test]
    fn release_flow_guards_underflow() {
        let (infra, mut state) = setup();
        assert!(matches!(
            state.release_flow(&infra, h(0), h(2), Bandwidth::from_gbps(1)).unwrap_err(),
            CapacityError::ReleaseUnderflowLink(_)
        ));
    }
}
