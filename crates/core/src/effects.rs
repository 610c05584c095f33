//! The one definition of a book mutation: a list of [`Effect`]s.
//!
//! Everything that changes the books — a commit, a release, a
//! migration, one launched node of a deployment, a quarantine, an
//! anti-entropy repair, a journal record being replayed — is an effect
//! list handed to [`apply`]. The builders say *what* an operation does;
//! [`apply`] is the only code that does it, live and on replay alike.
//!
//! [`CapacityState`] stores no quarantine flag: a quarantined host is
//! one whose free capacity and NIC headroom were zeroed, tracked by
//! the caller's flag vector. [`apply`] keeps those two cells at zero:
//! a reservation naming a quarantined host is refused whatever the
//! books say is free, and a release touching one is followed at once
//! by re-zeroing the host — the one point the re-freeze runs.

use ostro_datacenter::{CapacityError, CapacityState, HostId, Infrastructure};
use ostro_model::{ApplicationTopology, Bandwidth, NodeId, Resources};

use crate::error::PlacementError;
use crate::placement::Placement;

/// One primitive state mutation, the unit of `apply` and of journal
/// replay. A journal record is a sequence of effects applied
/// all-or-nothing, in order; replaying the whole journal reproduces
/// the live state bit-for-bit because live and replay run the same
/// `apply`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// `state.reserve_node(host, resources)`.
    ReserveNode {
        /// Target host.
        host: HostId,
        /// Node footprint.
        resources: Resources,
    },
    /// `state.release_node(infra, host, resources)`.
    ReleaseNode {
        /// Target host.
        host: HostId,
        /// Node footprint.
        resources: Resources,
    },
    /// `state.reserve_flow(infra, a, b, mbps)` along the `a`→`b` route.
    ReserveFlow {
        /// One endpoint host.
        a: HostId,
        /// The other endpoint host.
        b: HostId,
        /// Link demand in Mbps.
        mbps: u64,
    },
    /// `state.release_flow(infra, a, b, mbps)`.
    ReleaseFlow {
        /// One endpoint host.
        a: HostId,
        /// The other endpoint host.
        b: HostId,
        /// Link demand in Mbps.
        mbps: u64,
    },
    /// `state.quarantine_host(host)` — also raises the host's
    /// quarantine flag.
    Quarantine {
        /// The host frozen out of future placements.
        host: HostId,
    },
    /// `state.resync_host(infra, host, used, instances)` — an
    /// anti-entropy correction forcing the books to ground truth.
    Resync {
        /// The corrected host.
        host: HostId,
        /// Ground-truth used footprint.
        used: Resources,
        /// Ground-truth instance count.
        instances: u32,
    },
}

impl Effect {
    /// The effect undoing this one (quarantine and resync are their
    /// own "inverse" — they are idempotent forcings, not deltas).
    #[must_use]
    pub fn inverse(&self) -> Effect {
        match *self {
            Effect::ReserveNode { host, resources } => Effect::ReleaseNode { host, resources },
            Effect::ReleaseNode { host, resources } => Effect::ReserveNode { host, resources },
            Effect::ReserveFlow { a, b, mbps } => Effect::ReleaseFlow { a, b, mbps },
            Effect::ReleaseFlow { a, b, mbps } => Effect::ReserveFlow { a, b, mbps },
            other => other,
        }
    }

    /// The hosts whose rows this effect can change (a one-host effect
    /// names its host twice).
    pub(crate) fn hosts(&self) -> [HostId; 2] {
        match *self {
            Effect::ReserveNode { host, .. }
            | Effect::ReleaseNode { host, .. }
            | Effect::Quarantine { host }
            | Effect::Resync { host, .. } => [host, host],
            Effect::ReserveFlow { a, b, .. } | Effect::ReleaseFlow { a, b, .. } => [a, b],
        }
    }
}

/// Every node `host_of` places reserved in topology order, then every
/// link whose endpoints are both placed.
fn reservations(
    topology: &ApplicationTopology,
    host_of: impl Fn(NodeId) -> Option<HostId>,
) -> Vec<Effect> {
    let mut effects = Vec::with_capacity(topology.node_count() + topology.links().len());
    for node in topology.nodes() {
        if let Some(host) = host_of(node.id()) {
            effects.push(Effect::ReserveNode { host, resources: node.requirements() });
        }
    }
    for link in topology.links() {
        let (a, b) = link.endpoints();
        if let (Some(a), Some(b)) = (host_of(a), host_of(b)) {
            effects.push(Effect::ReserveFlow { a, b, mbps: link.bandwidth().as_mbps() });
        }
    }
    effects
}

/// What a commit does: every node reserved in topology order, then
/// every link's flow.
///
/// # Panics
///
/// Panics if `placement` does not cover every node of `topology`.
#[must_use]
pub fn commit_effects(topology: &ApplicationTopology, placement: &Placement) -> Vec<Effect> {
    reservations(topology, |node| Some(placement.host_of(node)))
}

/// What a release does: the exact inverse of [`commit_effects`], in
/// the same order.
#[must_use]
pub fn release_effects(topology: &ApplicationTopology, placement: &Placement) -> Vec<Effect> {
    inverted(&commit_effects(topology, placement))
}

/// The net effects of a successful deployment of a (possibly partial)
/// `assignment`: every placed node reserved, then every link whose
/// endpoints both landed.
///
/// # Panics
///
/// Panics if `assignment` is shorter than `topology`'s node list.
#[must_use]
pub fn deploy_effects(
    topology: &ApplicationTopology,
    assignment: &[Option<HostId>],
) -> Vec<Effect> {
    reservations(topology, |node| assignment[node.index()])
}

/// What releasing the committed subset of a partial `assignment` does:
/// the exact inverse of [`deploy_effects`], in the same order.
#[must_use]
pub fn release_partial_effects(
    topology: &ApplicationTopology,
    assignment: &[Option<HostId>],
) -> Vec<Effect> {
    inverted(&deploy_effects(topology, assignment))
}

/// The inverse of every effect of `list`, in the same order.
pub(crate) fn inverted(list: &[Effect]) -> Vec<Effect> {
    list.iter().map(Effect::inverse).collect()
}

/// The size check every placement-shaped mutation runs before building
/// its effects (the builders index by node id).
pub(crate) fn covers(topology: &ApplicationTopology, len: usize) -> Result<(), PlacementError> {
    if len == topology.node_count() {
        Ok(())
    } else {
        Err(PlacementError::SizeMismatch { expected: topology.node_count(), actual: len })
    }
}

/// The hosts whose quarantine flag is raised, ascending.
pub(crate) fn quarantined_hosts(flags: &[bool]) -> Vec<HostId> {
    flags
        .iter()
        .enumerate()
        .filter(|&(_, &q)| q)
        .map(|(i, _)| HostId::from_index(i as u32))
        .collect()
}

fn frozen(quarantined: &[bool], host: HostId) -> bool {
    quarantined.get(host.index()).copied().unwrap_or(false)
}

/// Applies `effects` to the books — `state` plus the caller's
/// per-host `quarantined` flags — in place and all-or-nothing: on the
/// first failing effect the applied prefix is [`undo`]ne and the books
/// are bit-equal to what they were. An empty flag slice means the
/// caller tracks no quarantine set (the stateless
/// [`Scheduler`](crate::Scheduler)).
///
/// `Quarantine` and `Resync` overwrite cells, so they cannot be undone
/// from the effect alone; every list this crate builds carries one
/// alone, where nothing after it can fail.
///
/// # Errors
///
/// The failing effect's [`CapacityError`] —
/// [`CapacityError::HostQuarantined`] for a reservation onto a
/// quarantined host.
pub(crate) fn apply(
    infra: &Infrastructure,
    state: &mut CapacityState,
    quarantined: &mut [bool],
    effects: &[Effect],
) -> Result<(), CapacityError> {
    for (k, &effect) in effects.iter().enumerate() {
        if let Err(e) = step(infra, state, quarantined, effect, false) {
            undo(infra, state, quarantined, &effects[..k]);
            return Err(e);
        }
    }
    Ok(())
}

/// Takes an applied list back off the books: the inverse of every
/// delta effect, last first. Integer bookkeeping round-trips, so the
/// books end bit-equal to what they were before the list was applied —
/// on a quarantined host too, whose frozen cells are entered at exactly
/// what the inverse takes back out.
///
/// # Panics
///
/// Panics if `effects` was not the last list applied to these books.
pub(crate) fn undo(
    infra: &Infrastructure,
    state: &mut CapacityState,
    quarantined: &mut [bool],
    effects: &[Effect],
) {
    for effect in effects.iter().rev() {
        let delta = !matches!(effect, Effect::Quarantine { .. } | Effect::Resync { .. });
        if delta && step(infra, state, quarantined, effect.inverse(), true).is_err() {
            unreachable!("the inverse of an applied effect fits");
        }
    }
}

/// One effect against the books — the only caller of the
/// [`CapacityState`] mutators outside the search overlay.
fn step(
    infra: &Infrastructure,
    state: &mut CapacityState,
    quarantined: &mut [bool],
    effect: Effect,
    undoing: bool,
) -> Result<(), CapacityError> {
    let hosts = effect.hosts();
    let named = &hosts[..if hosts[0] == hosts[1] { 1 } else { 2 }];
    // What a reservation takes out of each named host's own cells (a
    // flow between co-located nodes reserves nothing).
    let takes = match effect {
        Effect::ReserveNode { resources, .. } => Some((resources, Bandwidth::ZERO)),
        Effect::ReserveFlow { a, b, mbps } if a != b => {
            Some((Resources::ZERO, Bandwidth::from_mbps(mbps)))
        }
        _ => None,
    };
    if let Some((free, nic)) = takes {
        for &host in named.iter().filter(|&&h| frozen(quarantined, h)) {
            // Nothing new lands on a quarantined host. Undoing a
            // release there enters the frozen cells at what the
            // reservation takes back out, so they end at zero again.
            if !undoing {
                return Err(CapacityError::HostQuarantined(host));
            }
            state.thaw_host(host, free, nic);
        }
    }
    match effect {
        Effect::ReserveNode { host, resources } => state.reserve_node(host, resources)?,
        Effect::ReleaseNode { host, resources } => state.release_node(infra, host, resources)?,
        Effect::ReserveFlow { a, b, mbps } => {
            state.reserve_flow(infra, a, b, Bandwidth::from_mbps(mbps))?;
        }
        Effect::ReleaseFlow { a, b, mbps } => {
            state.release_flow(infra, a, b, Bandwidth::from_mbps(mbps))?;
        }
        Effect::Quarantine { host } => quarantined[host.index()] = true,
        Effect::Resync { host, used, instances } => {
            state.resync_host(infra, host, used, instances)?;
        }
    }
    // The re-freeze: anything but a reservation may have lifted a
    // quarantined host's zeroed cells (for `Quarantine` itself this is
    // the zeroing).
    if takes.is_none() {
        for &host in named.iter().filter(|&&h| frozen(quarantined, h)) {
            state.quarantine_host(host);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ostro_datacenter::InfrastructureBuilder;
    use ostro_model::{DiversityLevel, TopologyBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    fn h(i: usize) -> HostId {
        HostId::from_index(i as u32)
    }

    /// The two laws of the one apply, checked on a copy of the books:
    /// a failing list leaves them bit-equal, and an applied list is
    /// taken back bit-equal by `undo` (its inverse, last effect first).
    /// Returns the error the list failed with, if it did.
    fn check(
        infra: &Infrastructure,
        state: &CapacityState,
        flags: &[bool],
        list: &[Effect],
    ) -> Option<CapacityError> {
        let (mut s, mut f) = (state.clone(), flags.to_vec());
        let outcome = apply(infra, &mut s, &mut f, list);
        if outcome.is_ok() {
            for host in quarantined_hosts(&f) {
                assert!(s.available(host).is_zero(), "{host} thawed by {list:?}");
                assert!(s.nic_available(host).is_zero(), "{host} NIC thawed by {list:?}");
            }
            undo(infra, &mut s, &mut f, list);
        }
        assert_eq!(&s, state, "books moved: {list:?} -> {outcome:?}");
        assert_eq!(f, flags, "flags moved: {list:?}");
        outcome.err()
    }

    /// The cases `Scheduler`'s unit tests used to pin on their own —
    /// a commit that overloads a host partway, and a release of a
    /// placement that was never committed — as inputs to the same law.
    #[test]
    fn failing_commit_and_release_lists_leave_the_books_untouched() {
        let infra = infra();
        let mut b = TopologyBuilder::new("app");
        let web = b.vm("web", 2, 2_048).unwrap();
        let db = b.vm("db", 4, 8_192).unwrap();
        let vol = b.volume("vol", 100).unwrap();
        b.link(web, db, Bandwidth::from_mbps(100)).unwrap();
        b.link(db, vol, Bandwidth::from_mbps(200)).unwrap();
        b.diversity_zone("z", DiversityLevel::Host, &[web, db]).unwrap();
        let topo = b.build().unwrap();
        let all_on_h0 = Placement::new(vec![h(0); 3]);

        // `web` still fits next to the filler, `db` does not.
        let mut nearly_full = CapacityState::new(&infra);
        nearly_full.reserve_node(h(0), Resources::new(5, 4_000, 100)).unwrap();
        let err = check(&infra, &nearly_full, &[], &commit_effects(&topo, &all_on_h0));
        assert!(matches!(err, Some(CapacityError::InsufficientHost { .. })), "{err:?}");

        let fresh = CapacityState::new(&infra);
        let err = check(&infra, &fresh, &[], &release_effects(&topo, &all_on_h0));
        assert!(matches!(err, Some(CapacityError::ReleaseUnderflowHost(_))), "{err:?}");
    }

    /// Seeded property test over random mixed effect lists (node and
    /// flow reservations and releases) on books where some hosts —
    /// tenants still resident — are quarantined: (a) with a failing
    /// effect forced in at every position the books end bit-equal to
    /// what they were; (b) an applied list undoes to the identity.
    #[test]
    fn random_lists_are_all_or_nothing_and_undo_exactly() {
        let infra = infra();
        let hosts = infra.host_count();
        for seed in 0u64..6 {
            let mut rng = SmallRng::seed_from_u64(0x0EFF_EC75 ^ seed);
            let mut state = CapacityState::new(&infra);
            let mut flags = vec![false; hosts];
            // What the books hold, so generated releases are legal.
            let mut nodes: Vec<(HostId, Resources)> = Vec::new();
            let mut flows: Vec<(HostId, HostId, u64)> = Vec::new();
            let (mut applied_lists, mut frozen_releases) = (0, 0);
            for round in 0..60 {
                // The two busiest hosts are quarantined mid-stream,
                // residents and all.
                if round == 10 || round == 25 {
                    let host = (0..hosts).map(h).max_by_key(|&x| state.node_count(x)).unwrap();
                    apply(&infra, &mut state, &mut flags, &[Effect::Quarantine { host }]).unwrap();
                }
                let (mut new_nodes, mut new_flows) = (nodes.clone(), flows.clone());
                let mut list = Vec::new();
                // Reservations mostly avoid quarantined hosts (the few
                // that do not make the whole list fail, which is (a)).
                let pick = |rng: &mut SmallRng| loop {
                    let host = h(rng.gen_range(0..hosts));
                    if !frozen(&flags, host) || rng.gen_bool(0.03) {
                        break host;
                    }
                };
                for _ in 0..rng.gen_range(1..10) {
                    let (a, b) = (pick(&mut rng), pick(&mut rng));
                    match rng.gen_range(0u32..6) {
                        0 | 1 => {
                            let resources = Resources::new(
                                rng.gen_range(1..4),
                                1_024 * rng.gen_range(1..4),
                                20,
                            );
                            new_nodes.push((a, resources));
                            list.push(Effect::ReserveNode { host: a, resources });
                        }
                        2 => {
                            let mbps = rng.gen_range(50..2_000);
                            new_flows.push((a, b, mbps));
                            list.push(Effect::ReserveFlow { a, b, mbps });
                        }
                        3 | 4 if !new_nodes.is_empty() => {
                            let (host, resources) =
                                new_nodes.swap_remove(rng.gen_range(0..new_nodes.len()));
                            list.push(Effect::ReleaseNode { host, resources });
                        }
                        _ if !new_flows.is_empty() => {
                            let (a, b, mbps) =
                                new_flows.swap_remove(rng.gen_range(0..new_flows.len()));
                            list.push(Effect::ReleaseFlow { a, b, mbps });
                        }
                        _ => {}
                    }
                }
                if check(&infra, &state, &flags, &list).is_some() {
                    continue; // (a), by a failure the generator ran into
                }
                // (a) A failure forced in at every position.
                let frozen_host = quarantined_hosts(&flags).first().copied();
                for k in 0..=list.len() {
                    let bad = match (k % 3, frozen_host) {
                        (0, Some(host)) => {
                            Effect::ReserveNode { host, resources: Resources::new(1, 1, 0) }
                        }
                        (1, _) => Effect::ReleaseFlow { a: h(0), b: h(hosts - 1), mbps: 1 << 40 },
                        _ => Effect::ReserveNode {
                            host: h(k % hosts),
                            resources: Resources::new(1_000, 1, 1),
                        },
                    };
                    let mut forced = list.clone();
                    forced.insert(k, bad);
                    let err = check(&infra, &state, &flags, &forced);
                    assert!(err.is_some(), "seed {seed} round {round}: {bad:?} at {k} applied");
                    if let (0, Some(host)) = (k % 3, frozen_host) {
                        assert_eq!(err, Some(CapacityError::HostQuarantined(host)));
                    }
                }
                // (b) was checked above; now let the books evolve.
                apply(&infra, &mut state, &mut flags, &list).unwrap();
                (nodes, flows) = (new_nodes, new_flows);
                applied_lists += 1;
                frozen_releases += list
                    .iter()
                    .filter(|e| {
                        matches!(e, Effect::ReleaseNode { .. } | Effect::ReleaseFlow { .. })
                    })
                    .filter(|e| e.hosts().iter().any(|&host| frozen(&flags, host)))
                    .count();
            }
            assert!(applied_lists >= 10, "seed {seed}: only {applied_lists} lists applied");
            // Without releases off quarantined hosts the frozen-cell
            // half of `undo` would go untested.
            assert!(frozen_releases > 0, "seed {seed}: no release touched a quarantined host");
        }
    }
}
