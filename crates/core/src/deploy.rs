//! Failure-aware deployment execution: the gap between *decide* and
//! *commit*.
//!
//! [`Scheduler::place`] produces a decision against a snapshot of
//! capacity; in a real cloud the commit that follows can fail
//! node-by-node — Nova launches flake, hosts die, and capacity goes
//! stale under concurrent tenants. This module executes a
//! [`PlacementOutcome`](crate::PlacementOutcome)'s decision against a
//! live [`CapacityState`] one node at a time, and turns each of those
//! faults into a recovery action instead of a panic:
//!
//! * **Transient launch failures** (reported by a [`FaultProbe`]) are
//!   retried with exponential backoff on a simulated tick clock, up to
//!   [`DeployPolicy::max_attempts`] per node per host.
//! * **Exhausted or stale hosts** (retry budget spent, or a capacity
//!   reservation that no longer fits) trigger a *fallback*: the failing
//!   host is excluded and the not-yet-committed remainder is re-placed
//!   with [`Scheduler::replace_online`], pinning every committed node
//!   so the deployment disturbs as little as possible.
//! * **Unplaceable best-effort nodes** may be dropped under
//!   [`Degradation::DropBestEffort`] instead of failing the stack.
//! * Anything else aborts the deployment with a typed
//!   [`DeployError`], rolling the live state back so no partial
//!   reservation leaks.
//!
//! The companion [`Scheduler::evacuate`] implements host-crash
//! recovery: quarantine the dead host, release the tenant's
//! reservations (dead replicas included), and compute a pinned
//! re-placement for the survivors.

use ostro_datacenter::{CapacityState, HostId};
use ostro_model::{ApplicationTopology, NodeId};
use serde::{Deserialize, Serialize};

use crate::effects::{self, Effect};
use crate::error::PlacementError;
use crate::online::OnlineOutcome;
use crate::placement::Placement;
use crate::request::PlacementRequest;
use crate::scheduler::Scheduler;

/// What the fault probe says about one launch attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchVerdict {
    /// The hypervisor accepted the launch; commit the reservation.
    Launched,
    /// The launch failed transiently (agent timeout, image fetch,
    /// scheduler race) — worth retrying after a backoff.
    TransientFailure,
}

/// Injects launch-level faults into a deployment. Implemented by the
/// simulator's seeded fault plan; [`NoFaults`] is the production
/// default where the only failures are genuine capacity conflicts.
pub trait FaultProbe {
    /// Called before each reservation of `node` on `host`; `attempt`
    /// counts every launch the node has tried so far (across hosts).
    fn launch(&mut self, node: NodeId, host: HostId, attempt: u32) -> LaunchVerdict;
}

/// A probe that never injects a fault.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultProbe for NoFaults {
    fn launch(&mut self, _node: NodeId, _host: HostId, _attempt: u32) -> LaunchVerdict {
        LaunchVerdict::Launched
    }
}

/// What to do when a node has exhausted retries *and* fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Degradation {
    /// Abort the whole deployment and roll back (default: a stack is
    /// all-or-nothing).
    FailStack,
    /// Drop nodes the caller marked best-effort and deploy the rest;
    /// non-best-effort nodes still abort the stack.
    DropBestEffort,
}

/// Retry, backoff, fallback, and degradation knobs of one deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployPolicy {
    /// Launch attempts per node per target host before the host is
    /// declared failing (minimum 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in simulated ticks; each
    /// further retry doubles it.
    pub backoff_base_ticks: u64,
    /// Ceiling on a single backoff wait.
    pub backoff_cap_ticks: u64,
    /// Re-placement rounds (via [`Scheduler::replace_online`] with the
    /// failing hosts excluded) before degradation applies.
    pub max_fallbacks: u32,
    /// Pin-relaxation rounds handed to each fallback re-placement.
    pub unpin_rounds: u32,
    /// Whether best-effort nodes may be dropped instead of failing the
    /// stack.
    pub degradation: Degradation,
}

impl Default for DeployPolicy {
    fn default() -> Self {
        DeployPolicy {
            max_attempts: 3,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 8,
            max_fallbacks: 2,
            unpin_rounds: 3,
            degradation: Degradation::FailStack,
        }
    }
}

impl DeployPolicy {
    /// The simulated-tick wait before retry number `retry` (1-based),
    /// doubling from the base up to the cap.
    #[must_use]
    pub fn backoff_ticks(&self, retry: u32) -> u64 {
        let shift = retry.saturating_sub(1).min(32);
        self.backoff_base_ticks.saturating_mul(1u64 << shift).min(self.backoff_cap_ticks)
    }
}

/// How one node ended up after deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeFate {
    /// Committed on the decided host.
    Placed {
        /// The host the node runs on.
        host: HostId,
        /// Launches it took (1 = first try).
        attempts: u32,
    },
    /// Committed, but a fallback moved it off the decided host.
    Redirected {
        /// The host the decision named.
        decided: HostId,
        /// The host the node actually runs on.
        host: HostId,
        /// Launches it took across all hosts.
        attempts: u32,
    },
    /// Best-effort node abandoned under [`Degradation::DropBestEffort`].
    Dropped {
        /// The host the decision named.
        decided: HostId,
        /// Launches spent before giving up.
        attempts: u32,
    },
}

/// The result of one deployment: per-node fates plus the retry /
/// backoff / fallback accounting the churn metrics aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Final node → host assignment (`None` = dropped best-effort).
    pub assignment: Vec<Option<HostId>>,
    /// Per-node outcome, indexed by node id.
    pub fates: Vec<NodeFate>,
    /// Simulated ticks spent waiting in backoff.
    pub ticks: u64,
    /// Transient launch failures absorbed by retries.
    pub retries: u64,
    /// Fallback re-placements performed.
    pub fallbacks: u32,
    /// Previously committed nodes a fallback had to move.
    pub repositioned: u64,
    /// Best-effort nodes dropped.
    pub dropped: usize,
}

impl DeploymentReport {
    /// The deployed assignment as a dense [`Placement`], or `None` if
    /// any node was dropped.
    #[must_use]
    pub fn placement(&self) -> Option<Placement> {
        let hosts: Option<Vec<HostId>> = self.assignment.iter().copied().collect();
        hosts.map(Placement::new)
    }

    /// `true` if every node of the decision was committed somewhere.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }
}

/// A deployment that could not complete; the live state has been rolled
/// back to its pre-deployment snapshot.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeployError {
    /// The decision or best-effort mask does not cover the topology.
    SizeMismatch {
        /// Nodes in the topology.
        expected: usize,
        /// Entries provided.
        actual: usize,
    },
    /// A node exhausted its retries and every fallback; the stack was
    /// aborted and the state rolled back.
    NodeFailed {
        /// The node that could not be deployed.
        node: NodeId,
        /// Its name, for diagnostics.
        name: String,
        /// The last host it failed on.
        host: HostId,
        /// Total launches attempted for the node.
        attempts: u32,
        /// The underlying placement / capacity failure.
        source: PlacementError,
    },
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::SizeMismatch { expected, actual } => {
                write!(f, "deployment input covers {actual} nodes but topology has {expected}")
            }
            Self::NodeFailed { node, name, host, attempts, source } => write!(
                f,
                "node {node} (`{name}`) failed to deploy on {host} \
                 after {attempts} attempt(s): {source}"
            ),
        }
    }
}

impl std::error::Error for DeployError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::NodeFailed { source, .. } => Some(source),
            Self::SizeMismatch { .. } => None,
        }
    }
}

/// The result of evacuating one tenant off a crashed host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvacuationOutcome {
    /// The pinned re-placement covering every node (survivors pinned,
    /// dead replicas treated as new).
    pub online: OnlineOutcome,
    /// Replicas that were running on the crashed host.
    pub dead: Vec<NodeId>,
}

impl<'a> Scheduler<'a> {
    /// Commits a placement decision node-by-node against live state,
    /// surviving transient launch failures, stale capacity, and
    /// unhealthy hosts per `policy`. `best_effort` marks nodes that
    /// [`Degradation::DropBestEffort`] may abandon; pass an empty slice
    /// to use each node's own
    /// [`is_best_effort`](ostro_model::Node::is_best_effort) flag.
    ///
    /// On success the state holds exactly the reservations of the
    /// returned [`DeploymentReport::assignment`]. On error the state is
    /// rolled back to its value at entry.
    ///
    /// # Errors
    ///
    /// [`DeployError::SizeMismatch`] on malformed inputs, or
    /// [`DeployError::NodeFailed`] when a node exhausted retries,
    /// fallbacks, and degradation.
    #[allow(clippy::too_many_arguments)]
    pub fn deploy(
        &self,
        topology: &ApplicationTopology,
        decided: &Placement,
        state: &mut CapacityState,
        request: &PlacementRequest,
        policy: &DeployPolicy,
        best_effort: &[bool],
        probe: &mut dyn FaultProbe,
    ) -> Result<DeploymentReport, DeployError> {
        self.deploy_on(topology, decided, state, &mut [], request, policy, best_effort, probe)
    }

    /// [`deploy`](Self::deploy) against books with a quarantine set:
    /// the session's entry point, so a launch onto a quarantined host
    /// fails live exactly as the journaled net record would on replay.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn deploy_on(
        &self,
        topology: &ApplicationTopology,
        decided: &Placement,
        state: &mut CapacityState,
        quarantined: &mut [bool],
        request: &PlacementRequest,
        policy: &DeployPolicy,
        best_effort: &[bool],
        probe: &mut dyn FaultProbe,
    ) -> Result<DeploymentReport, DeployError> {
        let n = topology.node_count();
        if decided.assignments().len() != n {
            return Err(DeployError::SizeMismatch {
                expected: n,
                actual: decided.assignments().len(),
            });
        }
        if !best_effort.is_empty() && best_effort.len() != n {
            return Err(DeployError::SizeMismatch { expected: n, actual: best_effort.len() });
        }
        let snapshot = state.clone();
        let mut target: Vec<HostId> = decided.assignments().to_vec();
        let mut committed: Vec<Option<HostId>> = vec![None; n];
        let mut dropped: Vec<bool> = vec![false; n];
        let mut attempts: Vec<u32> = vec![0; n];
        let mut excluded: Vec<HostId> = Vec::new();
        let mut report = DeploymentReport {
            assignment: Vec::new(),
            fates: Vec::new(),
            ticks: 0,
            retries: 0,
            fallbacks: 0,
            repositioned: 0,
            dropped: 0,
        };

        while let Some(i) = next_pending(&committed, &dropped) {
            let node = NodeId::from_index(i as u32);
            let host = target[i];
            let mut host_attempts = 0u32;
            // Retry loop on the current target host.
            let failure: PlacementError = loop {
                attempts[i] += 1;
                match probe.launch(node, host, attempts[i] - 1) {
                    LaunchVerdict::TransientFailure => {
                        report.retries += 1;
                        host_attempts += 1;
                        if host_attempts >= policy.max_attempts.max(1) {
                            break PlacementError::Infeasible {
                                node,
                                name: topology.node(node).name().to_owned(),
                            };
                        }
                        report.ticks += policy.backoff_ticks(host_attempts);
                    }
                    LaunchVerdict::Launched => {
                        let launch = node_effects(topology, &committed, node, host);
                        match effects::apply(self.infrastructure(), state, quarantined, &launch) {
                            Ok(()) => {
                                committed[i] = Some(host);
                                break PlacementError::Exhausted; // sentinel, unused
                            }
                            Err(capacity) => break capacity.into(),
                        }
                    }
                }
            };
            if committed[i].is_some() {
                continue;
            }
            // The node failed on `host` — exclude it and fall back.
            if !excluded.contains(&host) {
                excluded.push(host);
            }
            let verdict = if report.fallbacks < policy.max_fallbacks {
                report.fallbacks += 1;
                self.deploy_fallback(
                    topology,
                    state,
                    quarantined,
                    request,
                    policy,
                    &excluded,
                    &mut target,
                    &mut committed,
                    &mut dropped,
                    &mut report,
                )
            } else {
                Err(failure)
            };
            if let Err(source) = verdict {
                // Degradation: drop the node if allowed, else abort.
                let marked = if best_effort.is_empty() {
                    topology.node(node).is_best_effort()
                } else {
                    best_effort[i]
                };
                let droppable = policy.degradation == Degradation::DropBestEffort && marked;
                if droppable {
                    dropped[i] = true;
                    report.dropped += 1;
                } else {
                    *state = snapshot;
                    return Err(DeployError::NodeFailed {
                        node,
                        name: topology.node(node).name().to_owned(),
                        host,
                        attempts: attempts[i],
                        source,
                    });
                }
            }
        }

        report.assignment = committed;
        report.fates = topology
            .nodes()
            .iter()
            .map(|nd| {
                let i = nd.id().index();
                match report.assignment[i] {
                    Some(host) if host == decided.host_of(nd.id()) => {
                        NodeFate::Placed { host, attempts: attempts[i].max(1) }
                    }
                    Some(host) => NodeFate::Redirected {
                        decided: decided.host_of(nd.id()),
                        host,
                        attempts: attempts[i].max(1),
                    },
                    None => NodeFate::Dropped {
                        decided: decided.host_of(nd.id()),
                        attempts: attempts[i],
                    },
                }
            })
            .collect();
        Ok(report)
    }

    /// One fallback round: re-place everything not yet committed (plus
    /// any dropped nodes, which get another chance) with committed
    /// nodes pinned and the excluded hosts quarantined out of the
    /// candidate set. Updates targets in place; committed nodes whose
    /// pin had to move are released and re-queued.
    #[allow(clippy::too_many_arguments)]
    fn deploy_fallback(
        &self,
        topology: &ApplicationTopology,
        state: &mut CapacityState,
        quarantined: &mut [bool],
        request: &PlacementRequest,
        policy: &DeployPolicy,
        excluded: &[HostId],
        target: &mut [HostId],
        committed: &mut [Option<HostId>],
        dropped: &mut [bool],
        report: &mut DeploymentReport,
    ) -> Result<(), PlacementError> {
        // The re-placement sees the world minus this deployment: release
        // our own partial commit from a scratch copy, then blank out the
        // excluded hosts so no candidate lands there.
        let mut scratch = state.clone();
        self.release_partial(topology, committed, &mut scratch)?;
        for &h in excluded {
            scratch.quarantine_host(h);
        }
        let prior: Vec<Option<HostId>> = committed.to_vec();
        let online =
            self.replace_online(topology, &scratch, request, &prior, policy.unpin_rounds)?;
        // Apply the new decision: move pins the re-placement broke.
        for nd in topology.nodes() {
            let i = nd.id().index();
            let new_host = online.outcome.placement.host_of(nd.id());
            if let Some(old) = committed[i] {
                if old != new_host {
                    // Take the node back off: the inverse of launching
                    // it next to the peers that still count as committed.
                    committed[i] = None;
                    let back = effects::inverted(&node_effects(topology, committed, nd.id(), old));
                    effects::apply(self.infrastructure(), state, quarantined, &back)?;
                    report.repositioned += 1;
                }
            }
            dropped[i] = false;
            target[i] = new_host;
        }
        Ok(())
    }

    /// Evacuates one tenant off a crashed host: releases the tenant's
    /// reservations (dead replicas included), re-freezes the host via
    /// [`CapacityState::quarantine_host`], and computes a pinned
    /// re-placement that keeps every surviving node where it runs when
    /// feasible (relaxing pins outward otherwise).
    ///
    /// On success the state holds **no** reservations for this tenant;
    /// commit the returned placement (e.g. with
    /// [`deploy`](Self::deploy)) to finish the recovery. On error the
    /// tenant is likewise fully released — the caller should count it
    /// abandoned.
    ///
    /// # Errors
    ///
    /// [`PlacementError::SizeMismatch`] if `assignment` does not cover
    /// the topology, a capacity error if it was never committed, or any
    /// [`PlacementError`] when even the fully unpinned re-placement is
    /// infeasible.
    pub fn evacuate(
        &self,
        topology: &ApplicationTopology,
        assignment: &[Option<HostId>],
        state: &mut CapacityState,
        request: &PlacementRequest,
        failed: HostId,
        max_rounds: u32,
    ) -> Result<EvacuationOutcome, PlacementError> {
        self.release_partial(topology, assignment, state)?;
        // The release restored the dead replicas' capacity on the
        // crashed host; freeze it again so nothing lands there.
        state.quarantine_host(failed);
        let dead: Vec<NodeId> = topology
            .nodes()
            .iter()
            .filter(|nd| assignment[nd.id().index()] == Some(failed))
            .map(|nd| nd.id())
            .collect();
        let prior: Vec<Option<HostId>> =
            assignment.iter().map(|h| h.filter(|&x| x != failed)).collect();
        let online = self.replace_online(topology, state, request, &prior, max_rounds)?;
        Ok(EvacuationOutcome { online, dead })
    }
}

/// First node that is neither committed nor dropped, in id order.
fn next_pending(committed: &[Option<HostId>], dropped: &[bool]) -> Option<usize> {
    committed.iter().zip(dropped).position(|(c, &d)| c.is_none() && !d)
}

/// What launching `node` on `host` reserves: the node, then its flows
/// toward the neighbors already committed.
fn node_effects(
    topology: &ApplicationTopology,
    committed: &[Option<HostId>],
    node: NodeId,
    host: HostId,
) -> Vec<Effect> {
    let mut effects =
        vec![Effect::ReserveNode { host, resources: topology.node(node).requirements() }];
    for &(peer, bandwidth) in topology.neighbors(node) {
        if let Some(peer_host) = committed[peer.index()] {
            effects.push(Effect::ReserveFlow { a: host, b: peer_host, mbps: bandwidth.as_mbps() });
        }
    }
    effects
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveWeights;
    use ostro_datacenter::{Infrastructure, InfrastructureBuilder};
    use ostro_model::{Bandwidth, Resources, TopologyBuilder};

    /// A probe driven by a closure, for scripting fault scenarios.
    struct Scripted<F: FnMut(NodeId, HostId, u32) -> LaunchVerdict>(F);

    impl<F: FnMut(NodeId, HostId, u32) -> LaunchVerdict> FaultProbe for Scripted<F> {
        fn launch(&mut self, node: NodeId, host: HostId, attempt: u32) -> LaunchVerdict {
            (self.0)(node, host, attempt)
        }
    }

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

    fn topology() -> ostro_model::ApplicationTopology {
        let mut b = TopologyBuilder::new("app");
        let web = b.vm("web", 2, 2_048).unwrap();
        let db = b.vm("db", 4, 8_192).unwrap();
        let vol = b.volume("vol", 100).unwrap();
        b.link(web, db, Bandwidth::from_mbps(100)).unwrap();
        b.link(db, vol, Bandwidth::from_mbps(200)).unwrap();
        b.build().unwrap()
    }

    fn request() -> PlacementRequest {
        PlacementRequest {
            weights: ObjectiveWeights::BANDWIDTH_DOMINANT,
            parallel: false,
            ..PlacementRequest::default()
        }
    }

    #[test]
    fn clean_deploy_equals_plain_commit() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let state0 = CapacityState::new(&inf);
        let decided = scheduler.place(&topo, &state0, &request()).unwrap();

        let mut via_commit = state0.clone();
        scheduler.commit(&topo, &decided.placement, &mut via_commit).unwrap();

        let mut via_deploy = state0.clone();
        let report = scheduler
            .deploy(
                &topo,
                &decided.placement,
                &mut via_deploy,
                &request(),
                &DeployPolicy::default(),
                &[],
                &mut NoFaults,
            )
            .unwrap();
        assert_eq!(via_deploy, via_commit);
        assert_eq!(report.placement().as_ref(), Some(&decided.placement));
        assert!(report.is_complete());
        assert_eq!(report.retries, 0);
        assert_eq!(report.ticks, 0);
        assert_eq!(report.fallbacks, 0);
        assert!(report.fates.iter().all(|f| matches!(f, NodeFate::Placed { attempts: 1, .. })));
    }

    #[test]
    fn transient_failures_retry_with_exponential_backoff() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let mut state = CapacityState::new(&inf);
        let decided = scheduler.place(&topo, &state, &request()).unwrap();
        let victim = NodeId::from_index(1);
        let policy = DeployPolicy { max_attempts: 4, ..DeployPolicy::default() };
        let mut probe = Scripted(|node, _host, attempt| {
            if node == victim && attempt < 2 {
                LaunchVerdict::TransientFailure
            } else {
                LaunchVerdict::Launched
            }
        });
        let report = scheduler
            .deploy(&topo, &decided.placement, &mut state, &request(), &policy, &[], &mut probe)
            .unwrap();
        assert_eq!(report.retries, 2);
        // Backoff doubles from the base: 1 tick, then 2.
        assert_eq!(report.ticks, 3);
        assert!(matches!(report.fates[victim.index()], NodeFate::Placed { attempts: 3, .. }));
    }

    #[test]
    fn backoff_schedule_doubles_to_the_cap() {
        let policy = DeployPolicy {
            backoff_base_ticks: 2,
            backoff_cap_ticks: 10,
            ..DeployPolicy::default()
        };
        assert_eq!(policy.backoff_ticks(1), 2);
        assert_eq!(policy.backoff_ticks(2), 4);
        assert_eq!(policy.backoff_ticks(3), 8);
        assert_eq!(policy.backoff_ticks(4), 10);
        assert_eq!(policy.backoff_ticks(60), 10);
    }

    #[test]
    fn unhealthy_host_triggers_fallback_redirect() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let state0 = CapacityState::new(&inf);
        let decided = scheduler.place(&topo, &state0, &request()).unwrap();
        let web = NodeId::from_index(0);
        let bad = decided.placement.host_of(web);
        // `bad` never launches anything: every node decided there must
        // be redirected through a fallback re-placement.
        let mut probe = Scripted(|_node, host, _attempt| {
            if host == bad {
                LaunchVerdict::TransientFailure
            } else {
                LaunchVerdict::Launched
            }
        });
        let mut state = state0.clone();
        let report = scheduler
            .deploy(
                &topo,
                &decided.placement,
                &mut state,
                &request(),
                &DeployPolicy::default(),
                &[],
                &mut probe,
            )
            .unwrap();
        assert!(report.is_complete());
        assert!(report.fallbacks >= 1);
        assert!(report.assignment.iter().all(|h| *h != Some(bad)));
        assert!(report
            .fates
            .iter()
            .any(|f| matches!(f, NodeFate::Redirected { decided: d, .. } if *d == bad)));
        // The live state holds exactly the deployed reservations.
        let mut check = state.clone();
        scheduler.release_partial(&topo, &report.assignment, &mut check).unwrap();
        assert_eq!(check, state0);
    }

    #[test]
    fn hopeless_deploy_fails_typed_and_rolls_back() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let state0 = CapacityState::new(&inf);
        let decided = scheduler.place(&topo, &state0, &request()).unwrap();
        let mut state = state0.clone();
        let mut probe = Scripted(|_, _, _| LaunchVerdict::TransientFailure);
        let err = scheduler
            .deploy(
                &topo,
                &decided.placement,
                &mut state,
                &request(),
                &DeployPolicy::default(),
                &[],
                &mut probe,
            )
            .unwrap_err();
        assert!(matches!(err, DeployError::NodeFailed { .. }));
        assert!(!err.to_string().is_empty());
        assert_eq!(state, state0, "failed deployment must roll back completely");
    }

    #[test]
    fn best_effort_nodes_drop_instead_of_failing_the_stack() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let state0 = CapacityState::new(&inf);
        let decided = scheduler.place(&topo, &state0, &request()).unwrap();
        let web = NodeId::from_index(0);
        // `web` can never launch anywhere; it is marked best-effort.
        let mut probe = Scripted(|node, _, _| {
            if node == web {
                LaunchVerdict::TransientFailure
            } else {
                LaunchVerdict::Launched
            }
        });
        let policy =
            DeployPolicy { degradation: Degradation::DropBestEffort, ..DeployPolicy::default() };
        let mut state = state0.clone();
        let report = scheduler
            .deploy(
                &topo,
                &decided.placement,
                &mut state,
                &request(),
                &policy,
                &[true, false, false],
                &mut probe,
            )
            .unwrap();
        assert_eq!(report.dropped, 1);
        assert_eq!(report.assignment[web.index()], None);
        assert!(matches!(report.fates[web.index()], NodeFate::Dropped { .. }));
        assert!(report.placement().is_none());
        // Releasing the partial tenant restores the fresh state.
        scheduler.release_partial(&topo, &report.assignment, &mut state).unwrap();
        assert_eq!(state, state0);
    }

    #[test]
    fn deploy_rejects_malformed_inputs() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let mut state = CapacityState::new(&inf);
        let short = Placement::new(vec![HostId::from_index(0)]);
        let err = scheduler
            .deploy(
                &topo,
                &short,
                &mut state,
                &request(),
                &DeployPolicy::default(),
                &[],
                &mut NoFaults,
            )
            .unwrap_err();
        assert_eq!(err, DeployError::SizeMismatch { expected: 3, actual: 1 });
        let decided = scheduler.place(&topo, &state, &request()).unwrap();
        let err = scheduler
            .deploy(
                &topo,
                &decided.placement,
                &mut state,
                &request(),
                &DeployPolicy::default(),
                &[true],
                &mut NoFaults,
            )
            .unwrap_err();
        assert_eq!(err, DeployError::SizeMismatch { expected: 3, actual: 1 });
    }

    #[test]
    fn evacuate_moves_tenant_off_crashed_host() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let fresh = CapacityState::new(&inf);
        let mut state = fresh.clone();
        let decided = scheduler.place(&topo, &state, &request()).unwrap();
        scheduler.commit(&topo, &decided.placement, &mut state).unwrap();

        let db = NodeId::from_index(1);
        let crashed = decided.placement.host_of(db);
        let assignment: Vec<Option<HostId>> =
            decided.placement.assignments().iter().copied().map(Some).collect();
        let evac =
            scheduler.evacuate(&topo, &assignment, &mut state, &request(), crashed, 4).unwrap();
        assert!(evac.dead.contains(&db));
        // Tenant fully released; the crashed host is frozen.
        assert_eq!(state.available(crashed), Resources::ZERO);
        assert_eq!(state.nic_available(crashed), Bandwidth::ZERO);
        // The recovery placement avoids the crashed host and commits.
        let new = &evac.online.outcome.placement;
        assert!(new.assignments().iter().all(|&h| h != crashed));
        scheduler.commit(&topo, new, &mut state).unwrap();
        // Survivors stayed put unless the solver had to move them.
        for nd in topo.nodes() {
            if assignment[nd.id().index()] != Some(crashed)
                && !evac.online.repositioned.contains(&nd.id())
            {
                assert_eq!(new.host_of(nd.id()), decided.placement.host_of(nd.id()));
            }
        }
    }

    #[test]
    fn release_partial_rejects_size_mismatch() {
        let inf = infra();
        let topo = topology();
        let scheduler = Scheduler::new(&inf);
        let mut state = CapacityState::new(&inf);
        let err = scheduler.release_partial(&topo, &[None], &mut state).unwrap_err();
        assert_eq!(err, PlacementError::SizeMismatch { expected: 3, actual: 1 });
    }
}
