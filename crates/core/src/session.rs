//! The long-lived placement session: a [`SchedulerSession`] owns one
//! evolving [`CapacityState`] plus every piece of cross-request state a
//! streaming scheduler can reuse — the per-host mirror of the books,
//! the pod digests folded from it, and the scoring worker pool — so a
//! request arriving after a thousand others starts warm instead of
//! rebuilding all of it from zero. (Heuristic bounds are *not* kept
//! across requests: a scoring round resolves them against its own
//! short-lived region list, see [`crate::heuristic`].)
//!
//! # One mirror, one epoch
//!
//! The books have exactly one derived per-host mirror: the base
//! columns of the session's [`CapacityTable`] (free resources, NIC
//! headroom, activity), with the
//! per-pod [`PodDigests`](crate::shard::PodDigests) folded from the
//! same values. Everything fixed by the infrastructure — rack/pod/site
//! coordinates, pod host ranges — sits in one shared
//! [`FleetLayout`](ostro_datacenter::FleetLayout), so a snapshot or
//! per-request clone copies only what a commit can change.
//!
//! Every mutation of the session's state (`commit`, `release`,
//! `release_partial`, `deploy`, `evacuate`, `migrate`,
//! `quarantine_host`, `reconcile`, raw node reservations) is one
//! [`Effect`] list through the session's single private `apply`: the
//! list is applied to the books all-or-nothing by the same function
//! WAL replay runs, the hosts it names are recorded in a *dirty-host
//! journal*, and the same vector is appended to the write-ahead
//! journal. The next placement drains the dirty-host journal through
//! `SessionShared::resync` — the only code that re-resolves a host
//! from the books: the host's table row is rewritten, its pod digest
//! retires the old row and admits the new one, and its *refresh epoch*
//! advances. Untouched hosts keep their rows byte-for-byte. A host has
//! changed since an observer last looked iff it
//! is still in the journal or its refresh epoch moved
//! (`SchedulerSession::changed_since`) — the one staleness test the
//! concurrent service needs.

use std::sync::{Arc, OnceLock};

use ostro_datacenter::{CapacityError, CapacityState, CapacityTable, HostId, Infrastructure};
use ostro_model::{ApplicationTopology, NodeId, Resources};

use crate::deploy::{DeployError, DeployPolicy, DeploymentReport, EvacuationOutcome, FaultProbe};
use crate::effects::{self, Effect};
use crate::error::PlacementError;
use crate::online::{replace_rounds, OnlineOutcome};
use crate::placement::{Placement, PlacementOutcome};
use crate::pool::ScoringPool;
use crate::reconcile::{Divergence, DivergenceKind, HostTruth, ReconcileReport, ReconcileTotals};
use crate::request::PlacementRequest;
use crate::scheduler::Scheduler;
use crate::wal::{Recovery, Wal, WalError, WalMark, WalOp};

/// The shared, read-mostly half of a session, handed to the search
/// context of every request the session serves.
#[derive(Debug)]
pub(crate) struct SessionShared {
    /// Per-host refresh epochs: how many times each host was
    /// re-resolved by [`resync`](Self::resync) — what the service's
    /// staleness test reads (see [`SchedulerSession::changed_since`]).
    pub(crate) epochs: Vec<u64>,
    /// The persistent scoring pool, created lazily on the first request
    /// large enough to engage it and reused (workers, scratch buffers
    /// and all) for the rest of the session's life.
    pub(crate) pool: OnceLock<ScoringPool>,
    /// The mirror of the books: a base-only capacity table (never
    /// overlay-synced itself). Each request clones its columns — a few
    /// contiguous memcpys — instead of recomputing them.
    pub(crate) table: CapacityTable,
    /// Per-pod aggregate digests for the sharded coarse stage, over the
    /// table's own [`FleetLayout`](ostro_datacenter::FleetLayout) and
    /// moved in lockstep with its rows — bit-exactly equal to a
    /// from-scratch rebuild.
    pub(crate) pods: crate::shard::PodDigests,
}

impl SessionShared {
    fn new(infra: &Infrastructure, state: &CapacityState) -> Self {
        let table = CapacityTable::new(infra, state);
        SessionShared {
            epochs: vec![0; infra.host_count()],
            pool: OnceLock::new(),
            pods: crate::shard::PodDigests::from_state(Arc::clone(table.layout()), state),
            table,
        }
    }

    /// Re-resolves `hosts` from `state`: each host's table row is
    /// rewritten, its pod digest swaps the old row for the new one, and
    /// its refresh epoch advances. The only loop that derives per-host
    /// mirror data from the books after construction — the session's
    /// dirty-journal drain and the service's speculative batch books
    /// both go through it.
    pub(crate) fn resync(
        &mut self,
        state: &CapacityState,
        hosts: impl IntoIterator<Item = HostId>,
    ) {
        for host in hosts {
            let old = self.row(host);
            self.table.refresh_base_host(state, host);
            self.pods.update(host, old, self.row(host));
            self.epochs[host.index()] += 1;
        }
    }

    /// `host`'s mirrored `(free, nic_mbps)`.
    fn row(&self, host: HostId) -> (Resources, u64) {
        (self.table.available(host), self.table.nic_mbps()[host.index()])
    }

    /// A frozen copy for an epoch snapshot: epochs, table columns and
    /// pod digests are cloned (they describe one specific state; the
    /// construction-time layout behind them is shared, not copied) and
    /// the scoring pool starts empty — each concurrent planner must
    /// bring its own workers, a pool serves one search at a time.
    pub(crate) fn clone_for_snapshot(&self) -> SessionShared {
        SessionShared {
            epochs: self.epochs.clone(),
            pool: OnceLock::new(),
            table: self.table.clone(),
            pods: self.pods.clone(),
        }
    }
}

#[cfg(test)]
impl SessionShared {
    /// Test oracle for the one-mirror invariant: every derived column
    /// and every pod digest equals a mirror built from scratch over
    /// `state`.
    pub(crate) fn assert_mirrors(&self, infra: &Infrastructure, state: &CapacityState, what: &str) {
        let fresh = SessionShared::new(infra, state);
        let (table, scratch) = (&self.table, &fresh.table);
        assert_eq!(table.vcpus(), scratch.vcpus(), "{what}: vcpus column");
        assert_eq!(table.memory_mb(), scratch.memory_mb(), "{what}: memory column");
        assert_eq!(table.disk_gb(), scratch.disk_gb(), "{what}: disk column");
        assert_eq!(table.nic_mbps(), scratch.nic_mbps(), "{what}: nic column");
        assert_eq!(table.active(), scratch.active(), "{what}: active column");
        assert_eq!(self.pods, fresh.pods, "{what}: pod digests");
    }
}

/// A long-lived scheduling session: one [`Scheduler`] bound to one
/// owned, evolving [`CapacityState`], carrying the warm mirror of the
/// books, its pod digests and the scoring pool between placements.
///
/// All mutations of the capacity state must go through the session
/// (which is why it owns the state outright): each one journals the
/// hosts it touched, and the next placement re-resolves exactly those
/// — nothing else — before solving warm.
///
/// Placements are **bit-identical** to a cold per-request
/// [`Scheduler::place`] against an equal state: the mirror holds
/// exactly what a cold request would derive from the books, so reuse
/// changes the work done, never the answer.
///
/// ```
/// use ostro_core::{PlacementRequest, SchedulerSession};
/// use ostro_datacenter::InfrastructureBuilder;
/// use ostro_model::{Bandwidth, Resources, TopologyBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let infra = InfrastructureBuilder::flat(
///     "dc", 2, 4,
///     Resources::new(16, 32_768, 1_000),
///     Bandwidth::from_gbps(10),
///     Bandwidth::from_gbps(100),
/// ).build()?;
/// let mut b = TopologyBuilder::new("app");
/// let web = b.vm("web", 2, 2_048)?;
/// let db = b.vm("db", 4, 8_192)?;
/// b.link(web, db, Bandwidth::from_mbps(100))?;
/// let topology = b.build()?;
///
/// let mut session = SchedulerSession::new(&infra);
/// let outcome = session.place(&topology, &PlacementRequest::default())?;
/// session.commit(&topology, &outcome.placement)?;
/// assert_eq!(session.state().active_host_count(), outcome.hosts_used);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SchedulerSession<'a> {
    scheduler: Scheduler<'a>,
    state: CapacityState,
    shared: SessionShared,
    /// Hosts touched since the last refresh, each listed once.
    dirty: Vec<HostId>,
    dirty_flags: Vec<bool>,
    /// Hosts frozen out by [`quarantine_host`](Self::quarantine_host),
    /// tracked so snapshots and reconciliation sweeps know which books
    /// are deliberately zeroed rather than divergent.
    quarantined: Vec<bool>,
    /// The write-ahead journal, when durability is on. `apply` appends
    /// an effect list *after* the in-memory state took it (the state
    /// is authoritative; the journal trails it by at most the current
    /// record).
    wal: Option<Wal>,
    /// The first journaling failure, if any. Journaling is fail-stop:
    /// after an error the session keeps serving placements but stops
    /// appending, and the error is surfaced via
    /// [`wal_error`](Self::wal_error).
    wal_error: Option<WalError>,
    /// Cumulative anti-entropy tallies, copied into every outcome's
    /// [`SearchStats`](crate::SearchStats).
    recon: ReconcileTotals,
    /// Cumulative maintenance-plane tallies (atomic tenant migrations
    /// applied through [`migrate`](Self::migrate)), copied into every
    /// outcome's [`SearchStats`](crate::SearchStats) like the
    /// reconcile totals above.
    maintenance_migrations: u64,
}

impl<'a> SchedulerSession<'a> {
    /// A session over a fully idle data center.
    #[must_use]
    pub fn new(infra: &'a Infrastructure) -> Self {
        Self::with_state(infra, CapacityState::new(infra))
    }

    /// A session resuming from an existing capacity state (e.g. a
    /// restarted service reloading its checkpoint).
    #[must_use]
    pub fn with_state(infra: &'a Infrastructure, state: CapacityState) -> Self {
        let shared = SessionShared::new(infra, &state);
        SchedulerSession {
            scheduler: Scheduler::new(infra),
            dirty: Vec::new(),
            dirty_flags: vec![false; infra.host_count()],
            quarantined: vec![false; infra.host_count()],
            wal: None,
            wal_error: None,
            recon: ReconcileTotals::default(),
            maintenance_migrations: 0,
            state,
            shared,
        }
    }

    /// A session resuming from a [`Recovery`] — the books *and* the
    /// quarantine set a crashed session had made durable. Attach the
    /// recovered journal with [`attach_wal`](Self::attach_wal) to keep
    /// the resumed session durable too.
    #[must_use]
    pub fn with_recovery(infra: &'a Infrastructure, recovery: &Recovery) -> Self {
        let mut session = Self::with_state(infra, recovery.state.clone());
        for &host in &recovery.quarantined {
            session.quarantined[host.index()] = true;
        }
        session
    }

    /// Makes every subsequent mutation durable through `wal`.
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Detaches and returns the journal, if one was attached.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        self.wal.take()
    }

    /// The first journaling failure, if any. Journaling is fail-stop:
    /// the session keeps scheduling after a disk error but appends
    /// nothing further, and callers that need durability guarantees
    /// should check this (the CLI and simulator do).
    #[must_use]
    pub fn wal_error(&self) -> Option<&WalError> {
        self.wal_error.as_ref()
    }

    /// Takes ownership of the first journaling failure, if any, so the
    /// caller can surface it as a typed error.
    pub fn take_wal_error(&mut self) -> Option<WalError> {
        self.wal_error.take()
    }

    /// Forces a snapshot + journal compaction now, regardless of the
    /// automatic cadence. A no-op without an attached journal.
    ///
    /// # Errors
    ///
    /// [`WalError`] if the snapshot could not be made durable.
    pub fn checkpoint(&mut self) -> Result<(), WalError> {
        let quarantined = self.quarantined_hosts();
        match self.wal.as_mut() {
            Some(w) => w.snapshot(&self.state, &quarantined),
            None => Ok(()),
        }
    }

    /// Hosts currently quarantined, ascending.
    #[must_use]
    pub fn quarantined_hosts(&self) -> Vec<HostId> {
        effects::quarantined_hosts(&self.quarantined)
    }

    /// Whether `host` has been quarantined in this session.
    #[must_use]
    pub fn is_quarantined(&self, host: HostId) -> bool {
        self.quarantined[host.index()]
    }

    /// The one write path: applies `effects` to the books
    /// all-or-nothing, marks the hosts they name dirty, and journals the
    /// same list as one `op` record — so what replay applies is what
    /// the live books took, by construction.
    fn apply(&mut self, op: WalOp, effects: &[Effect]) -> Result<(), CapacityError> {
        let infra = self.scheduler.infrastructure();
        effects::apply(infra, &mut self.state, &mut self.quarantined, effects)?;
        self.record(op, effects);
        Ok(())
    }

    /// The bookkeeping half of [`apply`](Self::apply), for effects the
    /// books already hold: dirty marks, then one journal record
    /// (snapshotting afterwards if the cadence is due). Journaling is
    /// fail-stop on error (see [`wal_error`](Self::wal_error)).
    fn record(&mut self, op: WalOp, effects: &[Effect]) {
        self.touch_named(effects);
        if self.wal_error.is_some() {
            return;
        }
        let Some(w) = self.wal.as_mut() else { return };
        let mut result = w.append(op, effects).map(|_| ());
        if result.is_ok() && w.should_snapshot() {
            result = w.snapshot(&self.state, &effects::quarantined_hosts(&self.quarantined));
        }
        if let Err(e) = result {
            self.wal_error = Some(e);
        }
    }

    /// The underlying stateless scheduler.
    #[must_use]
    pub fn scheduler(&self) -> Scheduler<'a> {
        self.scheduler
    }

    /// The shared half of the session (mirror, epochs, pod digests) —
    /// what an epoch snapshot clones.
    pub(crate) fn shared(&self) -> &SessionShared {
        &self.shared
    }

    /// Fsyncs the journal now (the service's group-commit point: one
    /// sync covers every record appended since the last). Fail-stop
    /// like [`record`](Self::record): a sync error is recorded in
    /// [`wal_error`](Self::wal_error) and journaling stops.
    pub(crate) fn sync_wal(&mut self) {
        if self.wal_error.is_some() {
            return;
        }
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.sync() {
            self.wal_error = Some(e);
        }
    }

    /// Installs (or clears) a fault-injection hook on the attached
    /// journal, if any — the chaos harness's WAL fault entry point.
    pub fn set_wal_fault_hook(&mut self, hook: Option<crate::wal::WalFaultHook>) {
        if let Some(w) = self.wal.as_mut() {
            w.set_fault_hook(hook);
        }
    }

    /// Captures the journal position a write transaction starts from,
    /// so a group commit that cannot be made durable can be taken back
    /// with [`rollback`](Self::rollback). `None` without an attached
    /// journal.
    pub(crate) fn wal_mark(&self) -> Option<WalMark> {
        self.wal.as_ref().map(Wal::mark)
    }

    /// Takes a write transaction back: undoes `applied` — the effect
    /// lists it applied, in order — off the books, last list first,
    /// then rewinds the journal to `mark` and clears the fail-stop
    /// latch, so journal and books agree again and journaling resumes.
    /// Returns `false`, with nothing touched, when the journal cannot
    /// be rewound (none attached, or a snapshot compaction ran since
    /// the mark, so part of the transaction is already durable). A
    /// failing rewind keeps (or sets) the latch so it still surfaces.
    pub(crate) fn rollback(&mut self, mark: &WalMark, applied: &[Vec<Effect>]) -> bool {
        if !self.wal.as_ref().is_some_and(|w| w.can_rewind(mark)) {
            return false;
        }
        let infra = self.scheduler.infrastructure();
        for effects in applied.iter().rev() {
            effects::undo(infra, &mut self.state, &mut self.quarantined, effects);
            self.touch_named(effects);
        }
        match self.wal.as_mut().map(|w| w.rewind(mark)) {
            Some(Err(e)) => self.wal_error = self.wal_error.take().or(Some(e)),
            _ => self.wal_error = None,
        }
        true
    }

    /// Retries the group-commit fsync after a failure: clears the
    /// fail-stop latch and syncs again. Returns whether the sync
    /// succeeded; on failure the latch is re-armed with the new error.
    pub(crate) fn retry_sync(&mut self) -> bool {
        let Some(w) = self.wal.as_mut() else { return false };
        match w.sync() {
            Ok(()) => {
                self.wal_error = None;
                true
            }
            Err(e) => {
                self.wal_error = Some(e);
                false
            }
        }
    }

    /// The infrastructure this session schedules onto.
    #[must_use]
    pub fn infrastructure(&self) -> &'a Infrastructure {
        self.scheduler.infrastructure()
    }

    /// Read access to the live capacity state. All mutation goes
    /// through the session so the dirty-host journal stays complete.
    #[must_use]
    pub fn state(&self) -> &CapacityState {
        &self.state
    }

    /// Consumes the session, returning the final capacity state.
    #[must_use]
    pub fn into_state(self) -> CapacityState {
        self.state
    }

    /// How many times `host` was re-resolved from the dirty journal —
    /// its refresh epoch. Untouched hosts stay at 0.
    #[must_use]
    pub fn host_epoch(&self, host: HostId) -> u64 {
        self.shared.epochs[host.index()]
    }

    /// Whether `host`'s books may differ from what an observer holding
    /// refresh epoch `epoch` for it saw: the host is still in the dirty
    /// journal (touched, not yet re-resolved), or it was re-resolved
    /// since.
    pub(crate) fn changed_since(&self, host: HostId, epoch: u64) -> bool {
        self.dirty_flags[host.index()] || self.shared.epochs[host.index()] != epoch
    }

    /// Hosts currently journaled dirty (touched since the last
    /// placement), each exactly once, in touch order.
    #[must_use]
    pub fn pending_dirty_hosts(&self) -> &[HostId] {
        &self.dirty
    }

    fn touch(&mut self, host: HostId) {
        if !self.dirty_flags[host.index()] {
            self.dirty_flags[host.index()] = true;
            self.dirty.push(host);
        }
    }

    /// Marks every host `effects` name dirty.
    fn touch_named(&mut self, effects: &[Effect]) {
        for host in effects.iter().flat_map(Effect::hosts) {
            self.touch(host);
        }
    }

    /// Drains the dirty-host journal into the shared mirror: exactly
    /// the journaled hosts are re-resolved from the live state;
    /// everything else keeps its row untouched.
    pub(crate) fn refresh(&mut self) -> u64 {
        let drained = self.dirty.len() as u64;
        for &host in &self.dirty {
            self.dirty_flags[host.index()] = false;
        }
        self.shared.resync(&self.state, self.dirty.drain(..));
        drained
    }

    /// Computes a placement against the session's live state, warm.
    ///
    /// The state is *not* modified — call [`commit`](Self::commit) to
    /// apply the decision (which is what keeps the journal truthful).
    ///
    /// # Errors
    ///
    /// As [`Scheduler::place`].
    pub fn place(
        &mut self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
    ) -> Result<PlacementOutcome, PlacementError> {
        self.place_pinned(topology, request, &vec![None; topology.node_count()])
    }

    /// Like [`place`](Self::place) with some nodes pinned (the online
    /// re-placement path).
    ///
    /// # Errors
    ///
    /// As [`Scheduler::place_pinned`].
    pub fn place_pinned(
        &mut self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
        pinned: &[Option<HostId>],
    ) -> Result<PlacementOutcome, PlacementError> {
        let dirty = self.refresh();
        let mut outcome = self.scheduler.place_pinned_with(
            topology,
            &self.state,
            request,
            pinned,
            Some(&self.shared),
        )?;
        outcome.stats.session_dirty_hosts = dirty;
        outcome.stats.reconcile_orphaned = self.recon.orphaned;
        outcome.stats.reconcile_leaked = self.recon.leaked;
        outcome.stats.reconcile_ghosts = self.recon.ghosts;
        outcome.stats.maintenance_migrations = self.maintenance_migrations;
        Ok(outcome)
    }

    /// Online re-placement with warm rounds: the same pin-relaxation
    /// loop as [`Scheduler::replace_online`], with every round's solve
    /// served from the session's mirror.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::replace_online`].
    pub fn replace_online(
        &mut self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
        prior: &[Option<HostId>],
        max_rounds: u32,
    ) -> Result<OnlineOutcome, PlacementError> {
        replace_rounds(topology, prior, max_rounds, |pins| {
            self.place_pinned(topology, request, pins)
        })
    }

    /// Applies a placement decision to the session state, journaling
    /// its hosts dirty.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::commit`]; on error nothing is journaled (the
    /// state is untouched).
    pub fn commit(
        &mut self,
        topology: &ApplicationTopology,
        placement: &Placement,
    ) -> Result<(), PlacementError> {
        effects::covers(topology, placement.assignments().len())?;
        Ok(self.apply(WalOp::Commit, &effects::commit_effects(topology, placement))?)
    }

    /// Releases a committed placement, journaling its hosts dirty.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::release`]; on error nothing is journaled.
    pub fn release(
        &mut self,
        topology: &ApplicationTopology,
        placement: &Placement,
    ) -> Result<(), PlacementError> {
        effects::covers(topology, placement.assignments().len())?;
        Ok(self.apply(WalOp::Release, &effects::release_effects(topology, placement))?)
    }

    /// Releases the committed subset of a partial assignment,
    /// journaling its hosts dirty.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::release_partial`]; on error nothing is
    /// journaled.
    pub fn release_partial(
        &mut self,
        topology: &ApplicationTopology,
        assignment: &[Option<HostId>],
    ) -> Result<(), PlacementError> {
        effects::covers(topology, assignment.len())?;
        let effects = effects::release_partial_effects(topology, assignment);
        Ok(self.apply(WalOp::ReleasePartial, &effects)?)
    }

    /// Deploys a decision through the fault-aware pipeline against the
    /// session state (see [`Scheduler::deploy`]).
    ///
    /// The decided hosts and every host the report actually committed
    /// are journaled. The pipeline's internal fallback re-plans run
    /// against a *scratch* state whose availability the session
    /// mirror does not describe, so they deliberately solve cold —
    /// only the session's own requests are served warm.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::deploy`] (on error the state was rolled back;
    /// the conservative journaling of the decided hosts is harmless —
    /// their rows re-resolve to unchanged values).
    #[allow(clippy::too_many_arguments)]
    pub fn deploy(
        &mut self,
        topology: &ApplicationTopology,
        decided: &Placement,
        request: &PlacementRequest,
        policy: &DeployPolicy,
        best_effort: &[bool],
        probe: &mut dyn FaultProbe,
    ) -> Result<DeploymentReport, DeployError> {
        let result = self.scheduler.deploy_on(
            topology,
            decided,
            &mut self.state,
            &mut self.quarantined,
            request,
            policy,
            best_effort,
            probe,
        );
        for i in 0..decided.assignments().len() {
            self.touch(decided.assignments()[i]);
        }
        if let Ok(report) = &result {
            // The pipeline rolled every failed path back, so the
            // report's final assignment *is* the net reservation.
            self.record(WalOp::Deploy, &effects::deploy_effects(topology, &report.assignment));
        }
        result
    }

    /// Evacuates one tenant off a crashed host, with the recovery
    /// re-placement solved **warm**: the same release → re-quarantine →
    /// pinned re-place sequence as [`Scheduler::evacuate`], expressed
    /// through the session's journaled operations.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::evacuate`].
    pub fn evacuate(
        &mut self,
        topology: &ApplicationTopology,
        assignment: &[Option<HostId>],
        request: &PlacementRequest,
        failed: HostId,
        max_rounds: u32,
    ) -> Result<EvacuationOutcome, PlacementError> {
        // Fast path: the tenant has no replica on the failed host, so
        // there is nothing to release and nothing to re-place —
        // freezing the host is the only book change. The tenant's own
        // hosts are not journaled dirty, so their refresh epochs (and
        // mirror rows) survive.
        if assignment.iter().all(Option::is_some) && !assignment.contains(&Some(failed)) {
            self.quarantine_host(failed);
            let placement = Placement::new(assignment.iter().copied().flatten().collect());
            let outcome = self.kept_outcome(topology, request, placement);
            return Ok(EvacuationOutcome {
                online: OnlineOutcome { outcome, repositioned: Vec::new(), rounds: 0 },
                dead: Vec::new(),
            });
        }
        self.release_partial(topology, assignment)?;
        // The release restored the dead replicas' capacity on the
        // crashed host; freeze it again so nothing lands there.
        self.quarantine_host(failed);
        let dead: Vec<NodeId> = topology
            .nodes()
            .iter()
            .filter(|nd| assignment[nd.id().index()] == Some(failed))
            .map(|nd| nd.id())
            .collect();
        let prior: Vec<Option<HostId>> =
            assignment.iter().map(|h| h.filter(|&x| x != failed)).collect();
        let online = self.replace_online(topology, request, &prior, max_rounds)?;
        Ok(EvacuationOutcome { online, dead })
    }

    /// Describes keeping `placement` exactly where it is, without
    /// running a search: the objective, bandwidth, and host tallies a
    /// fully pinned re-place would report, computed directly from the
    /// books. Used by [`evacuate`](Self::evacuate)'s untouched-tenant
    /// fast path.
    fn kept_outcome(
        &self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
        placement: Placement,
    ) -> PlacementOutcome {
        let infra = self.scheduler.infrastructure();
        let reserved = crate::validate::reserved_bandwidth(topology, infra, &placement);
        let norms = crate::objective::Normalizers::compute(topology, infra, &self.state);
        // The tenant is already committed, so keeping it activates no
        // new host by definition.
        let objective = norms.objective(request.weights, reserved.as_mbps(), 0);
        let stats = crate::placement::SearchStats {
            reconcile_orphaned: self.recon.orphaned,
            reconcile_leaked: self.recon.leaked,
            reconcile_ghosts: self.recon.ghosts,
            maintenance_migrations: self.maintenance_migrations,
            ..Default::default()
        };
        PlacementOutcome {
            hosts_used: placement.distinct_hosts(),
            placement,
            objective,
            reserved_bandwidth: reserved,
            new_active_hosts: 0,
            elapsed: std::time::Duration::ZERO,
            stats,
        }
    }

    /// Moves one committed tenant from placement `from` to placement
    /// `to` **atomically**: the release of the old reservation followed
    /// by the commit of the new one is a single effect list, applied
    /// all-or-nothing and journaled as a single [`WalOp::Migrate`]
    /// record — so neither a failure nor a crash can surface a
    /// half-moved tenant. This is the maintenance plane's only write
    /// primitive (see [`MaintenancePlane`](crate::MaintenancePlane)).
    ///
    /// # Errors
    ///
    /// As [`Scheduler::release`] / [`Scheduler::commit`] — including
    /// [`CapacityError::HostQuarantined`] when `to` names a quarantined
    /// host, even one `from` occupies; on any failure the books are
    /// bit-equal to what they were and nothing is journaled.
    pub fn migrate(
        &mut self,
        topology: &ApplicationTopology,
        from: &Placement,
        to: &Placement,
    ) -> Result<(), PlacementError> {
        effects::covers(topology, from.assignments().len())?;
        effects::covers(topology, to.assignments().len())?;
        let mut effects = effects::release_effects(topology, from);
        effects.extend(effects::commit_effects(topology, to));
        self.apply(WalOp::Migrate, &effects)?;
        self.maintenance_migrations += 1;
        Ok(())
    }

    /// Freezes a host out of all future placements (crash handling),
    /// journaling it dirty. Idempotent: re-quarantining an already
    /// frozen host neither dirties the journal nor appends a record,
    /// so repeated evacuations off one crashed host stay cheap.
    pub fn quarantine_host(&mut self, host: HostId) {
        let freeze = [Effect::Quarantine { host }];
        if !self.quarantined[host.index()] && self.apply(WalOp::Quarantine, &freeze).is_err() {
            unreachable!("a quarantine cannot fail");
        }
    }

    /// Raw node reservation against the session state (stale-capacity
    /// race injection and other out-of-band grabs), journaled.
    ///
    /// # Errors
    ///
    /// As [`CapacityState::reserve_node`]; nothing is journaled on
    /// error.
    pub fn reserve_node(&mut self, host: HostId, req: Resources) -> Result<(), CapacityError> {
        self.apply(WalOp::ReserveNode, &[Effect::ReserveNode { host, resources: req }])
    }

    /// Raw node release against the session state, journaled.
    ///
    /// # Errors
    ///
    /// As [`CapacityState::release_node`]; nothing is journaled on
    /// error.
    pub fn release_node(&mut self, host: HostId, req: Resources) -> Result<(), CapacityError> {
        self.apply(WalOp::ReleaseNode, &[Effect::ReleaseNode { host, resources: req }])
    }

    /// Anti-entropy sweep: compares the session's per-host books
    /// against the cloud layer's ground `truth`, classifies every
    /// divergence (see [`DivergenceKind`]), repairs it by forcing the
    /// books to the truth, journals the corrections, and returns the
    /// report. Quarantined hosts are skipped — their books are
    /// deliberately frozen.
    ///
    /// Repaired hosts are journaled dirty, so the next placement
    /// re-resolves exactly the corrected rows.
    ///
    /// # Errors
    ///
    /// A wrapped [`CapacityError`] if a truth entry claims more usage
    /// than the host's total capacity; prior repairs in the same sweep
    /// are kept *and already journaled* — each host's repair is
    /// applied and journaled as a unit before the sweep moves on, so
    /// an error partway never leaves the books ahead of the journal.
    pub fn reconcile(&mut self, truth: &[HostTruth]) -> Result<ReconcileReport, PlacementError> {
        let infra = self.scheduler.infrastructure();
        let mut report = ReconcileReport::default();
        for t in truth {
            report.scanned += 1;
            if self.quarantined[t.host.index()] {
                report.skipped_quarantined += 1;
                continue;
            }
            let capacity = infra.host(t.host).capacity();
            let session_used = capacity.saturating_sub(self.state.available(t.host));
            let session_count = self.state.node_count(t.host);
            if session_used == t.used && session_count == t.instances {
                continue;
            }
            let kind = if session_count > t.instances {
                DivergenceKind::OrphanedReservation
            } else if session_count < t.instances {
                DivergenceKind::LeakedRelease
            } else {
                DivergenceKind::StaleRaceGhost
            };
            self.apply(
                WalOp::Reconcile,
                &[Effect::Resync { host: t.host, used: t.used, instances: t.instances }],
            )?;
            match kind {
                DivergenceKind::OrphanedReservation => self.recon.orphaned += 1,
                DivergenceKind::LeakedRelease => self.recon.leaked += 1,
                DivergenceKind::StaleRaceGhost => self.recon.ghosts += 1,
            }
            report.divergences.push(Divergence {
                host: t.host,
                kind,
                session_used,
                truth_used: t.used,
                session_count,
                truth_count: t.instances,
            });
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::time::Duration;

    use super::*;
    use crate::request::Algorithm;
    use ostro_datacenter::InfrastructureBuilder;
    use ostro_model::{Bandwidth, DiversityLevel, TopologyBuilder};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    fn hub_app(name: &str) -> ApplicationTopology {
        let mut b = TopologyBuilder::new(name);
        let hub = b.vm("hub", 4, 8_192).unwrap();
        let mut workers = Vec::new();
        for i in 0..3 {
            let w = b.vm(format!("w{i}"), 2, 2_048).unwrap();
            b.link(hub, w, Bandwidth::from_mbps(100 + 50 * i as u64)).unwrap();
            workers.push(w);
        }
        let vol = b.volume("vol", 200).unwrap();
        b.link(hub, vol, Bandwidth::from_mbps(150)).unwrap();
        b.diversity_zone("z", DiversityLevel::Host, &workers).unwrap();
        b.build().unwrap()
    }

    fn chain_app(name: &str) -> ApplicationTopology {
        let mut b = TopologyBuilder::new(name);
        let ids: Vec<_> = (0..4).map(|i| b.vm(format!("c{i}"), 2, 4_096).unwrap()).collect();
        for w in ids.windows(2) {
            b.link(w[0], w[1], Bandwidth::from_mbps(120)).unwrap();
        }
        b.build().unwrap()
    }

    fn assert_outcomes_identical(warm: &PlacementOutcome, cold: &PlacementOutcome, what: &str) {
        assert_eq!(warm.placement, cold.placement, "{what}: placement");
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits(), "{what}: objective bits");
        assert_eq!(warm.reserved_bandwidth, cold.reserved_bandwidth, "{what}: bandwidth");
        assert_eq!(warm.new_active_hosts, cold.new_active_hosts, "{what}: new hosts");
        assert_eq!(warm.hosts_used, cold.hosts_used, "{what}: hosts used");
        assert_eq!(warm.stats.expanded, cold.stats.expanded, "{what}: expanded");
        assert_eq!(
            warm.stats.heuristic_evals, cold.stats.heuristic_evals,
            "{what}: heuristic evals"
        );
    }

    /// The tentpole bit-identity contract: a warm session serving an
    /// arrive / depart / re-place / evacuate stream produces byte-
    /// identical results to a cold per-request scheduler driven over an
    /// identically evolving state — across EG, BA*, and DBA*.
    #[test]
    fn warm_session_stream_is_bit_identical_to_cold_scheduler() {
        let infra = infra_flat(4, 8);
        let algorithms = [
            Algorithm::Greedy,
            Algorithm::BoundedAStar,
            Algorithm::DeadlineBoundedAStar { deadline: Duration::from_secs(5) },
        ];
        for algorithm in algorithms {
            let request = PlacementRequest {
                algorithm,
                max_expansions: 2_000,
                ..PlacementRequest::default()
            };
            let tag = request.algorithm.abbreviation();
            let scheduler = Scheduler::new(&infra);
            let mut session = SchedulerSession::new(&infra);
            let mut cold = CapacityState::new(&infra);

            let app_a = hub_app("a");
            let app_b = chain_app("b");
            let app_c = hub_app("c"); // same shape as `a`, different name

            // Arrive A.
            let warm_a = session.place(&app_a, &request).unwrap();
            let cold_a = scheduler.place(&app_a, &cold, &request).unwrap();
            assert_outcomes_identical(&warm_a, &cold_a, &format!("{tag} place a"));
            session.commit(&app_a, &warm_a.placement).unwrap();
            scheduler.commit(&app_a, &cold_a.placement, &mut cold).unwrap();
            assert_eq!(session.state(), &cold, "{tag}: state after a");

            // Arrive B.
            let warm_b = session.place(&app_b, &request).unwrap();
            let cold_b = scheduler.place(&app_b, &cold, &request).unwrap();
            assert_outcomes_identical(&warm_b, &cold_b, &format!("{tag} place b"));
            session.commit(&app_b, &warm_b.placement).unwrap();
            scheduler.commit(&app_b, &cold_b.placement, &mut cold).unwrap();

            // Arrive C — structurally identical to A, differently named.
            let warm_c = session.place(&app_c, &request).unwrap();
            let cold_c = scheduler.place(&app_c, &cold, &request).unwrap();
            assert_outcomes_identical(&warm_c, &cold_c, &format!("{tag} place c"));
            session.commit(&app_c, &warm_c.placement).unwrap();
            scheduler.commit(&app_c, &cold_c.placement, &mut cold).unwrap();

            // Depart A.
            session.release(&app_a, &warm_a.placement).unwrap();
            scheduler.release(&app_a, &cold_a.placement, &mut cold).unwrap();
            assert_eq!(session.state(), &cold, "{tag}: state after releasing a");

            // Re-place B online (depart + pinned re-place).
            session.release(&app_b, &warm_b.placement).unwrap();
            scheduler.release(&app_b, &cold_b.placement, &mut cold).unwrap();
            let prior: Vec<Option<HostId>> =
                warm_b.placement.assignments().iter().copied().map(Some).collect();
            let warm_rb = session.replace_online(&app_b, &request, &prior, 4).unwrap();
            let cold_rb = scheduler.replace_online(&app_b, &cold, &request, &prior, 4).unwrap();
            assert_outcomes_identical(
                &warm_rb.outcome,
                &cold_rb.outcome,
                &format!("{tag} replace b"),
            );
            assert_eq!(warm_rb.rounds, cold_rb.rounds, "{tag}: rounds");
            assert_eq!(warm_rb.repositioned, cold_rb.repositioned, "{tag}: repositioned");
            session.commit(&app_b, &warm_rb.outcome.placement).unwrap();
            scheduler.commit(&app_b, &cold_rb.outcome.placement, &mut cold).unwrap();

            // Evacuate C off its first host.
            let assignment: Vec<Option<HostId>> =
                warm_c.placement.assignments().iter().copied().map(Some).collect();
            let failed = warm_c.placement.assignments()[0];
            let warm_ev = session.evacuate(&app_c, &assignment, &request, failed, 4).unwrap();
            let cold_ev =
                scheduler.evacuate(&app_c, &assignment, &mut cold, &request, failed, 4).unwrap();
            assert_outcomes_identical(
                &warm_ev.online.outcome,
                &cold_ev.online.outcome,
                &format!("{tag} evacuate c"),
            );
            assert_eq!(warm_ev.dead, cold_ev.dead, "{tag}: dead nodes");
            session.commit(&app_c, &warm_ev.online.outcome.placement).unwrap();
            scheduler.commit(&app_c, &cold_ev.online.outcome.placement, &mut cold).unwrap();
            assert_eq!(session.state(), &cold, "{tag}: final state");
        }
    }

    /// A snapshot copies only what a commit can change: the
    /// construction-time fleet layout behind the table and the pod
    /// digests is the session's own allocation, shared.
    #[test]
    fn snapshot_shares_the_fleet_layout_instead_of_copying_it() {
        let infra = infra_flat(2, 4);
        let session = SchedulerSession::new(&infra);
        let layout = session.shared.table.layout();
        assert!(Arc::ptr_eq(layout, session.shared.pods.layout()), "table and digests share one");
        let snapshot = session.shared.clone_for_snapshot();
        assert!(Arc::ptr_eq(layout, snapshot.table.layout()));
        assert!(Arc::ptr_eq(layout, snapshot.pods.layout()));
    }

    /// A mis-sized pin slice is a typed error, not a panic.
    #[test]
    fn place_pinned_rejects_mis_sized_pins() {
        let infra = infra_flat(2, 4);
        let app = chain_app("c");
        let mut session = SchedulerSession::new(&infra);
        let err = session.place_pinned(&app, &PlacementRequest::default(), &[None]).unwrap_err();
        assert_eq!(err, PlacementError::PriorLengthMismatch { expected: 4, actual: 1 });
    }

    /// The satellite property test: a random commit/release/evacuate/
    /// reserve stream must (1) journal exactly the touched hosts,
    /// (2) bump epochs exactly once per refresh of a touched host,
    /// (3) keep every non-journaled mirror row byte-identical to a full
    /// rescan, and (4) stay bit-identical to a cold shadow scheduler —
    /// the stale-row detector: any under-invalidation shows up as a
    /// diverging placement or a stale row.
    #[test]
    fn journal_invalidates_exactly_the_touched_hosts() {
        let mut rng = SmallRng::seed_from_u64(0x5E55_104B);
        let infra = InfrastructureBuilder::flat(
            "dc",
            4,
            4,
            Resources::new(8, 16_384, 500),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap();
        let scheduler = Scheduler::new(&infra);
        let request = PlacementRequest::default();

        for trial in 0u64..5 {
            let mut session = SchedulerSession::new(&infra);
            let mut shadow = CapacityState::new(&infra);
            let mut live: Vec<(ApplicationTopology, Placement)> = Vec::new();
            // Mirror bookkeeping: hosts journaled but not yet refreshed,
            // and the refresh count we expect per host.
            let mut pending: HashSet<usize> = HashSet::new();
            let mut expected_epochs = vec![0u64; infra.host_count()];
            let apply_refresh = |pending: &mut HashSet<usize>, epochs: &mut Vec<u64>| {
                for &h in pending.iter() {
                    epochs[h] += 1;
                }
                pending.clear();
            };

            for event in 0u64..12 {
                let what = format!("trial {trial} event {event}");
                match rng.gen_range(0u32..10) {
                    // Arrive (also the replay probe).
                    0..=4 => {
                        let mut b = TopologyBuilder::new(format!("t{trial}e{event}"));
                        let n = rng.gen_range(2usize..5);
                        let ids: Vec<_> = (0..n)
                            .map(|i| {
                                b.vm(
                                    format!("v{i}"),
                                    rng.gen_range(1u32..4),
                                    1_024 * rng.gen_range(1u64..4),
                                )
                                .unwrap()
                            })
                            .collect();
                        for i in 0..n {
                            for j in (i + 1)..n {
                                if rng.gen_bool(0.5) {
                                    b.link(
                                        ids[i],
                                        ids[j],
                                        Bandwidth::from_mbps(rng.gen_range(10u64..150)),
                                    )
                                    .unwrap();
                                }
                            }
                        }
                        let topo = b.build().unwrap();
                        apply_refresh(&mut pending, &mut expected_epochs);
                        let warm = session.place(&topo, &request);
                        let cold = scheduler.place(&topo, &shadow, &request);
                        match (warm, cold) {
                            (Ok(w), Ok(c)) => {
                                assert_outcomes_identical(&w, &c, &what);
                                session.commit(&topo, &w.placement).unwrap();
                                scheduler.commit(&topo, &c.placement, &mut shadow).unwrap();
                                for &h in w.placement.assignments() {
                                    pending.insert(h.index());
                                }
                                if rng.gen_bool(0.3) {
                                    // Replay probe: two identical
                                    // placements back to back must
                                    // decide identically.
                                    apply_refresh(&mut pending, &mut expected_epochs);
                                    let r1 = session.place(&topo, &request);
                                    let r2 = session.place(&topo, &request);
                                    if let (Ok(r1), Ok(r2)) = (r1, r2) {
                                        assert_eq!(r1.placement, r2.placement, "{what}: replay");
                                    }
                                }
                                live.push((topo, w.placement));
                            }
                            (Err(we), Err(ce)) => assert_eq!(we, ce, "{what}: errors differ"),
                            (w, c) => {
                                panic!("{what}: warm {w:?} vs cold {c:?} feasibility diverged")
                            }
                        }
                    }
                    // Depart.
                    5..=6 if !live.is_empty() => {
                        let idx = rng.gen_range(0..live.len());
                        let (topo, placement) = live.swap_remove(idx);
                        session.release(&topo, &placement).unwrap();
                        scheduler.release(&topo, &placement, &mut shadow).unwrap();
                        for &h in placement.assignments() {
                            pending.insert(h.index());
                        }
                    }
                    // Evacuate a live tenant's first host.
                    7 if !live.is_empty() => {
                        let idx = rng.gen_range(0..live.len());
                        let (topo, placement) = live.swap_remove(idx);
                        let assignment: Vec<Option<HostId>> =
                            placement.assignments().iter().copied().map(Some).collect();
                        let failed = placement.assignments()[0];
                        for &h in placement.assignments() {
                            pending.insert(h.index());
                        }
                        pending.insert(failed.index());
                        let warm = session.evacuate(&topo, &assignment, &request, failed, 4);
                        let cold = scheduler.evacuate(
                            &topo,
                            &assignment,
                            &mut shadow,
                            &request,
                            failed,
                            4,
                        );
                        // The first re-place round drains the journal.
                        apply_refresh(&mut pending, &mut expected_epochs);
                        match (warm, cold) {
                            (Ok(w), Ok(c)) => {
                                assert_outcomes_identical(
                                    &w.online.outcome,
                                    &c.online.outcome,
                                    &what,
                                );
                                assert_eq!(w.dead, c.dead, "{what}: dead");
                                let placement = w.online.outcome.placement;
                                session.commit(&topo, &placement).unwrap();
                                scheduler.commit(&topo, &placement, &mut shadow).unwrap();
                                for &h in placement.assignments() {
                                    pending.insert(h.index());
                                }
                                live.push((topo, placement));
                            }
                            (Err(we), Err(ce)) => assert_eq!(we, ce, "{what}: errors differ"),
                            (w, c) => {
                                panic!("{what}: warm {w:?} vs cold {c:?} evacuation diverged")
                            }
                        }
                    }
                    // Out-of-band reservation (stale-capacity race).
                    _ => {
                        let host = HostId::from_index(rng.gen_range(0..infra.host_count()) as u32);
                        let req = Resources::new(1, 256, 0);
                        let warm = session.reserve_node(host, req);
                        let cold = shadow.reserve_node(host, req);
                        assert_eq!(warm.is_ok(), cold.is_ok(), "{what}: reserve diverged");
                        if warm.is_ok() {
                            pending.insert(host.index());
                        }
                    }
                }

                // (1) The journal holds exactly the touched hosts.
                let journaled: HashSet<usize> =
                    session.pending_dirty_hosts().iter().map(|h| h.index()).collect();
                assert_eq!(journaled, pending, "{what}: journal mismatch");
                // (2) Epochs advanced exactly once per refreshed touch.
                for (h, &expected) in expected_epochs.iter().enumerate() {
                    assert_eq!(
                        session.host_epoch(HostId::from_index(h as u32)),
                        expected,
                        "{what}: epoch of host {h}"
                    );
                }
                // (3) Every non-journaled mirror row equals a full
                // rescan; journaled hosts are allowed to lag until
                // refresh.
                for h in 0..infra.host_count() {
                    if pending.contains(&h) {
                        continue;
                    }
                    let id = HostId::from_index(h as u32);
                    let free = session.state.available(id);
                    let table = &session.shared.table;
                    assert_eq!(table.available(id), free, "{what}: stale free row, host {h}");
                    assert_eq!(
                        table.nic_available(id),
                        session.state.nic_available(id),
                        "{what}: stale nic row, host {h}"
                    );
                }
                // (4) The session state never drifts from the shadow.
                assert_eq!(session.state(), &shadow, "{what}: state drift");
            }
        }
    }

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ostro-session-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The tentpole durability contract at the session level: a
    /// mutation stream emitting every record kind the session writes
    /// (commit, release, raw grabs, evacuation with its partial release
    /// and quarantine, deploy, reconcile, migrate — including a release
    /// and a migrate that touch a quarantined host) journaled through a
    /// WAL — with snapshots firing mid-stream — recovers to
    /// bit-identical books, and a session resumed from the recovery
    /// makes bit-identical decisions.
    #[test]
    fn session_wal_recovery_is_bit_identical() {
        use crate::reconcile::HostTruth;
        use crate::wal::{recover, Wal, WalOptions};

        let infra = infra_flat(4, 8);
        let request = PlacementRequest::default();
        let dir = wal_dir("roundtrip");
        let (walh, fresh) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 3, ..WalOptions::default() })
                .unwrap();
        assert_eq!(fresh.seq, 0);
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(walh);

        let app_a = hub_app("a");
        let app_b = chain_app("b");
        let out_a = session.place(&app_a, &request).unwrap();
        session.commit(&app_a, &out_a.placement).unwrap();
        let out_b = session.place(&app_b, &request).unwrap();
        session.commit(&app_b, &out_b.placement).unwrap();
        session.release(&app_a, &out_a.placement).unwrap();
        session.reserve_node(HostId::from_index(5), Resources::new(1, 512, 0)).unwrap();
        session.release_node(HostId::from_index(5), Resources::new(1, 512, 0)).unwrap();
        let assignment: Vec<Option<HostId>> =
            out_b.placement.assignments().iter().copied().map(Some).collect();
        let failed = out_b.placement.assignments()[0];
        let ev = session.evacuate(&app_b, &assignment, &request, failed, 4).unwrap();
        session.commit(&app_b, &ev.online.outcome.placement).unwrap();

        // The remaining record kinds: a deployment's net record and an
        // anti-entropy repair.
        let out_d = session.place(&app_a, &request).unwrap();
        let policy = crate::deploy::DeployPolicy::default();
        session
            .deploy(&app_a, &out_d.placement, &request, &policy, &[], &mut crate::deploy::NoFaults)
            .unwrap();
        let drifted = (0..infra.host_count() as u32)
            .map(HostId::from_index)
            .find(|&host| !session.is_quarantined(host))
            .unwrap();
        let used =
            infra.host(drifted).capacity().saturating_sub(session.state().available(drifted));
        let truth = HostTruth {
            host: drifted,
            used: used + Resources::new(1, 512, 0),
            instances: session.state().node_count(drifted) + 1,
        };
        assert_eq!(session.reconcile(&[truth]).unwrap().repaired(), 1);

        // The two shapes that touch a quarantined host: a tenant
        // drained off one (one Migrate record releasing there) and a
        // tenant departing from one (a Release).
        let app_c = hub_app("c");
        let out_c = session.place(&app_c, &request).unwrap();
        session.commit(&app_c, &out_c.placement).unwrap();
        let app_e = chain_app("e");
        let out_e = session.place(&app_e, &request).unwrap();
        session.commit(&app_e, &out_e.placement).unwrap();
        let drained = out_c.placement.assignments()[0];
        session.quarantine_host(drained);
        let scheduler = session.scheduler();
        let mut trial = session.state().clone();
        scheduler.release(&app_c, &out_c.placement, &mut trial).unwrap();
        trial.quarantine_host(drained);
        let moved = scheduler.place(&app_c, &trial, &request).unwrap().placement;
        session.migrate(&app_c, &out_c.placement, &moved).unwrap();
        let departed = out_e.placement.assignments()[0];
        session.quarantine_host(departed);
        session.release(&app_e, &out_e.placement).unwrap();
        for host in [failed, drained, departed] {
            assert!(session.state().available(host).is_zero(), "{host} thawed");
        }

        assert!(session.wal_error().is_none(), "journaling must not have failed");
        let wal_back = session.detach_wal().unwrap();
        assert!(wal_back.snapshots_taken() > 0, "the cadence must have compacted mid-stream");
        drop(wal_back);

        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(&recovery.state, session.state(), "recovered books diverge");
        assert_eq!(recovery.quarantined, session.quarantined_hosts());
        let mut frozen = vec![failed, drained, departed];
        frozen.sort_unstable_by_key(|host| host.index());
        frozen.dedup();
        assert_eq!(recovery.quarantined, frozen);
        assert!(!recovery.truncated_tail);

        // A resumed session decides bit-identically to the survivor.
        let mut resumed = SchedulerSession::with_recovery(&infra, &recovery);
        assert!(resumed.is_quarantined(failed));
        let app_f = hub_app("f");
        let survivor = session.place(&app_f, &request).unwrap();
        let after_crash = resumed.place(&app_f, &request).unwrap();
        assert_outcomes_identical(&after_crash, &survivor, "post-recovery placement");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression: migrating a tenant onto a quarantined host it
    /// already occupies. The release half used to resurrect the frozen
    /// capacity on the live books, the commit half landed on it, and
    /// the record was journaled — but replay re-froze after every
    /// effect and failed the reservation, so an acknowledged journal
    /// could not be recovered (`WalError::Replay`). With one apply on
    /// both sides the migrate is refused with the typed error, and
    /// books, dirty journal and WAL stay untouched.
    ///
    /// Not reproduced through `ServiceHandle::maintain`: no plane can
    /// be made to propose the move. The drain planner un-pins every
    /// node on a quarantined host and plans on books where every
    /// quarantined host is re-frozen; the defrag planner skips any
    /// tenant touching a quarantined host and plans on books where
    /// those hosts are already zeroed — neither search can select one.
    #[test]
    fn migrate_onto_a_quarantined_host_is_refused_and_the_journal_recovers() {
        use crate::wal::{recover, Wal, WalOptions};

        let infra = infra_flat(1, 4);
        let dir = wal_dir("migrate-quarantined");
        let (walh, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(walh);
        let mut b = TopologyBuilder::new("one");
        b.vm("v", 2, 2_048).unwrap();
        let app = b.build().unwrap();
        let h0 = HostId::from_index(0);
        let on_h0 = Placement::new(vec![h0]);
        session.commit(&app, &on_h0).unwrap();
        session.quarantine_host(h0);
        session.refresh();
        let books = session.state().clone();

        let err = session.migrate(&app, &on_h0, &on_h0).unwrap_err();
        assert_eq!(err, PlacementError::Capacity(CapacityError::HostQuarantined(h0)));
        assert_eq!(session.state(), &books, "a refused migrate moved the books");
        assert!(session.pending_dirty_hosts().is_empty(), "a refused migrate dirtied hosts");
        assert!(session.wal_error().is_none());
        let journal = session.detach_wal().unwrap();
        assert_eq!(journal.seq(), 2, "only the commit and the quarantine are journaled");
        drop(journal);

        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(&recovery.state, session.state(), "recovered books diverge");
        assert_eq!(recovery.quarantined, vec![h0]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The anti-entropy sweep classifies all three divergence kinds,
    /// repairs every one to the ground truth, journals the repairs,
    /// and a second sweep finds nothing.
    #[test]
    fn reconcile_classifies_and_repairs_every_divergence() {
        use crate::reconcile::HostTruth;
        use crate::wal::{recover, Wal, WalOptions};

        let infra = infra_flat(2, 4);
        let dir = wal_dir("reconcile");
        let (walh, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(walh);
        let unit = Resources::new(2, 2_048, 50);

        // Host 0: two booked instances, truth has one → orphaned.
        session.reserve_node(HostId::from_index(0), unit).unwrap();
        session.reserve_node(HostId::from_index(0), unit).unwrap();
        // Host 1: one booked, truth has two → leaked release.
        session.reserve_node(HostId::from_index(1), unit).unwrap();
        // Host 2: counts agree, footprint doesn't → stale-race ghost.
        session.reserve_node(HostId::from_index(2), unit).unwrap();
        // Host 3: quarantined — skipped even if truth disagrees.
        session.quarantine_host(HostId::from_index(3));

        let truth = vec![
            HostTruth { host: HostId::from_index(0), used: unit, instances: 1 },
            HostTruth { host: HostId::from_index(1), used: unit + unit, instances: 2 },
            HostTruth {
                host: HostId::from_index(2),
                used: Resources::new(4, 4_096, 100),
                instances: 1,
            },
            HostTruth { host: HostId::from_index(3), used: Resources::ZERO, instances: 0 },
            HostTruth { host: HostId::from_index(4), used: Resources::ZERO, instances: 0 },
        ];
        let report = session.reconcile(&truth).unwrap();
        assert_eq!(report.scanned, 5);
        assert_eq!(report.skipped_quarantined, 1);
        assert_eq!(report.repaired(), 3);
        assert_eq!(report.orphaned(), 1);
        assert_eq!(report.leaked(), 1);
        assert_eq!(report.ghosts(), 1);
        assert_eq!(report.divergences[0].kind, DivergenceKind::OrphanedReservation);
        assert_eq!(report.divergences[1].kind, DivergenceKind::LeakedRelease);
        assert_eq!(report.divergences[2].kind, DivergenceKind::StaleRaceGhost);

        // Books now match the truth exactly.
        for t in &truth[..3] {
            let capacity = infra.host(t.host).capacity();
            assert_eq!(session.state().available(t.host), capacity - t.used, "host {t:?}");
            assert_eq!(session.state().node_count(t.host), t.instances, "host {t:?}");
        }
        let clean = session.reconcile(&truth).unwrap();
        assert!(clean.divergences.is_empty(), "repairs must converge in one sweep");

        // Cumulative counters surface through SearchStats.
        let out = session.place(&hub_app("probe"), &PlacementRequest::default()).unwrap();
        assert_eq!(out.stats.reconcile_orphaned, 1);
        assert_eq!(out.stats.reconcile_leaked, 1);
        assert_eq!(out.stats.reconcile_ghosts, 1);

        // The corrections were journaled: a recovered session holds
        // the repaired books, not the divergent ones.
        assert!(session.wal_error().is_none());
        drop(session.detach_wal());
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(&recovery.state, session.state(), "journaled repairs must replay");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sweep that errors partway keeps its earlier repairs — and
    /// those repairs must already be in the journal, or a recovery
    /// would silently rebuild the pre-repair books.
    #[test]
    fn reconcile_error_partway_keeps_journal_and_books_in_step() {
        use crate::reconcile::HostTruth;
        use crate::wal::{recover, Wal, WalOptions};

        let infra = infra_flat(2, 4);
        let dir = wal_dir("reconcile-err");
        let (walh, _) = Wal::open(&dir, &infra, WalOptions::default()).unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(walh);
        let unit = Resources::new(2, 2_048, 50);
        session.reserve_node(HostId::from_index(0), unit).unwrap();

        let truth = vec![
            // A repairable divergence, swept first.
            HostTruth { host: HostId::from_index(0), used: unit + unit, instances: 2 },
            // An impossible truth: used exceeds the host's capacity.
            HostTruth {
                host: HostId::from_index(1),
                used: Resources::new(64, 1 << 20, 10_000),
                instances: 1,
            },
        ];
        assert!(session.reconcile(&truth).is_err(), "oversized truth must fail the sweep");
        assert_eq!(
            session.state().node_count(HostId::from_index(0)),
            2,
            "the repair preceding the failure is kept"
        );
        assert!(session.wal_error().is_none());
        drop(session.detach_wal());
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(&recovery.state, session.state(), "kept repairs must be journaled too");
        assert_eq!(recovery.state.node_count(HostId::from_index(0)), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drains the journal, then checks the whole mirror (table columns,
    /// pod digests) against a from-scratch
    /// [`SessionShared::new`] over the live state.
    fn assert_mirror_fresh(session: &mut SchedulerSession<'_>, what: &str) {
        session.refresh();
        session.shared.assert_mirrors(session.infrastructure(), session.state(), what);
    }

    /// After any mix of session mutations — commit, release, evacuate,
    /// direct reserve/release, reconcile repairs — the dirty-host
    /// refresh must leave the shared mirror bit-identical to one
    /// freshly built from the live state.
    #[test]
    fn shared_table_matches_fresh_rebuild_after_session_churn() {
        use crate::reconcile::HostTruth;

        let infra = infra_flat(3, 4);
        let mut session = SchedulerSession::new(&infra);
        let request = PlacementRequest::default();

        let app_a = hub_app("a");
        let placed_a = session.place(&app_a, &request).unwrap();
        session.commit(&app_a, &placed_a.placement).unwrap();
        assert_mirror_fresh(&mut session, "after commit a");

        let app_b = chain_app("b");
        let placed_b = session.place(&app_b, &request).unwrap();
        session.commit(&app_b, &placed_b.placement).unwrap();
        assert_mirror_fresh(&mut session, "after commit b");

        session.release(&app_a, &placed_a.placement).unwrap();
        assert_mirror_fresh(&mut session, "after release a");

        let assignment: Vec<Option<HostId>> =
            placed_b.placement.assignments().iter().copied().map(Some).collect();
        let failed = placed_b.placement.assignments()[0];
        let ev = session.evacuate(&app_b, &assignment, &request, failed, 4).unwrap();
        session.commit(&app_b, &ev.online.outcome.placement).unwrap();
        assert_mirror_fresh(&mut session, "after evacuation");

        let unit = Resources::new(2, 2_048, 50);
        session.reserve_node(HostId::from_index(5), unit).unwrap();
        assert_mirror_fresh(&mut session, "after direct reserve");

        // Anti-entropy repair: truth says host 5 runs two instances.
        let truth =
            vec![HostTruth { host: HostId::from_index(5), used: unit + unit, instances: 2 }];
        session.reconcile(&truth).unwrap();
        assert_mirror_fresh(&mut session, "after reconcile");

        session.release_node(HostId::from_index(5), unit + unit).unwrap();
        assert_mirror_fresh(&mut session, "after direct release");
    }

    /// The sharded coarse stage's property test: after any randomized
    /// commit / release / evacuate / direct-reserve / reconcile
    /// sequence, the journal-maintained pod digests are *bit-identical*
    /// to digests rebuilt from scratch (`PodDigests::from_state` inside
    /// a from-scratch mirror) after every event's journal drain.
    #[test]
    fn pod_digests_match_scratch_rebuild_after_random_churn() {
        use crate::reconcile::HostTruth;

        // 3 pods × 2 racks × 4 hosts so digests actually partition.
        let mut b = InfrastructureBuilder::new();
        let site = b.site("dc", Bandwidth::from_gbps(400));
        for p in 0..3 {
            let pod = b.pod(site, format!("p{p}"), Bandwidth::from_gbps(200)).unwrap();
            for r in 0..2 {
                let rack =
                    b.rack_in_pod(pod, format!("p{p}r{r}"), Bandwidth::from_gbps(100)).unwrap();
                for h in 0..4 {
                    b.host(
                        rack,
                        format!("p{p}r{r}h{h}"),
                        Resources::new(8, 16_384, 500),
                        Bandwidth::from_gbps(10),
                    )
                    .unwrap();
                }
            }
        }
        let infra = b.build().unwrap();
        let request = PlacementRequest::default();
        let mut rng = SmallRng::seed_from_u64(0xD16E_5700);

        for trial in 0u64..4 {
            let mut session = SchedulerSession::new(&infra);
            let mut live: Vec<(ApplicationTopology, Placement)> = Vec::new();
            for event in 0u64..25 {
                let what = format!("trial {trial} event {event}");
                match rng.gen_range(0u32..10) {
                    // Arrive: place and commit a small random app.
                    0..=4 => {
                        let mut b = TopologyBuilder::new(format!("t{trial}e{event}"));
                        let n = rng.gen_range(2usize..5);
                        let ids: Vec<_> = (0..n)
                            .map(|i| {
                                b.vm(
                                    format!("v{i}"),
                                    rng.gen_range(1u32..4),
                                    1_024 * rng.gen_range(1u64..4),
                                )
                                .unwrap()
                            })
                            .collect();
                        for w in ids.windows(2) {
                            b.link(w[0], w[1], Bandwidth::from_mbps(rng.gen_range(10u64..150)))
                                .unwrap();
                        }
                        let topo = b.build().unwrap();
                        if let Ok(out) = session.place(&topo, &request) {
                            session.commit(&topo, &out.placement).unwrap();
                            live.push((topo, out.placement));
                        }
                    }
                    // Depart.
                    5..=6 if !live.is_empty() => {
                        let idx = rng.gen_range(0..live.len());
                        let (topo, placement) = live.swap_remove(idx);
                        session.release(&topo, &placement).unwrap();
                    }
                    // Evacuate a live tenant's first host.
                    7 if !live.is_empty() => {
                        let idx = rng.gen_range(0..live.len());
                        let (topo, placement) = live.swap_remove(idx);
                        let assignment: Vec<Option<HostId>> =
                            placement.assignments().iter().copied().map(Some).collect();
                        let failed = placement.assignments()[0];
                        if let Ok(ev) = session.evacuate(&topo, &assignment, &request, failed, 4) {
                            let placement = ev.online.outcome.placement;
                            session.commit(&topo, &placement).unwrap();
                            live.push((topo, placement));
                        }
                    }
                    // Out-of-band reservation.
                    8 => {
                        let host = HostId::from_index(rng.gen_range(0..infra.host_count()) as u32);
                        let _ = session.reserve_node(host, Resources::new(1, 256, 0));
                    }
                    // Anti-entropy repair toward a random (in-capacity)
                    // truth for one host.
                    _ => {
                        let host = HostId::from_index(rng.gen_range(0..infra.host_count()) as u32);
                        let used = Resources::new(
                            rng.gen_range(0u32..5),
                            1_024 * rng.gen_range(0u64..5),
                            10 * rng.gen_range(0u64..5),
                        );
                        let instances =
                            if used == Resources::ZERO { 0 } else { rng.gen_range(1u32..3) };
                        session.reconcile(&[HostTruth { host, used, instances }]).unwrap();
                    }
                }
                // After a drain the mirror equals the live state, so
                // the digests must too.
                assert_mirror_fresh(&mut session, &what);
            }
        }
    }

    /// Satellite regression: a release on a quarantined host must not
    /// resurrect its capacity. The raw `CapacityState` stores no
    /// quarantine flag, so before the session-side re-freeze a tenant
    /// departing normally after its host crashed restored the host's
    /// availability — and the pod digests then ranked a pod by
    /// capacity nothing can use. After the fix the digests stay
    /// identical to a from-scratch rebuild and both the plain and the
    /// sharded search refuse to land on the host.
    #[test]
    fn release_on_quarantined_host_does_not_resurrect_capacity() {
        // 2 pods × 1 rack × 2 hosts so the digest pre-selection has
        // real pods to rank.
        let mut b = InfrastructureBuilder::new();
        let site = b.site("dc", Bandwidth::from_gbps(400));
        for p in 0..2 {
            let pod = b.pod(site, format!("p{p}"), Bandwidth::from_gbps(200)).unwrap();
            let rack = b.rack_in_pod(pod, format!("p{p}r0"), Bandwidth::from_gbps(100)).unwrap();
            for h in 0..2 {
                b.host(
                    rack,
                    format!("p{p}r0h{h}"),
                    Resources::new(8, 16_384, 500),
                    Bandwidth::from_gbps(10),
                )
                .unwrap();
            }
        }
        let infra = b.build().unwrap();
        let request = PlacementRequest::default();
        let mut session = SchedulerSession::new(&infra);

        // Fill every host down to 2 free vcpus, keeping handles so the
        // victim's tenant can depart after the quarantine.
        let filler = |name: &str| {
            let mut b = TopologyBuilder::new(name);
            b.vm("big", 6, 4_096).unwrap();
            b.build().unwrap()
        };
        let mut placed = Vec::new();
        for i in 0..infra.host_count() {
            let app = filler(&format!("f{i}"));
            let out = session.place(&app, &request).unwrap();
            session.commit(&app, &out.placement).unwrap();
            placed.push((app, out.placement));
        }
        let (victim_app, victim_placement) = placed.swap_remove(0);
        let victim = victim_placement.assignments()[0];

        // Crash the victim's host, then let its tenant depart normally
        // — the departure's release must not thaw the frozen books.
        session.quarantine_host(victim);
        session.release(&victim_app, &victim_placement).unwrap();
        session.refresh();
        assert_eq!(
            session.state().available(victim),
            Resources::ZERO,
            "release resurrected quarantined capacity"
        );
        assert_eq!(session.state().nic_available(victim).as_mbps(), 0);
        assert_eq!(session.shared.table.available(victim), Resources::ZERO);

        // Mirror invariant: the incrementally maintained table and
        // digests equal a from-scratch rebuild over the live state.
        assert_mirror_fresh(&mut session, "after the quarantined release");

        // Only the phantom capacity could fit this app: every live
        // host has 2 free vcpus, the quarantined host would have 6 if
        // resurrected. Sharded and unsharded search must both refuse.
        let mut b = TopologyBuilder::new("needs-phantom");
        b.vm("n", 4, 2_048).unwrap();
        let needy = b.build().unwrap();
        assert!(session.place(&needy, &request).is_err(), "phantom capacity admitted a tenant");
        let sharded = PlacementRequest { shard: true, ..request.clone() };
        assert!(session.place(&needy, &sharded).is_err(), "sharded screen ranked a frozen pod");

        // A small app still fits elsewhere — and never on the victim.
        let mut b = TopologyBuilder::new("fits");
        b.vm("s", 2, 1_024).unwrap();
        let small = b.build().unwrap();
        let out = session.place(&small, &sharded).unwrap();
        assert!(!out.placement.assignments().contains(&victim));
    }

    /// Satellite regression: evacuating a host none of the tenant's
    /// replicas live on is a cheap no-op — only the failed host itself
    /// is journaled (for the quarantine); the tenant's hosts keep
    /// their epochs and mirror rows.
    #[test]
    fn evacuate_of_untouched_host_keeps_epochs_and_skips_search() {
        let infra = infra_flat(4, 8);
        let request = PlacementRequest::default();
        let mut session = SchedulerSession::new(&infra);

        let app = hub_app("a");
        let out = session.place(&app, &request).unwrap();
        session.commit(&app, &out.placement).unwrap();
        session.refresh();

        let failed = (0..infra.host_count())
            .map(|i| HostId::from_index(i as u32))
            .find(|h| !out.placement.assignments().contains(h))
            .expect("an untouched host exists");
        let epochs_before: Vec<u64> = (0..infra.host_count())
            .map(|i| session.host_epoch(HostId::from_index(i as u32)))
            .collect();

        let assignment: Vec<Option<HostId>> =
            out.placement.assignments().iter().copied().map(Some).collect();
        let ev = session.evacuate(&app, &assignment, &request, failed, 4).unwrap();

        assert!(ev.dead.is_empty());
        assert_eq!(ev.online.rounds, 0, "no search rounds may run");
        assert!(ev.online.repositioned.is_empty());
        assert_eq!(ev.online.outcome.placement, out.placement, "the tenant must not move");
        assert_eq!(ev.online.outcome.stats.expanded, 0, "no search may run");
        assert_eq!(
            session.pending_dirty_hosts(),
            &[failed],
            "only the failed host may be journaled"
        );

        session.refresh();
        for (i, &before) in epochs_before.iter().enumerate() {
            let host = HostId::from_index(i as u32);
            let expected = if host == failed { before + 1 } else { before };
            assert_eq!(session.host_epoch(host), expected, "epoch of host {i}");
        }
        assert!(session.is_quarantined(failed));

        // Repeating the evacuation for a second unaffected tenant is
        // equally cheap: the quarantine is idempotent, so nothing at
        // all is journaled.
        let ev2 = session.evacuate(&app, &assignment, &request, failed, 4).unwrap();
        assert_eq!(ev2.online.outcome.placement, out.placement);
        assert!(session.pending_dirty_hosts().is_empty(), "idempotent re-quarantine journaled");
    }

    /// Satellite drill: crash mid-defrag-sweep. Every maintenance move
    /// is one atomic `Migrate` record, so (a) a recovery taken between
    /// migration records rebuilds books bit-identical to the live
    /// session, (b) any byte-truncated journal prefix — the image an
    /// actual crash leaves — recovers cleanly with monotonically
    /// shorter replay, and (c) a session resumed from the recovery
    /// finishes the interrupted sweep with balanced books: releasing
    /// every ledger tenant drains the fleet to zero.
    #[test]
    fn wal_crash_drill_mid_defrag_sweep() {
        use crate::defrag::{
            FragStats, MaintenanceConfig, MaintenanceLoad, MaintenancePlane, TenantRecord,
        };
        use crate::wal::{recover, Wal, WalOptions, WAL_FILE};
        use std::sync::Arc;

        let infra = infra_flat(2, 6);
        let request = PlacementRequest::default();
        let dir = wal_dir("defrag-drill");
        // No snapshot compaction: the drill truncates the raw journal.
        let (walh, _) = Wal::open(
            &dir,
            &infra,
            WalOptions { snapshot_every: u64::MAX, ..WalOptions::default() },
        )
        .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(walh);

        // Churn-decay: commit 10 two-node tenants, then depart every
        // other one, leaving the survivors scattered.
        let pair = |name: &str| {
            let mut b = TopologyBuilder::new(name);
            let a = b.vm("a", 2, 2_048).unwrap();
            let c = b.vm("c", 2, 2_048).unwrap();
            b.link(a, c, Bandwidth::from_mbps(200)).unwrap();
            b.build().unwrap()
        };
        let mut ledger: Vec<TenantRecord> = Vec::new();
        for i in 0..10u64 {
            let app = pair(&format!("t{i}"));
            let out = session.place(&app, &request).unwrap();
            session.commit(&app, &out.placement).unwrap();
            ledger.push(TenantRecord { id: i, topology: Arc::new(app), placement: out.placement });
        }
        let mut kept = Vec::new();
        for (i, t) in ledger.drain(..).enumerate() {
            if i % 2 == 0 {
                session.release(&t.topology, &t.placement).unwrap();
            } else {
                kept.push(t);
            }
        }
        let mut ledger = kept;

        // A tiny per-sweep budget guarantees the sweep is still
        // mid-flight when the crash hits.
        let cfg = MaintenanceConfig {
            sweep_budget: 2,
            sweep_candidates: 4,
            ..MaintenanceConfig::default()
        };
        let mut plane = MaintenancePlane::new(cfg.clone(), infra.host_count());
        let beat_all = |plane: &mut MaintenancePlane, tick: u64| {
            for i in 0..infra.host_count() {
                plane.heartbeat(HostId::from_index(i as u32), tick);
            }
        };
        for tick in 0..3u64 {
            beat_all(&mut plane, tick);
            plane.tick(&mut session, &mut ledger, tick, MaintenanceLoad::default());
        }
        let migrations_at_crash = plane.migration_log().len();
        assert!(migrations_at_crash > 0, "the sweep must have started moving tenants");

        // Crash. The dropped journal is the crash image.
        assert!(session.wal_error().is_none());
        drop(session.detach_wal());

        // (a) Recovered ≡ live, mid-sweep.
        let recovery = recover(&dir, &infra).unwrap();
        assert_eq!(&recovery.state, session.state(), "mid-sweep recovery diverges from live");
        assert_eq!(recovery.quarantined, session.quarantined_hosts());

        // (b) Every byte-truncated prefix — a crash can land anywhere
        // between (or inside) migration records — recovers cleanly,
        // with replay length monotone in the prefix length.
        let image = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let scratch = wal_dir("defrag-drill-prefix");
        std::fs::create_dir_all(&scratch).unwrap();
        let mut last_replayed = 0u64;
        for cut in (0..image.len()).step_by(7).chain(std::iter::once(image.len())) {
            std::fs::write(scratch.join(WAL_FILE), &image[..cut]).unwrap();
            let partial = recover(&scratch, &infra).unwrap();
            assert!(
                partial.records_replayed >= last_replayed || partial.records_replayed == 0,
                "replay went backwards at cut {cut}"
            );
            last_replayed = partial.records_replayed.max(last_replayed);
        }
        assert_eq!(last_replayed, recovery.records_replayed);
        let _ = std::fs::remove_dir_all(&scratch);

        // (c) Resume from the recovery and finish the sweep: the
        // resumed plane keeps consolidating, and afterwards releasing
        // every ledger tenant drains the books to zero — no tenant was
        // half-moved, no capacity leaked.
        let (walh, recovered) = Wal::open(
            &dir,
            &infra,
            WalOptions { snapshot_every: u64::MAX, ..WalOptions::default() },
        )
        .unwrap();
        let mut resumed = SchedulerSession::with_recovery(&infra, &recovered);
        resumed.attach_wal(walh);
        let mut plane2 = MaintenancePlane::new(cfg, infra.host_count());
        for tick in 3..12u64 {
            beat_all(&mut plane2, tick);
            plane2.tick(&mut resumed, &mut ledger, tick, MaintenanceLoad::default());
        }
        let after = FragStats::compute(&infra, resumed.state(), &ledger);
        assert_eq!(after.active_hosts, resumed.state().active_host_count());
        for t in &ledger {
            resumed.release(&t.topology, &t.placement).unwrap_or_else(|e| {
                panic!("ledger tenant {} no longer releases cleanly: {e}", t.id)
            });
        }
        assert_eq!(resumed.state().active_host_count(), 0, "books must balance");
        assert_eq!(resumed.state().total_reserved_bandwidth(&infra).as_mbps(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
