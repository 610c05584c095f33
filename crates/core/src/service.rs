//! The concurrent placement service: optimistic
//! snapshot-plan / validate-commit scheduling over one
//! [`SchedulerSession`].
//!
//! A [`SchedulerSession`] is a `&mut self` world — every request
//! serializes through it, so sustained throughput is capped at
//! single-planner speed no matter how fast one scoring round is. The
//! [`PlacementService`] splits each request into two phases:
//!
//! 1. **Snapshot-plan** — the planner grabs the current
//!    [`PlanSnapshot`] (an immutable copy of the committed books plus
//!    the session's mirror of them — capacity-table columns, pod
//!    digests, per-host refresh epochs; the fleet layout is *shared*,
//!    not copied) and solves against it
//!    with no lock held. Any number of planners plan concurrently
//!    against the same snapshot.
//! 2. **Validate-commit** — under the single commit lock the session
//!    applies the decision to the *live* books with its all-or-nothing
//!    commit (journaling dirty hosts and appending to the WAL, which
//!    makes the commit *order* durable), the commit sequence number
//!    advances, and a fresh snapshot is published. The lock is held
//!    only for the cheap apply — never for planning.
//!
//! There is one validation rule: **apply against the live books**. If
//! capacity and every link still admit the decision it commits; if the
//! apply fails *and* the sequence number moved since the plan's
//! snapshot, something raced in ahead of it — a **conflict**: the loser
//! re-plans against a fresh snapshot, up to
//! [`ServiceConfig::max_retries`] times, then plans *serialized* under
//! the commit lock, where it cannot lose again. An apply that fails
//! against unmoved books is a genuine error. The session commit is the
//! authoritative check in every path — per-host bookkeeping alone could
//! never be, since a concurrent commit elsewhere in a rack can saturate
//! a shared uplink the plan relied on.
//!
//! Staleness is still *observed*, because it says how far a committed
//! objective may have drifted from what its planner saw: a planned
//! host is stale when the session reports it changed since the
//! snapshot (`SchedulerSession::changed_since`) —
//! still in the dirty journal (touched earlier under this very lock
//! acquisition) or re-resolved since the snapshot was cut. A commit
//! with a stale host counts in [`ServiceStats::stale_admissions`]; its
//! objective is off by at most what raced in ahead of it. The session's
//! refresh epochs are the only per-host epochs in the system.
//!
//! The apply re-validates quarantine along with capacity: a decision
//! landing on a host a maintenance tick froze after the snapshot is
//! refused like any other that no longer fits.
//!
//! Everything that takes the commit lock — one optimistic commit, a
//! serialized plan-and-commit, a release, a whole admission batch, a
//! maintenance tick — is the same write transaction: lock, mark the
//! journal, run the body, and if the sequence number moved, one
//! group-commit fsync then one snapshot publication. Its undo log is
//! the effect lists it applied ([`DurabilityPolicy::Reject`]).
//!
//! **Admission batching**: [`PlacementService::serve`] runs a planner
//! pool behind a FIFO queue. Each planner pops up to
//! [`ServiceConfig::batch`] jobs and plans them in order against one
//! snapshot — multi-member batches against a speculative copy of its
//! books on which each member's decision is applied virtually before
//! the next member plans, so members plan around each other instead of
//! colliding — then takes the commit lock **once** for the whole batch
//! and publishes **one** snapshot. With
//! [`ServiceConfig::durable_acks`] the batch also fsyncs the WAL once
//! before any of its responses are delivered — group commit: a
//! delivered `Placed` is durable.
//!
//! # What the service guarantees
//!
//! Commits are **linearized** by the commit sequence number: the final
//! books equal a serial replay of the committed decisions in sequence
//! order over the base state, and every decision was feasible at its
//! commit point (the session's all-or-nothing commit checked it while
//! holding the lock). With one planner and batch size 1 the pipeline
//! degenerates to the serial warm-session path and decisions are
//! bit-identical to [`SchedulerSession::place`] — `scripts/verify.sh`
//! diffs the two decision digests on every run.
//!
//! Concurrent planners run their searches with request-level
//! parallelism instead of intra-request scoring parallelism
//! ([`PlacementRequest::parallel`] is forced off in
//! [`plan`](PlacementService::plan)): a scoring pool serves one search
//! at a time, and parallel-vs-serial scoring is bit-identical anyway.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::ApplicationTopology;
use serde::{Deserialize, Serialize};

use crate::deadline::BudgetStamp;
use crate::defrag::{MaintenanceLoad, MaintenancePlane, MaintenanceTick, TenantRecord};
use crate::error::PlacementError;
use crate::placement::{Placement, PlacementOutcome};
use crate::pool::lock_unpoisoned;
use crate::request::PlacementRequest;
use crate::scheduler::Scheduler;
use crate::session::{SchedulerSession, SessionShared};
use crate::wal::{self, Effect, WalMark};

/// Tuning for a [`PlacementService`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Planner threads [`serve`](PlacementService::serve) runs.
    pub planners: usize,
    /// Maximum jobs one planner plans against a single snapshot (and
    /// commits under a single lock acquisition).
    pub batch: usize,
    /// Optimistic re-plans a losing request is granted before it falls
    /// back to planning serialized under the commit lock.
    pub max_retries: u32,
    /// When a WAL is attached: fsync once per commit-lock acquisition,
    /// *before* responses are delivered, so an acknowledged commit is
    /// durable (group commit). Without a WAL this is a no-op.
    pub durable_acks: bool,
    /// Bound on the ingress queue [`serve`](PlacementService::serve)
    /// runs behind: a placement submitted while this many jobs are
    /// already queued is shed at the door with
    /// [`PlacementError::QueueFull`]. Releases are always admitted —
    /// shedding a release would leak capacity. `0` (the default) is
    /// the legacy unbounded queue.
    #[serde(default)]
    pub queue_depth: usize,
    /// Per-request deadline budget in milliseconds: a placement that
    /// has already waited this long in the ingress queue is shed
    /// before planning with [`PlacementError::DeadlineExceeded`]. `0`
    /// (the default) disables budgets.
    #[serde(default)]
    pub deadline_ms: u64,
    /// Virtual microseconds one submission tick represents. `0` (the
    /// default) measures queue age on the wall clock; non-zero
    /// replaces it with the service's submission-tick counter — the
    /// queue-level analogue of the search's virtual deadline clock —
    /// so deadline shedding becomes a pure function of the submission
    /// schedule (what the chaos harness's bit-identity drills need).
    #[serde(default)]
    pub virtual_tick_us: u64,
    /// Load-aware degraded-mode policy: step planning down the engine
    /// ladder as queue depth rises. Disabled by default.
    #[serde(default)]
    pub degrade: DegradePolicy,
    /// What a group commit does when the WAL fails under it. The
    /// default keeps the legacy fail-stop behavior (acks continue
    /// non-durably; the latched error surfaces via
    /// [`SchedulerSession::take_wal_error`]).
    #[serde(default)]
    pub wal_policy: DurabilityPolicy,
    /// With [`DurabilityPolicy::Reject`]: fsync retries before the
    /// batch is rolled back (retries only run when every append
    /// landed and just the fsync failed).
    #[serde(default)]
    pub wal_retries: u32,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            planners: 1,
            batch: 8,
            max_retries: 3,
            durable_acks: true,
            queue_depth: 0,
            deadline_ms: 0,
            virtual_tick_us: 0,
            degrade: DegradePolicy::default(),
            wal_policy: DurabilityPolicy::default(),
            wal_retries: 0,
        }
    }
}

/// The load-aware degraded-mode policy: as the ingress queue deepens,
/// planning steps down the engine ladder — first capping the A\*
/// tiers' expansion budgets, then dropping to the greedy EG floor —
/// and climbs back up with hysteresis as the backlog drains.
///
/// The ladder has three rungs, keyed off the queue depth a planner
/// observes when it wakes: **normal** (the requested algorithm,
/// untouched), **capped** (depth ≥ [`high`](Self::high):
/// `max_expansions` tightened to [`cap_expansions`](Self::cap_expansions)),
/// and **floor** (depth ≥ [`floor`](Self::floor): A\* tiers replaced
/// by greedy EG). Recovery is sticky: a capped service returns to
/// normal only at depth ≤ [`low`](Self::low), and the floor steps
/// back to capped only at depth ≤ [`high`](Self::high) — the
/// hysteresis that keeps the ladder from thrashing at a threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradePolicy {
    /// Master switch; `false` (the default) never degrades.
    pub enabled: bool,
    /// Queue depth at or above which planning enters the capped tier.
    pub high: usize,
    /// Queue depth at or below which a degraded service returns to
    /// normal (hysteresis low-water mark; keep `low < high`).
    pub low: usize,
    /// Queue depth at or above which planning drops to the greedy
    /// floor (keep `floor > high`).
    pub floor: usize,
    /// The expansion budget the capped tier imposes on the A\* tiers
    /// (never loosening a tighter request-level cap).
    pub cap_expansions: u64,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy { enabled: false, high: 16, low: 4, floor: 64, cap_expansions: 4_096 }
    }
}

/// What a group commit does when the WAL fails under it (an append
/// error during the batch, or the group-commit fsync itself).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DurabilityPolicy {
    /// Legacy fail-stop journaling: the first WAL error latches, the
    /// service keeps acknowledging *non-durably*, and the typed error
    /// surfaces through [`SchedulerSession::take_wal_error`] (the CLI
    /// reports it loudly). Recovery replays the consistent prefix up
    /// to the fault.
    #[default]
    Degrade,
    /// Never acknowledge what is not durable: retry the fsync up to
    /// [`ServiceConfig::wal_retries`] times; if the journal still
    /// cannot be completed, undo the transaction's effect lists off the
    /// books, rewind the journal to the mark taken when the commit lock
    /// was acquired, and fail every acknowledgement of the transaction
    /// with [`PlacementError::Durability`]. The journal heals in
    /// place, so the service keeps serving once the disk recovers.
    Reject,
}

/// An immutable view of the committed books that any number of
/// planners can solve against concurrently.
#[derive(Debug)]
pub struct PlanSnapshot {
    /// Commit sequence number at capture: how many mutations (commits
    /// and releases) the service had applied.
    seq: u64,
    /// The committed books at capture.
    state: CapacityState,
    /// The session's mirror of `state` (table columns, pod digests,
    /// per-host refresh epochs at capture).
    shared: SessionShared,
}

impl PlanSnapshot {
    /// The commit sequence number this snapshot was captured at.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The frozen books this snapshot plans against.
    #[must_use]
    pub fn state(&self) -> &CapacityState {
        &self.state
    }
}

/// Phase-1 output: a decision planned against a snapshot, not yet
/// validated or committed.
#[derive(Debug)]
pub struct PlannedPlacement {
    outcome: PlacementOutcome,
    snapshot: Arc<PlanSnapshot>,
    /// Distinct hosts the decision touches, ascending by index — the
    /// set validate-commit checks for staleness.
    hosts: Vec<HostId>,
}

impl PlannedPlacement {
    /// The planned decision and its search metrics.
    #[must_use]
    pub fn outcome(&self) -> &PlacementOutcome {
        &self.outcome
    }

    /// The snapshot this plan was computed against.
    #[must_use]
    pub fn snapshot(&self) -> &Arc<PlanSnapshot> {
        &self.snapshot
    }

    /// Distinct hosts the decision touches, ascending by index.
    #[must_use]
    pub fn hosts(&self) -> &[HostId] {
        &self.hosts
    }
}

/// The result of one optimistic commit attempt.
// One short-lived value per commit attempt; boxing the outcome would
// trade an allocation per commit for nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum CommitAttempt {
    /// Validation passed; the decision is in the books (and, with a
    /// WAL attached, in the journal).
    Committed(ServiceOutcome),
    /// The live books no longer admit the decision: a planned host (or
    /// a shared link the plan relied on) was consumed since the
    /// snapshot. Re-plan against a fresh snapshot.
    Conflict {
        /// The first planned host that changed since the snapshot (or,
        /// for a link conflict, the plan's first host).
        host: HostId,
    },
}

/// A committed placement: the decision plus its position in the
/// service's total commit order.
#[derive(Debug, Clone)]
pub struct ServiceOutcome {
    /// Commit sequence number — the service's total order. Replaying
    /// committed decisions in `seq` order over the base state
    /// reproduces the books exactly.
    pub seq: u64,
    /// The decision and search metrics;
    /// [`stats.commit_conflicts`](crate::SearchStats::commit_conflicts)
    /// and [`stats.replans`](crate::SearchStats::replans) record how
    /// contended this request's path to commit was.
    pub outcome: PlacementOutcome,
}

/// Cumulative service counters, serialized into `ostro serve` output
/// and the service benchmark artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Placements committed.
    pub committed: u64,
    /// Tenants released.
    pub released: u64,
    /// Requests rejected (planning failed against current books).
    pub rejected: u64,
    /// Optimistic commits that failed validation (the live books no
    /// longer admitted the decision).
    pub commit_conflicts: u64,
    /// Decisions committed with at least one planned host changed since
    /// their snapshot (committed without re-planning; their objectives
    /// are snapshot-relative).
    pub stale_admissions: u64,
    /// Re-plans against a fresh snapshot after a lost commit race.
    pub replans: u64,
    /// Requests that exhausted their retry budget and planned
    /// serialized under the commit lock.
    pub serialized_fallbacks: u64,
    /// Batches popped by planners.
    pub batches: u64,
    /// Histogram of batch sizes: `batch_sizes[n]` batches held exactly
    /// `n` jobs.
    pub batch_sizes: Vec<u64>,
    /// Snapshots published (one per mutating lock acquisition).
    pub snapshots_published: u64,
    /// Group-commit WAL fsyncs issued.
    pub wal_syncs: u64,
    /// Placements shed at the door: the bounded ingress queue was full.
    #[serde(default)]
    pub shed_queue_full: u64,
    /// Placements shed before planning: their deadline budget was
    /// already spent waiting in the queue.
    #[serde(default)]
    pub shed_deadline: u64,
    /// Planner panics contained by `catch_unwind` (each surfaced as a
    /// typed [`PlacementError::PlannerPanic`], never a poisoned
    /// service).
    #[serde(default)]
    pub planner_panics: u64,
    /// Placements solved by a degraded (capped or greedy-floor)
    /// search instead of the requested algorithm.
    #[serde(default)]
    pub degraded_decisions: u64,
    /// Degrade-ladder level changes (in either direction).
    #[serde(default)]
    pub degraded_transitions: u64,
    /// Group commits that observed a WAL failure (whatever the
    /// durability policy then did about it).
    #[serde(default)]
    pub wal_faults: u64,
    /// Fsync retries issued by [`DurabilityPolicy::Reject`].
    #[serde(default)]
    pub wal_retry_syncs: u64,
    /// Acknowledgements delivered *non-durably* after a WAL failure
    /// under [`DurabilityPolicy::Degrade`] (or when a rewind was
    /// impossible); a maintenance tick whose group commit faulted
    /// counts as one.
    #[serde(default)]
    pub non_durable_acks: u64,
    /// Acknowledgements converted to [`PlacementError::Durability`]
    /// rejections by [`DurabilityPolicy::Reject`] (books rolled back,
    /// journal rewound).
    #[serde(default)]
    pub durability_rejections: u64,
    /// Pods scored by the sharded coarse stage, summed over requests
    /// (zero unless requests set `shard`).
    #[serde(default)]
    pub pods_scanned: u64,
    /// Pods the coarse stage pruned before exact search, summed over
    /// requests.
    #[serde(default)]
    pub pods_pruned: u64,
    /// Sharded requests that fell back to the plain unsharded search.
    #[serde(default)]
    pub shard_fallbacks: u64,
    /// Maintenance-plane ticks run through [`PlacementService::maintain`].
    #[serde(default)]
    pub maintenance_ticks: u64,
    /// Tenant migrations the maintenance plane applied (drains +
    /// defrag moves), each journaled as one atomic WAL record.
    #[serde(default)]
    pub maintenance_migrations: u64,
    /// Defrag sweeps that yielded to foreground load (queue depth or
    /// an elevated degrade-ladder rung).
    #[serde(default)]
    pub maintenance_yields: u64,
}

/// The serialized half: the session (whose all-or-nothing commit is
/// the authoritative feasibility check, and whose refresh epochs say
/// which hosts moved) and the commit sequence number.
#[derive(Debug)]
struct Authority<'a> {
    session: SchedulerSession<'a>,
    seq: u64,
}

impl Authority<'_> {
    /// The first planned host that changed since the plan's snapshot.
    fn stale_host(&self, planned: &PlannedPlacement) -> Option<HostId> {
        let seen = &planned.snapshot.shared.epochs;
        planned.hosts.iter().copied().find(|&h| self.session.changed_since(h, seen[h.index()]))
    }

    /// Drains the session's dirty hosts into its mirror and copies the
    /// books and the mirror into a fresh snapshot.
    fn capture(&mut self) -> Arc<PlanSnapshot> {
        self.session.refresh();
        Arc::new(PlanSnapshot {
            seq: self.seq,
            state: self.session.state().clone(),
            shared: self.session.shared().clone_for_snapshot(),
        })
    }
}

/// One open write transaction (see [`PlacementService::write`]): the
/// commit lock, where the journal and the sequence number stood when it
/// was taken, and — under [`DurabilityPolicy::Reject`] — the effect
/// list of every mutation applied since, which is all a rollback needs.
struct Txn<'g, 'a> {
    authority: MutexGuard<'g, Authority<'a>>,
    mark: Option<WalMark>,
    base_seq: u64,
    policy: DurabilityPolicy,
    undo_log: Vec<Vec<Effect>>,
}

impl Txn<'_, '_> {
    fn commit(
        &mut self,
        topology: &ApplicationTopology,
        placement: &Placement,
    ) -> Result<u64, PlacementError> {
        self.authority.session.commit(topology, placement)?;
        Ok(self.applied(|| wal::commit_effects(topology, placement)))
    }

    fn release(
        &mut self,
        topology: &ApplicationTopology,
        placement: &Placement,
    ) -> Result<u64, PlacementError> {
        self.authority.session.release(topology, placement)?;
        Ok(self.applied(|| wal::release_effects(topology, placement)))
    }

    /// Books one applied mutation: its effect list joins the undo log
    /// when the transaction may have to be taken back, and it takes the
    /// next commit sequence number.
    fn applied(&mut self, effects: impl FnOnce() -> Vec<Effect>) -> u64 {
        if self.policy == DurabilityPolicy::Reject {
            self.undo_log.push(effects());
        }
        self.authority.seq += 1;
        self.authority.seq
    }
}

/// Outcome of one validate-commit under the lock, before stats and
/// snapshot publication are folded in.
enum Validated {
    Committed {
        seq: u64,
        /// A planned host had changed since the plan's snapshot.
        stale: bool,
    },
    Conflict {
        host: HostId,
    },
}

/// A batch's speculative books: one clone of the snapshot's state and
/// mirror, with earlier batch members' decisions applied virtually so
/// later members plan around them instead of colliding. Batch members
/// plan sequentially on one planner thread, so the view needs no
/// synchronization; races against other planners are still caught by
/// the live-books commit.
struct BatchView {
    state: CapacityState,
    shared: SessionShared,
}

impl BatchView {
    fn of(snapshot: &PlanSnapshot) -> Self {
        BatchView { state: snapshot.state.clone(), shared: snapshot.shared.clone_for_snapshot() }
    }

    /// Applies a member's decision to the speculative books and
    /// re-resolves its hosts — the same per-host resync the session's
    /// dirty-host journal performs after a real commit.
    fn commit(
        &mut self,
        scheduler: Scheduler<'_>,
        topology: &ApplicationTopology,
        planned: &PlannedPlacement,
    ) {
        if scheduler.commit(topology, &planned.outcome.placement, &mut self.state).is_ok() {
            self.shared.resync(&self.state, planned.hosts.iter().copied());
        }
    }

    /// Virtually releases a departing member's placement.
    fn release(&mut self, scheduler: Scheduler<'_>, topology: &ApplicationTopology, p: &Placement) {
        if scheduler.release(topology, p, &mut self.state).is_ok() {
            self.shared.resync(&self.state, distinct_hosts(p));
        }
    }
}

/// The distinct hosts of `placement`, ascending by index.
fn distinct_hosts(placement: &Placement) -> Vec<HostId> {
    let mut hosts = placement.assignments().to_vec();
    hosts.sort_unstable_by_key(|h| h.index());
    hosts.dedup();
    hosts
}

/// The concurrent placement service. See the module docs for the
/// pipeline; [`serve`](Self::serve) for the batched front-end;
/// [`place_blocking`](Self::place_blocking) /
/// [`release_blocking`](Self::release_blocking) for direct calls (any
/// number of threads may call them concurrently — `&self` throughout).
#[derive(Debug)]
pub struct PlacementService<'a> {
    infra: &'a Infrastructure,
    authority: Mutex<Authority<'a>>,
    snapshot: Mutex<Arc<PlanSnapshot>>,
    stats: Mutex<ServiceStats>,
    config: ServiceConfig,
    /// Current degrade-ladder rung (one of the `LEVEL_*` constants).
    degrade_level: AtomicU8,
    /// Submission-tick counter for the virtual admission clock.
    ticks: AtomicU64,
    plan_hook: Option<PlanHook>,
}

/// Degrade-ladder rungs (see [`DegradePolicy`]).
const LEVEL_NORMAL: u8 = 0;
const LEVEL_CAPPED: u8 = 1;
const LEVEL_FLOOR: u8 = 2;

/// An injectable planner hook, called at the top of every plan with
/// the topology about to be solved. The chaos harness uses it to
/// inject planner panics (a panicking hook is exactly a panicking
/// search, and must be contained the same way) and latency spikes (a
/// sleeping hook). Production services have none.
#[derive(Clone)]
pub struct PlanHook(Arc<dyn Fn(&ApplicationTopology) + Send + Sync>);

impl PlanHook {
    /// Wraps a hook closure.
    pub fn new(f: impl Fn(&ApplicationTopology) + Send + Sync + 'static) -> Self {
        PlanHook(Arc::new(f))
    }

    fn call(&self, topology: &ApplicationTopology) {
        (self.0)(topology);
    }
}

impl fmt::Debug for PlanHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanHook(..)")
    }
}

/// Renders a contained panic payload for the typed per-request error.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl<'a> PlacementService<'a> {
    /// Wraps `session` in the service. The session's pending dirty
    /// hosts are drained and the initial snapshot published.
    #[must_use]
    pub fn new(session: SchedulerSession<'a>, config: ServiceConfig) -> Self {
        let infra = session.infrastructure();
        let mut authority = Authority { session, seq: 0 };
        let snapshot = authority.capture();
        PlacementService {
            infra,
            authority: Mutex::new(authority),
            snapshot: Mutex::new(snapshot),
            stats: Mutex::new(ServiceStats::default()),
            config,
            degrade_level: AtomicU8::new(LEVEL_NORMAL),
            ticks: AtomicU64::new(0),
            plan_hook: None,
        }
    }

    /// Installs (or clears) the planner hook consulted at the top of
    /// every plan — the chaos harness's panic/latency injection point.
    pub fn set_plan_hook(&mut self, hook: Option<PlanHook>) {
        self.plan_hook = hook;
    }

    /// The current degrade-ladder rung: 0 = normal, 1 = capped,
    /// 2 = greedy floor.
    #[must_use]
    pub fn degrade_level(&self) -> u8 {
        self.degrade_level.load(Ordering::Relaxed)
    }

    /// Stamps a submission on whichever admission clock the service
    /// runs (see [`ServiceConfig::virtual_tick_us`]).
    fn stamp(&self) -> BudgetStamp {
        if self.config.virtual_tick_us > 0 {
            BudgetStamp::Tick(self.ticks.fetch_add(1, Ordering::Relaxed))
        } else {
            BudgetStamp::Wall(Instant::now())
        }
    }

    /// Milliseconds a stamped job has spent in the ingress queue.
    fn budget_elapsed_ms(&self, stamp: BudgetStamp) -> u64 {
        match stamp {
            BudgetStamp::Wall(at) => at.elapsed().as_millis().try_into().unwrap_or(u64::MAX),
            BudgetStamp::Tick(at) => {
                let now = self.ticks.load(Ordering::Relaxed);
                now.saturating_sub(at) * self.config.virtual_tick_us / 1_000
            }
        }
    }

    /// Steps the degrade ladder for an observed queue depth (called by
    /// a planner as it wakes), with the hysteresis described on
    /// [`DegradePolicy`]. Returns the level planning should run at.
    fn update_degrade(&self, depth: usize) -> u8 {
        let policy = &self.config.degrade;
        if !policy.enabled {
            return LEVEL_NORMAL;
        }
        let current = self.degrade_level.load(Ordering::Relaxed);
        let next = match current {
            LEVEL_NORMAL => {
                if depth >= policy.floor {
                    LEVEL_FLOOR
                } else if depth >= policy.high {
                    LEVEL_CAPPED
                } else {
                    LEVEL_NORMAL
                }
            }
            LEVEL_CAPPED => {
                if depth >= policy.floor {
                    LEVEL_FLOOR
                } else if depth <= policy.low {
                    LEVEL_NORMAL
                } else {
                    LEVEL_CAPPED
                }
            }
            _ => {
                if depth <= policy.low {
                    LEVEL_NORMAL
                } else if depth <= policy.high {
                    LEVEL_CAPPED
                } else {
                    LEVEL_FLOOR
                }
            }
        };
        if next != current
            && self
                .degrade_level
                .compare_exchange(current, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.note(|st| st.degraded_transitions += 1);
        }
        next
    }

    /// The request `level` actually plans with: `None` when the rung
    /// leaves it untouched (normal level, or an engine already at or
    /// below the rung's tier).
    fn degraded_request(&self, request: &PlacementRequest, level: u8) -> Option<PlacementRequest> {
        if level == LEVEL_NORMAL {
            return None;
        }
        let mut req = request.clone();
        let changed = if level == LEVEL_CAPPED {
            req.cap_search(self.config.degrade.cap_expansions)
        } else {
            req.floor_search()
        };
        changed.then_some(req)
    }

    /// The service's configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The infrastructure the service places onto.
    #[must_use]
    pub fn infrastructure(&self) -> &'a Infrastructure {
        self.infra
    }

    /// The current commit sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        lock_unpoisoned(&self.authority).seq
    }

    /// A copy of the cumulative service counters.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        lock_unpoisoned(&self.stats).clone()
    }

    /// Consumes the service, returning the session with every commit
    /// applied.
    #[must_use]
    pub fn into_session(self) -> SchedulerSession<'a> {
        let authority = match self.authority.into_inner() {
            Ok(a) => a,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut session = authority.session;
        session.refresh();
        session
    }

    fn note(&self, f: impl FnOnce(&mut ServiceStats)) {
        f(&mut lock_unpoisoned(&self.stats));
    }

    /// The current published snapshot. Cheap: an [`Arc`] clone.
    #[must_use]
    pub fn snapshot(&self) -> Arc<PlanSnapshot> {
        Arc::clone(&lock_unpoisoned(&self.snapshot))
    }

    /// Runs one maintenance-plane tick against the live books,
    /// serialized with foreground commits. The plane sees the caller's
    /// `queue_depth` and the current degrade-ladder rung, so sweeps
    /// yield whenever foreground traffic is already struggling. If the
    /// tick touched the books, the sequence number advances — so an
    /// in-flight optimistic plan whose hosts were migrated under it
    /// fails its commit as a conflict, not an error — a fresh snapshot
    /// is published, and (under durable acknowledgements) one
    /// group-commit fsync covers every migration record the tick
    /// journaled.
    pub fn maintain(
        &self,
        plane: &mut MaintenancePlane,
        ledger: &mut Vec<TenantRecord>,
        tick: u64,
        queue_depth: usize,
    ) -> MaintenanceTick {
        let load = MaintenanceLoad { queue_depth, degrade_level: self.degrade_level() };
        // A tick has no acknowledgement to revoke (the plane and the
        // caller's ledger have already moved with the books), so its
        // transaction never rolls back, whatever the configured policy.
        let (report, _) = self.write(DurabilityPolicy::Degrade, |txn| {
            let report = plane.tick(&mut txn.authority.session, ledger, tick, load);
            if !txn.authority.session.pending_dirty_hosts().is_empty() {
                txn.authority.seq += 1;
            }
            report
        });
        self.note(|st| {
            st.maintenance_ticks += 1;
            st.maintenance_migrations += u64::from(report.migrations);
            if report.yielded {
                st.maintenance_yields += 1;
            }
        });
        report
    }

    /// The one write transaction. Takes the commit lock, marks the
    /// journal, and runs `body`, which mutates the books through the
    /// [`Txn`]. If the sequence number moved, the transaction then
    /// group-commits — one WAL fsync for everything `body` journaled,
    /// with `policy` deciding what a WAL failure does — and publishes
    /// one fresh snapshot, before the lock is released. Sync comes
    /// *before* publish: if the Reject policy takes the transaction
    /// back, readers never see the undone books.
    ///
    /// Returns `body`'s result and, when the transaction was rolled
    /// back, the typed error the caller must convert its would-be
    /// acknowledgements into.
    fn write<R>(
        &self,
        policy: DurabilityPolicy,
        body: impl FnOnce(&mut Txn<'_, 'a>) -> R,
    ) -> (R, Option<PlacementError>) {
        let authority = lock_unpoisoned(&self.authority);
        let mark = authority.session.wal_mark();
        let mut txn =
            Txn { mark, base_seq: authority.seq, policy, undo_log: Vec::new(), authority };
        let result = body(&mut txn);
        let mut durability = None;
        if txn.authority.seq != txn.base_seq {
            durability = self.sync_locked(&mut txn);
            self.publish_locked(&mut txn.authority);
        }
        (result, durability)
    }

    /// Publishes a snapshot of the authority's current books.
    fn publish_locked(&self, authority: &mut Authority<'a>) {
        *lock_unpoisoned(&self.snapshot) = authority.capture();
        self.note(|st| st.snapshots_published += 1);
    }

    /// Group-commit point: fsync the WAL once for everything the
    /// transaction journaled, before any response is delivered.
    ///
    /// On a WAL failure the transaction's [`DurabilityPolicy`] decides:
    /// `Degrade` keeps the acknowledgements (counted non-durable; the
    /// latched error stays loud via
    /// [`SchedulerSession::take_wal_error`]); `Reject` retries the
    /// fsync, then takes the transaction back — its effect lists undone
    /// off the books last first, the journal rewound to the mark — and
    /// returns the typed error.
    fn sync_locked(&self, txn: &mut Txn<'_, 'a>) -> Option<PlacementError> {
        if !self.config.durable_acks {
            return None;
        }
        let applied = txn.authority.seq - txn.base_seq;
        let session = &mut txn.authority.session;
        // A failed append latches the error and stops journaling, so a
        // clean latch here means every record of the transaction landed.
        let appended = session.wal_error().is_none();
        session.sync_wal();
        self.note(|st| st.wal_syncs += 1);
        session.wal_error()?;
        self.note(|st| st.wal_faults += 1);
        if let (DurabilityPolicy::Reject, Some(mark)) = (txn.policy, txn.mark) {
            // Retrying the fsync only helps when every append landed;
            // a missing append means the journal cannot be completed,
            // only rewound.
            if appended {
                for _ in 0..self.config.wal_retries {
                    self.note(|st| st.wal_retry_syncs += 1);
                    if session.retry_sync() {
                        return None;
                    }
                }
            }
            let reason = session.wal_error().map_or_else(String::new, ToString::to_string);
            if session.rollback(&mark, &txn.undo_log) {
                self.note(|st| st.durability_rejections += applied);
                return Some(PlacementError::Durability { reason });
            }
            // A snapshot compaction ran mid-transaction, so part of it
            // is already durably in the snapshot — rolling back would
            // contradict durable state. Degrade instead.
        }
        self.note(|st| st.non_durable_acks += applied);
        None
    }

    /// Forces the knobs concurrent planning requires: request-level
    /// parallelism replaces intra-request scoring parallelism (a
    /// scoring pool serves one search at a time). Decisions are
    /// unaffected — parallel and serial scoring are bit-identical.
    fn planning_request(request: &PlacementRequest) -> PlacementRequest {
        let mut req = request.clone();
        req.parallel = false;
        req.score_threads = 1;
        req
    }

    /// Phase 1: plans `topology` against `snapshot` with no lock held.
    /// Safe to call from any number of threads concurrently.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::place`] — note the failure is relative to the
    /// snapshot's books, which may be stale;
    /// [`place_blocking`](Self::place_blocking) re-plans such failures
    /// against fresh state before rejecting.
    pub fn plan(
        &self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
        snapshot: &Arc<PlanSnapshot>,
    ) -> Result<PlannedPlacement, PlacementError> {
        self.plan_against(topology, request, &snapshot.state, &snapshot.shared, snapshot)
    }

    /// Runs one search (the plan hook first) with panics contained:
    /// every lock on the shared path is taken through
    /// `lock_unpoisoned`, so a panicking search (or hook) is surfaced
    /// as a typed per-request error instead of poisoning the service.
    fn contained(
        &self,
        topology: &ApplicationTopology,
        search: impl FnOnce() -> Result<PlacementOutcome, PlacementError>,
    ) -> Result<PlacementOutcome, PlacementError> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &self.plan_hook {
                hook.call(topology);
            }
            search()
        }));
        result.unwrap_or_else(|payload| {
            self.note(|st| st.planner_panics += 1);
            Err(PlacementError::PlannerPanic { reason: panic_reason(payload.as_ref()) })
        })
    }

    /// Plans against arbitrary (`state`, `shared`) books — the
    /// snapshot's own, or a batch's speculative view — stamping the
    /// result with `origin` for the staleness check.
    fn plan_against(
        &self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
        state: &CapacityState,
        shared: &SessionShared,
        origin: &Arc<PlanSnapshot>,
    ) -> Result<PlannedPlacement, PlacementError> {
        let req = Self::planning_request(request);
        let outcome = self.contained(topology, || {
            Scheduler::new(self.infra).place_pinned_with(
                topology,
                state,
                &req,
                &vec![None; topology.node_count()],
                Some(shared),
            )
        })?;
        if outcome.stats.pods_scanned != 0 || outcome.stats.shard_fallbacks != 0 {
            let (scanned, pruned, fallbacks) = (
                outcome.stats.pods_scanned,
                outcome.stats.pods_pruned,
                outcome.stats.shard_fallbacks,
            );
            self.note(|st| {
                st.pods_scanned += scanned;
                st.pods_pruned += pruned;
                st.shard_fallbacks += fallbacks;
            });
        }
        let hosts = distinct_hosts(&outcome.placement);
        Ok(PlannedPlacement { outcome, snapshot: Arc::clone(origin), hosts })
    }

    /// Validate-commit inside an open transaction: the session's
    /// all-or-nothing commit applies the decision against the live
    /// books. A failure against books that moved since the plan's
    /// snapshot is a conflict; against unmoved books it is a genuine
    /// error.
    fn validate_commit(
        txn: &mut Txn<'_, 'a>,
        topology: &ApplicationTopology,
        planned: &PlannedPlacement,
    ) -> Result<Validated, PlacementError> {
        let stale = txn.authority.stale_host(planned);
        match txn.commit(topology, &planned.outcome.placement) {
            Ok(seq) => Ok(Validated::Committed { seq, stale: stale.is_some() }),
            Err(e) => match stale.or(planned.hosts.first().copied()) {
                Some(host) if txn.authority.seq != planned.snapshot.seq => {
                    Ok(Validated::Conflict { host })
                }
                _ => Err(e),
            },
        }
    }

    /// Phase 2: commits `planned` if the live books still admit it —
    /// taking the commit lock, publishing a fresh snapshot, and (with
    /// [`ServiceConfig::durable_acks`]) fsyncing the WAL before
    /// returning.
    ///
    /// # Errors
    ///
    /// As [`SchedulerSession::commit`], only when the snapshot was
    /// still current (stale-snapshot commit failures surface as
    /// [`CommitAttempt::Conflict`]); [`PlacementError::Durability`] if
    /// the rejecting durability policy rolled the commit back.
    pub fn try_commit(
        &self,
        topology: &ApplicationTopology,
        planned: &PlannedPlacement,
    ) -> Result<CommitAttempt, PlacementError> {
        let (validated, durability) =
            self.write(self.config.wal_policy, |txn| Self::validate_commit(txn, topology, planned));
        match validated? {
            Validated::Committed { seq, stale } => {
                if let Some(err) = durability {
                    return Err(err);
                }
                self.note(|st| {
                    st.committed += 1;
                    st.stale_admissions += u64::from(stale);
                });
                Ok(CommitAttempt::Committed(ServiceOutcome {
                    seq,
                    outcome: planned.outcome.clone(),
                }))
            }
            Validated::Conflict { host } => {
                self.note(|st| st.commit_conflicts += 1);
                Ok(CommitAttempt::Conflict { host })
            }
        }
    }

    /// Last resort after the retry budget: plan *under* the commit
    /// lock, warm against the live session, where no concurrent commit
    /// can invalidate the decision.
    fn commit_serialized(
        &self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
        conflicts: u64,
        replans: u64,
    ) -> Result<ServiceOutcome, PlacementError> {
        let req = Self::planning_request(request);
        self.note(|st| st.serialized_fallbacks += 1);
        let (result, durability) = self.write(self.config.wal_policy, |txn| {
            // A sticky panic must yield a typed error here too, or it
            // would sneak through the fallback.
            let planned = self.contained(topology, || txn.authority.session.place(topology, &req));
            planned.and_then(|outcome| {
                txn.commit(topology, &outcome.placement).map(|seq| (seq, outcome))
            })
        });
        match result {
            Ok((seq, mut outcome)) => {
                if let Some(err) = durability {
                    return Err(err);
                }
                self.note(|st| st.committed += 1);
                outcome.stats.commit_conflicts = conflicts;
                outcome.stats.replans = replans;
                Ok(ServiceOutcome { seq, outcome })
            }
            Err(e) => {
                self.note(|st| st.rejected += 1);
                Err(e)
            }
        }
    }

    /// The full optimistic loop from a given starting snapshot:
    /// plan → validate-commit → re-plan on conflict (bounded) →
    /// serialized fallback. `conflicts`/`replans` carry counts from
    /// attempts the caller already burned (the batch path).
    fn place_from(
        &self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
        mut snapshot: Arc<PlanSnapshot>,
        mut conflicts: u64,
        mut replans: u64,
    ) -> Result<ServiceOutcome, PlacementError> {
        loop {
            if replans > u64::from(self.config.max_retries) {
                return self.commit_serialized(topology, request, conflicts, replans);
            }
            let planned = match self.plan(topology, request, &snapshot) {
                Ok(p) => p,
                Err(e) => {
                    // A plan failure against *current* books is a
                    // genuine rejection; against stale books it gets a
                    // retry like any other loser.
                    if self.seq() == snapshot.seq {
                        self.note(|st| st.rejected += 1);
                        return Err(e);
                    }
                    replans += 1;
                    self.note(|st| st.replans += 1);
                    snapshot = self.snapshot();
                    continue;
                }
            };
            match self.try_commit(topology, &planned)? {
                CommitAttempt::Committed(mut outcome) => {
                    outcome.outcome.stats.commit_conflicts = conflicts;
                    outcome.outcome.stats.replans = replans;
                    return Ok(outcome);
                }
                CommitAttempt::Conflict { .. } => {
                    conflicts += 1;
                    replans += 1;
                    self.note(|st| st.replans += 1);
                    snapshot = self.snapshot();
                }
            }
        }
    }

    /// Places `topology` through the full optimistic pipeline,
    /// blocking until it commits or is rejected against current books.
    /// Any number of threads may call this concurrently.
    ///
    /// # Errors
    ///
    /// As [`Scheduler::place`], evaluated against current books.
    pub fn place_blocking(
        &self,
        topology: &ApplicationTopology,
        request: &PlacementRequest,
    ) -> Result<ServiceOutcome, PlacementError> {
        let snapshot = self.snapshot();
        self.place_from(topology, request, snapshot, 0, 0)
    }

    /// Releases a committed tenant. Releases never conflict — they are
    /// applied directly under the commit lock and take the next
    /// sequence number.
    ///
    /// # Errors
    ///
    /// As [`SchedulerSession::release`]; [`PlacementError::Durability`]
    /// if the rejecting durability policy rolled the release back.
    pub fn release_blocking(
        &self,
        topology: &ApplicationTopology,
        placement: &Placement,
    ) -> Result<u64, PlacementError> {
        let (seq, durability) =
            self.write(self.config.wal_policy, |txn| txn.release(topology, placement));
        let seq = seq?;
        if let Some(err) = durability {
            return Err(err);
        }
        self.note(|st| st.released += 1);
        Ok(seq)
    }

    /// Runs the batched service front-end: spawns
    /// [`ServiceConfig::planners`] planner threads behind a FIFO
    /// queue, hands `driver` a [`ServiceHandle`] to submit jobs
    /// through, and drains the queue before returning `driver`'s
    /// result. Every submitted ticket is resolved by then.
    pub fn serve<R>(&self, driver: impl FnOnce(&ServiceHandle<'_, 'a>) -> R) -> R {
        let shared = ServeShared {
            queue: Mutex::new(ServeQueue { jobs: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
        };
        let result = std::thread::scope(|scope| {
            for _ in 0..self.config.planners.max(1) {
                scope.spawn(|| self.planner_loop(&shared));
            }
            // Close the queue when the driver returns *or unwinds* —
            // otherwise the planners would wait forever and the scope
            // would never join.
            let _close = CloseGuard(&shared);
            let handle = ServiceHandle { service: self, shared: &shared };
            driver(&handle)
        });
        // Graceful shutdown: the scope joining means every planner
        // drained the queue and exited; one final fsync makes the tail
        // durable even without `durable_acks` (which already synced
        // per batch). Not counted as a group-commit sync.
        lock_unpoisoned(&self.authority).session.sync_wal();
        result
    }

    fn planner_loop(&self, shared: &ServeShared) {
        loop {
            let (batch, depth): (Vec<Job>, usize) = {
                let mut queue = lock_unpoisoned(&shared.queue);
                loop {
                    if !queue.jobs.is_empty() {
                        break;
                    }
                    if queue.closed {
                        return;
                    }
                    queue = match shared.cv.wait(queue) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
                let depth = queue.jobs.len();
                let take = depth.min(self.config.batch.max(1));
                (queue.jobs.drain(..take).collect(), depth)
            };
            self.update_degrade(depth);
            // Safety net under the whole batch: planning panics are
            // already contained in `plan_against`, but nothing that
            // panics may strand a ticket — the driver would hang on it
            // forever. Tickets the batch resolved keep their response;
            // the rest get the typed panic error.
            let tickets: Vec<Arc<TicketInner>> = batch.iter().map(Job::ticket).collect();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| self.process_batch(batch))) {
                let reason = panic_reason(payload.as_ref());
                self.note(|st| st.planner_panics += 1);
                for ticket in &tickets {
                    deliver_if_empty(
                        ticket,
                        ServiceResponse::Failed(PlacementError::PlannerPanic {
                            reason: reason.clone(),
                        }),
                    );
                }
            }
        }
    }

    /// One admission batch: plan every member against a single
    /// snapshot, commit them under one lock acquisition (one snapshot
    /// publication, one group-commit fsync), then push the losers
    /// through the individual retry path.
    fn process_batch(&self, batch: Vec<Job>) {
        self.note(|st| {
            st.batches += 1;
            if st.batch_sizes.len() <= batch.len() {
                st.batch_sizes.resize(batch.len() + 1, 0);
            }
            st.batch_sizes[batch.len()] += 1;
        });
        let snapshot = self.snapshot();

        // Phase 1: plan all arrivals with no lock held. Multi-member
        // batches plan against a speculative view of the snapshot:
        // each member's decision (place or release) is applied
        // virtually before the next member plans, so members stop
        // colliding with each other inside the batch. A later member
        // landing on an earlier one's hosts is stale by the time it
        // commits (those hosts are in the dirty journal), which the
        // live-books commit handles like any other staleness.
        // (A batch holds at most `config.batch` of these, briefly.)
        #[allow(clippy::large_enum_variant)]
        enum Member {
            Place {
                topology: Arc<ApplicationTopology>,
                request: PlacementRequest,
                ticket: Arc<TicketInner>,
                plan: Result<PlannedPlacement, PlacementError>,
                degraded: bool,
            },
            Release {
                topology: Arc<ApplicationTopology>,
                placement: Placement,
                ticket: Arc<TicketInner>,
            },
        }
        let level = self.degrade_level.load(Ordering::Relaxed);
        let mut view = (batch.len() > 1).then(|| BatchView::of(&snapshot));
        let scheduler = Scheduler::new(self.infra);
        let mut shed_deadline = 0u64;
        let mut degraded_decisions = 0u64;
        let mut members: Vec<Member> = Vec::new();
        for job in batch {
            match job {
                Job::Place { topology, request, ticket, stamp } => {
                    // Deadline shed: a request whose budget was already
                    // burned waiting in the queue gets a typed error
                    // *before* any planning work is spent on it.
                    let budget_ms = self.config.deadline_ms;
                    if budget_ms > 0 && self.budget_elapsed_ms(stamp) >= budget_ms {
                        shed_deadline += 1;
                        deliver(
                            &ticket,
                            ServiceResponse::Failed(PlacementError::DeadlineExceeded { budget_ms }),
                        );
                        continue;
                    }
                    // Engine-ladder degradation: under overload the
                    // request plans with a cheaper search than it asked
                    // for, flagged in its stats.
                    let (request, degraded) = match self.degraded_request(&request, level) {
                        Some(down) => {
                            degraded_decisions += 1;
                            (down, true)
                        }
                        None => (request, false),
                    };
                    let mut plan = match view.as_mut() {
                        Some(view) => {
                            let plan = self.plan_against(
                                &topology,
                                &request,
                                &view.state,
                                &view.shared,
                                &snapshot,
                            );
                            if let Ok(planned) = &plan {
                                view.commit(scheduler, &topology, planned);
                            }
                            plan
                        }
                        None => self.plan(&topology, &request, &snapshot),
                    };
                    if degraded {
                        if let Ok(planned) = &mut plan {
                            planned.outcome.stats.degraded = true;
                        }
                    }
                    members.push(Member::Place { topology, request, ticket, plan, degraded });
                }
                Job::Release { topology, placement, ticket } => {
                    if let Some(view) = view.as_mut() {
                        view.release(scheduler, &topology, &placement);
                    }
                    members.push(Member::Release { topology, placement, ticket });
                }
            }
        }
        if shed_deadline > 0 || degraded_decisions > 0 {
            self.note(|st| {
                st.shed_deadline += shed_deadline;
                st.degraded_decisions += degraded_decisions;
            });
        }

        // Phase 2: one write transaction for the whole batch.
        let mut acks: Vec<(Arc<TicketInner>, ServiceResponse)> = Vec::new();
        #[allow(clippy::type_complexity)]
        let mut losers: Vec<(
            Arc<ApplicationTopology>,
            PlacementRequest,
            Arc<TicketInner>,
            u64,
            bool,
        )> = Vec::new();
        let mut committed = 0u64;
        let mut released = 0u64;
        let mut rejected = 0u64;
        let mut conflicts = 0u64;
        let mut stale = 0u64;
        let ((), durability) = self.write(self.config.wal_policy, |txn| {
            for member in members {
                match member {
                    Member::Release { topology, placement, ticket } => {
                        match txn.release(&topology, &placement) {
                            Ok(seq) => {
                                released += 1;
                                acks.push((ticket, ServiceResponse::Released { seq }));
                            }
                            Err(e) => {
                                rejected += 1;
                                acks.push((ticket, ServiceResponse::Failed(e)));
                            }
                        }
                    }
                    Member::Place { topology, request, ticket, plan, degraded } => match plan {
                        Ok(planned) => match Self::validate_commit(txn, &topology, &planned) {
                            Ok(Validated::Committed { seq, stale: was_stale }) => {
                                stale += u64::from(was_stale);
                                committed += 1;
                                let mut outcome = planned.outcome;
                                outcome.stats.commit_conflicts = 0;
                                outcome.stats.replans = 0;
                                acks.push((
                                    ticket,
                                    ServiceResponse::Placed(ServiceOutcome { seq, outcome }),
                                ));
                            }
                            Ok(Validated::Conflict { .. }) => {
                                conflicts += 1;
                                losers.push((topology, request, ticket, 1, degraded));
                            }
                            Err(e) => {
                                rejected += 1;
                                acks.push((ticket, ServiceResponse::Failed(e)));
                            }
                        },
                        Err(e) => {
                            if txn.authority.seq == snapshot.seq {
                                rejected += 1;
                                acks.push((ticket, ServiceResponse::Failed(e)));
                            } else {
                                losers.push((topology, request, ticket, 0, degraded));
                            }
                        }
                    },
                }
            }
        });
        if let Some(err) = &durability {
            // The batch's mutations were rolled back — convert every
            // would-be ack into the typed durability rejection.
            for (_, response) in &mut acks {
                if matches!(response, ServiceResponse::Placed(_) | ServiceResponse::Released { .. })
                {
                    *response = ServiceResponse::Failed(err.clone());
                }
            }
            committed = 0;
            released = 0;
            stale = 0;
        }
        self.note(|st| {
            st.committed += committed;
            st.released += released;
            st.rejected += rejected;
            st.commit_conflicts += conflicts;
            st.stale_admissions += stale;
            // Every conflict loser re-plans in phase 4; count those
            // re-plans here so the global counter matches the sum of
            // the per-request `stats.replans` the losers will report.
            st.replans += conflicts;
        });

        // Phase 3: responses — after the group-commit fsync, so a
        // delivered `Placed` is durable.
        for (ticket, response) in acks {
            deliver(&ticket, response);
        }

        // Phase 4: losers re-plan individually against fresh snapshots.
        // A loser that planned degraded re-plans with the same degraded
        // request, so the flag stays truthful on its final outcome.
        for (topology, request, ticket, burned, degraded) in losers {
            let response =
                match self.place_from(&topology, &request, self.snapshot(), burned, burned) {
                    Ok(mut outcome) => {
                        if degraded {
                            outcome.outcome.stats.degraded = true;
                        }
                        ServiceResponse::Placed(outcome)
                    }
                    Err(e) => ServiceResponse::Failed(e),
                };
            deliver(&ticket, response);
        }
    }
}

// ---------------------------------------------------------------------------
// The batched front-end: queue, jobs, tickets
// ---------------------------------------------------------------------------

struct ServeQueue {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct ServeShared {
    queue: Mutex<ServeQueue>,
    cv: Condvar,
}

/// Closes the queue on drop so planners drain and exit even when the
/// driver unwinds.
struct CloseGuard<'s>(&'s ServeShared);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.0.queue).closed = true;
        self.0.cv.notify_all();
    }
}

enum Job {
    Place {
        topology: Arc<ApplicationTopology>,
        request: PlacementRequest,
        ticket: Arc<TicketInner>,
        /// When the request was admitted — the deadline budget counts
        /// from here, so queue wait burns it down.
        stamp: BudgetStamp,
    },
    Release {
        topology: Arc<ApplicationTopology>,
        placement: Placement,
        ticket: Arc<TicketInner>,
    },
}

impl Job {
    fn ticket(&self) -> Arc<TicketInner> {
        match self {
            Job::Place { ticket, .. } | Job::Release { ticket, .. } => Arc::clone(ticket),
        }
    }
}

/// The driver's side of a running [`PlacementService::serve`] call:
/// submit jobs, get [`Ticket`]s back.
#[derive(Clone, Copy)]
pub struct ServiceHandle<'s, 'a> {
    service: &'s PlacementService<'a>,
    shared: &'s ServeShared,
}

impl<'s, 'a> ServiceHandle<'s, 'a> {
    /// The service behind this handle.
    #[must_use]
    pub fn service(&self) -> &'s PlacementService<'a> {
        self.service
    }

    /// Enqueues a placement request; the returned ticket resolves to
    /// [`ServiceResponse::Placed`] or [`ServiceResponse::Failed`] —
    /// immediately with [`PlacementError::QueueFull`] when admission
    /// control sheds it.
    pub fn submit(&self, topology: Arc<ApplicationTopology>, request: PlacementRequest) -> Ticket {
        let ticket = Arc::new(TicketInner::default());
        let stamp = self.service.stamp();
        self.push(Job::Place { topology, request, ticket: Arc::clone(&ticket), stamp });
        Ticket(ticket)
    }

    /// Enqueues a release; the returned ticket resolves to
    /// [`ServiceResponse::Released`] or [`ServiceResponse::Failed`].
    pub fn submit_release(
        &self,
        topology: Arc<ApplicationTopology>,
        placement: Placement,
    ) -> Ticket {
        let ticket = Arc::new(TicketInner::default());
        self.push(Job::Release { topology, placement, ticket: Arc::clone(&ticket) });
        Ticket(ticket)
    }

    /// Runs one maintenance tick with the *live* ingress queue depth
    /// as the yield signal — the `serve --maintain` entry point. The
    /// driver interleaves these with submissions; sweeps automatically
    /// back off whenever the queue it shares with placements deepens.
    pub fn maintain(
        &self,
        plane: &mut MaintenancePlane,
        ledger: &mut Vec<TenantRecord>,
        tick: u64,
    ) -> MaintenanceTick {
        let depth = lock_unpoisoned(&self.shared.queue).jobs.len();
        self.service.maintain(plane, ledger, tick, depth)
    }

    fn push(&self, job: Job) {
        let limit = self.service.config.queue_depth;
        let mut queue = lock_unpoisoned(&self.shared.queue);
        if limit > 0 && queue.jobs.len() >= limit {
            // Admission control: placements are shed with a typed
            // rejection; releases are always admitted — shedding a
            // release would leak the capacity it returns.
            if let Job::Place { ticket, .. } = &job {
                let depth = queue.jobs.len();
                drop(queue);
                self.service.note(|st| st.shed_queue_full += 1);
                deliver(ticket, ServiceResponse::Failed(PlacementError::QueueFull { depth }));
                return;
            }
        }
        queue.jobs.push_back(job);
        self.shared.cv.notify_one();
    }
}

/// What a [`Ticket`] resolves to.
///
/// The `Placed` payload dwarfs the other variants, but a response is
/// constructed once and moved straight into its ticket slot — never
/// stored in bulk — so boxing would only add an allocation per commit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ServiceResponse {
    /// The placement committed (durably, with [`ServiceConfig::durable_acks`]).
    Placed(ServiceOutcome),
    /// The release applied at commit sequence `seq`.
    Released {
        /// The release's position in the commit order.
        seq: u64,
    },
    /// The request was rejected against current books.
    Failed(PlacementError),
}

#[derive(Default)]
struct TicketInner {
    slot: Mutex<Option<(ServiceResponse, Instant)>>,
    cv: Condvar,
}

fn deliver(ticket: &TicketInner, response: ServiceResponse) {
    *lock_unpoisoned(&ticket.slot) = Some((response, Instant::now()));
    ticket.cv.notify_all();
}

/// Delivers only if the ticket is still unresolved — the panic safety
/// net must not overwrite a response the batch already produced.
fn deliver_if_empty(ticket: &TicketInner, response: ServiceResponse) {
    let mut slot = lock_unpoisoned(&ticket.slot);
    if slot.is_none() {
        *slot = Some((response, Instant::now()));
        ticket.cv.notify_all();
    }
}

/// A pending response from [`ServiceHandle::submit`] /
/// [`ServiceHandle::submit_release`].
pub struct Ticket(Arc<TicketInner>);

impl Ticket {
    /// Blocks until the job resolves.
    #[must_use]
    pub fn wait(self) -> ServiceResponse {
        self.wait_timed().0
    }

    /// Like [`wait`](Self::wait), also returning the instant the
    /// response was *delivered* (not observed) — what latency
    /// percentiles should measure when tickets are drained late.
    #[must_use]
    pub fn wait_timed(self) -> (ServiceResponse, Instant) {
        let mut slot = lock_unpoisoned(&self.0.slot);
        loop {
            if let Some(resolved) = slot.take() {
                return resolved;
            }
            slot = match self.0.cv.wait(slot) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Algorithm;
    use crate::validate::verify_placement;
    use crate::wal::{self, Wal, WalFault, WalFaultHook, WalIoOp, WalOptions};
    use ostro_datacenter::InfrastructureBuilder;
    use ostro_model::{Bandwidth, Resources, TopologyBuilder};
    use std::time::Duration;

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

    fn pair_app(name: &str, vcpus: u32) -> ApplicationTopology {
        let mut b = TopologyBuilder::new(name);
        let x = b.vm("x", vcpus, 2_048).unwrap();
        let y = b.vm("y", vcpus, 2_048).unwrap();
        b.link(x, y, Bandwidth::from_mbps(150)).unwrap();
        b.build().unwrap()
    }

    fn hub_app(name: &str) -> ApplicationTopology {
        let mut b = TopologyBuilder::new(name);
        let hub = b.vm("hub", 4, 8_192).unwrap();
        for i in 0..3 {
            let w = b.vm(format!("w{i}"), 2, 2_048).unwrap();
            b.link(hub, w, Bandwidth::from_mbps(100 + 50 * i as u64)).unwrap();
        }
        b.build().unwrap()
    }

    fn request() -> PlacementRequest {
        PlacementRequest { algorithm: Algorithm::Greedy, ..PlacementRequest::default() }
    }

    /// Replays committed decisions in commit-sequence order over the
    /// base state, verifying each was feasible at its commit point,
    /// and asserts the fold equals `final_state` — the service's
    /// linearizability contract.
    fn assert_linearizable(
        infra: &Infrastructure,
        base: &CapacityState,
        mut events: Vec<(u64, ApplicationTopology, Option<Placement>)>,
        final_state: &CapacityState,
    ) {
        events.sort_by_key(|(seq, _, _)| *seq);
        let scheduler = Scheduler::new(infra);
        let mut state = base.clone();
        let mut last_seq = 0;
        for (seq, topology, placement) in &events {
            assert!(*seq > last_seq, "commit sequence numbers must be strictly increasing");
            last_seq = *seq;
            match placement {
                Some(p) => {
                    let violations = verify_placement(topology, infra, &state, p).unwrap();
                    assert!(
                        violations.is_empty(),
                        "decision at seq {seq} infeasible at its commit point: {violations:?}"
                    );
                    scheduler.commit(topology, p, &mut state).unwrap();
                }
                None => {
                    // A release event: placement is carried in the
                    // topology slot's paired entry; handled by caller.
                    unreachable!("release events carry placements");
                }
            }
        }
        assert_eq!(&state, final_state, "serial replay in commit order diverged from the books");
    }

    /// With one planner and batch size 1 the service path must be
    /// decision-identical to the serial warm session.
    #[test]
    fn single_planner_service_matches_serial_session() {
        let infra = infra_flat(2, 4);
        let shapes = [hub_app("a"), pair_app("b", 2), hub_app("c"), pair_app("d", 4), hub_app("e")];
        let req = request();

        // Serial warm session, with the same forced planning knobs.
        let serial_req = PlacementService::planning_request(&req);
        let mut session = SchedulerSession::new(&infra);
        let mut serial: Vec<Placement> = Vec::new();
        for shape in &shapes {
            let outcome = session.place(shape, &serial_req).unwrap();
            session.commit(shape, &outcome.placement).unwrap();
            serial.push(outcome.placement);
        }
        session.release(&shapes[1], &serial[1]).unwrap();
        let outcome = session.place(&shapes[1], &serial_req).unwrap();
        session.commit(&shapes[1], &outcome.placement).unwrap();
        let serial_replaced = outcome.placement.clone();
        let serial_state = session.into_state();

        // The same schedule through the service pipeline.
        let config = ServiceConfig { planners: 1, batch: 1, ..ServiceConfig::default() };
        let service = PlacementService::new(SchedulerSession::new(&infra), config);
        let mut placed: Vec<Placement> = Vec::new();
        for shape in &shapes {
            let outcome = service.place_blocking(shape, &req).unwrap();
            assert_eq!(outcome.outcome.stats.commit_conflicts, 0);
            placed.push(outcome.outcome.placement.clone());
        }
        service.release_blocking(&shapes[1], &placed[1]).unwrap();
        let replaced = service.place_blocking(&shapes[1], &req).unwrap();

        assert_eq!(placed, serial, "service decisions diverged from serial session");
        assert_eq!(replaced.outcome.placement, serial_replaced);
        assert_eq!(service.into_session().into_state(), serial_state);
    }

    /// The linearizability property: N concurrent requests committed
    /// through the service produce books identical to a serial replay
    /// of the committed decisions in commit-sequence order, each
    /// feasible at its commit point.
    #[test]
    fn concurrent_commits_linearize() {
        let infra = infra_flat(4, 8);
        let base = CapacityState::new(&infra);
        let req = request();
        let shapes: Vec<Arc<ApplicationTopology>> = (0..4)
            .map(|i| {
                Arc::new(if i % 2 == 0 {
                    hub_app(&format!("hub{i}"))
                } else {
                    pair_app(&format!("pair{i}"), 2 + i as u32)
                })
            })
            .collect();
        let config =
            ServiceConfig { planners: 4, batch: 2, max_retries: 2, ..ServiceConfig::default() };
        let service =
            PlacementService::new(SchedulerSession::with_state(&infra, base.clone()), config);

        let arrivals = 24usize;
        let responses: Vec<(usize, ServiceResponse)> = service.serve(|handle| {
            let tickets: Vec<(usize, Ticket)> = (0..arrivals)
                .map(|i| (i, handle.submit(Arc::clone(&shapes[i % shapes.len()]), req.clone())))
                .collect();
            tickets.into_iter().map(|(i, t)| (i, t.wait())).collect()
        });

        let mut events: Vec<(u64, ApplicationTopology, Option<Placement>)> = Vec::new();
        let mut committed = 0;
        for (i, response) in responses {
            match response {
                ServiceResponse::Placed(outcome) => {
                    committed += 1;
                    events.push((
                        outcome.seq,
                        (*shapes[i % shapes.len()]).clone(),
                        Some(outcome.outcome.placement),
                    ));
                }
                ServiceResponse::Failed(_) => {}
                ServiceResponse::Released { .. } => panic!("no releases submitted"),
            }
        }
        assert!(committed >= arrivals / 2, "too many rejections: {committed}/{arrivals}");
        let final_state = service.into_session().into_state();
        assert_linearizable(&infra, &base, events, &final_state);
    }

    /// A deterministic forced conflict: plan against a snapshot, let a
    /// competing commit consume the planned hosts (9-vcpu VMs cannot
    /// share a 16-vcpu host, so two identical pairs cannot both land on
    /// the first two hosts), and watch the live-books commit reject the
    /// stale plan; then run the full retry loop from the same stale
    /// snapshot and watch it re-plan once onto the free hosts and
    /// commit.
    #[test]
    fn forced_conflict_is_detected_and_retried() {
        let infra = infra_flat(1, 4);
        let req = request();
        let service =
            PlacementService::new(SchedulerSession::new(&infra), ServiceConfig::default());

        // Plan A against the initial snapshot, then commit B — the same
        // shape against the same books, hence the same two hosts.
        let stale = service.snapshot();
        let app_a = pair_app("a", 9);
        let planned = service.plan(&app_a, &req, &stale).unwrap();
        let app_b = pair_app("b", 9);
        let winner = service.place_blocking(&app_b, &req).unwrap();
        assert_eq!(winner.outcome.placement, planned.outcome().placement);

        match service.try_commit(&app_a, &planned).unwrap() {
            CommitAttempt::Conflict { host } => {
                assert!(planned.hosts().contains(&host), "conflict must name a planned host");
            }
            CommitAttempt::Committed(_) => panic!("stale plan passed validation"),
        }
        assert_eq!(service.stats().commit_conflicts, 1);

        // The loop from the same stale snapshot: one conflict, one
        // re-plan, then commit.
        let outcome = service.place_from(&app_a, &req, stale, 0, 0).unwrap();
        assert_eq!(outcome.outcome.stats.commit_conflicts, 1);
        assert_eq!(outcome.outcome.stats.replans, 1);
        let stats = service.stats();
        assert_eq!(stats.commit_conflicts, 2);
        assert_eq!(stats.replans, 1);
        assert_eq!(stats.serialized_fallbacks, 0);
        assert_eq!(stats.stale_admissions, 0);
        assert_eq!(stats.committed, 2);
    }

    /// With a zero retry budget a conflicted request goes straight to
    /// the serialized fallback — and still commits.
    #[test]
    fn exhausted_retry_budget_falls_back_to_serialized_planning() {
        let infra = infra_flat(1, 4);
        let req = request();
        let config = ServiceConfig { max_retries: 0, ..ServiceConfig::default() };
        let service = PlacementService::new(SchedulerSession::new(&infra), config);

        let stale = service.snapshot();
        service.place_blocking(&pair_app("winner", 9), &req).unwrap();
        let outcome = service.place_from(&pair_app("loser", 9), &req, stale, 0, 0).unwrap();
        assert_eq!(outcome.outcome.stats.commit_conflicts, 1);
        let stats = service.stats();
        assert_eq!(stats.serialized_fallbacks, 1);
        assert_eq!(stats.committed, 2);
    }

    /// In-batch staleness: two members of one batch land on the same
    /// host (the second plans around the first on the batch's
    /// speculative books and packs next to it). Both commit under one
    /// lock acquisition, so when the second validates, that host is
    /// still in the session's dirty journal — no refresh has run — and
    /// it counts as a stale admission without a conflict or re-plan,
    /// with the histogram recording the batch size.
    #[test]
    fn in_batch_member_on_a_touched_host_commits_stale() {
        let infra = infra_flat(1, 2);
        let req = request();
        let config = ServiceConfig { planners: 1, batch: 4, ..ServiceConfig::default() };
        let service = PlacementService::new(SchedulerSession::new(&infra), config);

        let a = Arc::new(pair_app("a", 2));
        let b = Arc::new(pair_app("b", 2));
        let ta = Arc::new(TicketInner::default());
        let tb = Arc::new(TicketInner::default());
        service.process_batch(vec![
            Job::Place {
                topology: Arc::clone(&a),
                request: req.clone(),
                ticket: Arc::clone(&ta),
                stamp: BudgetStamp::Wall(Instant::now()),
            },
            Job::Place {
                topology: Arc::clone(&b),
                request: req.clone(),
                ticket: Arc::clone(&tb),
                stamp: BudgetStamp::Wall(Instant::now()),
            },
        ]);
        let hosts_of = |response: ServiceResponse| match response {
            ServiceResponse::Placed(outcome) => distinct_hosts(&outcome.outcome.placement),
            other => panic!("both members must commit: {other:?}"),
        };
        let (ha, hb) = (hosts_of(Ticket(ta).wait()), hosts_of(Ticket(tb).wait()));
        assert!(hb.iter().any(|h| ha.contains(h)), "members must share a host: {ha:?} {hb:?}");
        let stats = service.stats();
        assert_eq!(stats.stale_admissions, 1, "the second member's host was journaled dirty");
        assert_eq!(stats.commit_conflicts, 0);
        assert_eq!(stats.replans, 0);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_sizes, vec![0, 0, 1]);
        assert_eq!(stats.committed, 2);
    }

    /// The batch's speculative books stay a faithful mirror: after k
    /// virtual commits and releases, the view's table columns and pod
    /// digests equal a mirror built from scratch over the view's state.
    #[test]
    fn batch_view_mirror_matches_fresh_rebuild_after_virtual_churn() {
        let infra = infra_flat(2, 4);
        let req = request();
        let service =
            PlacementService::new(SchedulerSession::new(&infra), ServiceConfig::default());
        // Start from non-idle books so the view clones real rows.
        service.place_blocking(&hub_app("resident"), &req).unwrap();
        let snapshot = service.snapshot();
        let scheduler = Scheduler::new(&infra);
        let mut view = BatchView::of(&snapshot);
        let mut members: Vec<(ApplicationTopology, Placement)> = Vec::new();
        for k in 0..6u32 {
            let app = if k % 2 == 0 { hub_app("h") } else { pair_app("p", 2 + k) };
            let planned =
                service.plan_against(&app, &req, &view.state, &view.shared, &snapshot).unwrap();
            view.commit(scheduler, &app, &planned);
            view.shared.assert_mirrors(&infra, &view.state, &format!("virtual commit {k}"));
            members.push((app, planned.outcome.placement));
            if k % 3 == 2 {
                let (app, placement) = members.remove(0);
                view.release(scheduler, &app, &placement);
                view.shared.assert_mirrors(&infra, &view.state, &format!("virtual release {k}"));
            }
        }
        assert_ne!(view.state, snapshot.state, "the view must have diverged from its snapshot");
    }

    /// Stale admission end-to-end: a plan whose snapshot went stale
    /// commits without re-planning when the live books still admit it.
    #[test]
    fn stale_plan_admitted_when_books_still_fit() {
        let infra = infra_flat(1, 2);
        let req = request();
        let service =
            PlacementService::new(SchedulerSession::new(&infra), ServiceConfig::default());

        let stale = service.snapshot();
        let app_a = pair_app("a", 2);
        let planned = service.plan(&app_a, &req, &stale).unwrap();
        service.place_blocking(&pair_app("b", 2), &req).unwrap();

        match service.try_commit(&app_a, &planned).unwrap() {
            CommitAttempt::Committed(outcome) => assert_eq!(outcome.seq, 2),
            CommitAttempt::Conflict { .. } => panic!("books still fit — must admit stale plan"),
        }
        let stats = service.stats();
        assert_eq!(stats.stale_admissions, 1);
        assert_eq!(stats.commit_conflicts, 0);
        assert_eq!(stats.committed, 2);
    }

    /// Stale admission still conflicts when the racing commit actually
    /// consumed the capacity the plan relied on — and the retry loop
    /// then rejects against current books if nothing fits.
    #[test]
    fn stale_plan_conflicts_when_capacity_moved() {
        // 9-vcpu VMs cannot co-locate on a 16-vcpu host, so each pair
        // spreads 9+9 across both hosts; after one commits, the other
        // genuinely no longer fits anywhere.
        let infra = infra_flat(1, 2);
        let req = request();
        let service =
            PlacementService::new(SchedulerSession::new(&infra), ServiceConfig::default());

        let stale = service.snapshot();
        let loser = pair_app("loser", 9);
        service.place_blocking(&pair_app("winner", 9), &req).unwrap();
        let err = service.place_from(&loser, &req, stale, 0, 0).unwrap_err();
        let _ = err;
        let stats = service.stats();
        assert_eq!(stats.commit_conflicts, 1, "stale commit against full books must conflict");
        assert_eq!(stats.replans, 1);
        assert_eq!(stats.rejected, 1, "re-plan against current books finds nothing");
        assert_eq!(stats.stale_admissions, 0);
        assert_eq!(stats.committed, 1);
    }

    /// Group commit keeps acknowledged commits durable: everything the
    /// service acknowledged is recoverable from the WAL alone after an
    /// abrupt stop (no checkpoint, no graceful shutdown).
    #[test]
    fn acknowledged_commits_survive_a_crash() {
        let dir = std::env::temp_dir().join(format!("ostro-service-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let infra = infra_flat(2, 4);
        let req = request();
        let (journal, _recovery) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(journal);
        let service = PlacementService::new(session, ServiceConfig::default());

        let shapes = [hub_app("a"), pair_app("b", 2), hub_app("c")];
        let mut placed = Vec::new();
        for shape in &shapes {
            placed.push(service.place_blocking(shape, &req).unwrap());
        }
        service.release_blocking(&shapes[1], &placed[1].outcome.placement).unwrap();
        let live = service.into_session().into_state();

        // "Crash": the Wal is simply dropped with the session — no
        // checkpoint. Recovery must reproduce every acknowledged
        // mutation.
        let recovered = wal::recover(&dir, &infra).unwrap();
        assert_eq!(recovered.state, live, "recovered books diverged from acknowledged commits");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sanity for the serve front-end: arrivals and departures mixed
    /// through the queue, every ticket resolves, and the books balance
    /// back to base after all tenants depart. Exercised at 1, 2, and 4
    /// planners so both the serial and the contended paths are covered.
    #[test]
    fn serve_roundtrip_releases_everything() {
        for planners in [1usize, 2, 4] {
            let infra = infra_flat(2, 4);
            let base = CapacityState::new(&infra);
            let req = request();
            let config = ServiceConfig { planners, batch: 3, ..ServiceConfig::default() };
            let service =
                PlacementService::new(SchedulerSession::with_state(&infra, base.clone()), config);
            let shapes: Vec<Arc<ApplicationTopology>> =
                (0..3).map(|i| Arc::new(pair_app(&format!("t{i}"), 2))).collect();

            service.serve(|handle| {
                let tickets: Vec<(usize, Ticket)> = (0..6)
                    .map(|i| (i % 3, handle.submit(Arc::clone(&shapes[i % 3]), req.clone())))
                    .collect();
                let mut live = Vec::new();
                for (shape, ticket) in tickets {
                    match ticket.wait() {
                        ServiceResponse::Placed(outcome) => {
                            live.push((shape, outcome.outcome.placement))
                        }
                        ServiceResponse::Failed(e) => {
                            panic!("placement failed at {planners} planners: {e}")
                        }
                        ServiceResponse::Released { .. } => unreachable!(),
                    }
                }
                let releases: Vec<Ticket> = live
                    .into_iter()
                    .map(|(shape, placement)| {
                        handle.submit_release(Arc::clone(&shapes[shape]), placement)
                    })
                    .collect();
                for ticket in releases {
                    assert!(matches!(ticket.wait(), ServiceResponse::Released { .. }));
                }
            });
            let stats = service.stats();
            assert_eq!(stats.committed, 6, "at {planners} planners");
            assert_eq!(stats.released, 6, "at {planners} planners");
            assert_eq!(service.into_session().into_state(), base, "at {planners} planners");
        }
    }

    /// Admission control: with a bounded queue and a gated planner, the
    /// overflow submission is shed immediately with the typed
    /// queue-full error while admitted work completes untouched.
    #[test]
    fn bounded_queue_sheds_overflow_with_typed_error() {
        let infra = infra_flat(2, 4);
        let req = request();
        // Gate the planner inside the plan hook so the queue can be
        // filled deterministically while a batch is in flight.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let hook_gate = Arc::clone(&gate);
        let config =
            ServiceConfig { planners: 1, batch: 1, queue_depth: 2, ..ServiceConfig::default() };
        let mut service = PlacementService::new(SchedulerSession::new(&infra), config);
        service.set_plan_hook(Some(PlanHook::new(move |_| {
            let (open, cv) = &*hook_gate;
            let mut open = lock_unpoisoned(open);
            while !*open {
                open = match cv.wait(open) {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        })));

        let shapes: Vec<Arc<ApplicationTopology>> =
            (0..4).map(|i| Arc::new(pair_app(&format!("t{i}"), 2))).collect();
        service.serve(|handle| {
            // First submission is popped by the planner (which then
            // blocks on the gate), leaving the queue empty.
            let first = handle.submit(Arc::clone(&shapes[0]), req.clone());
            while handle.service().stats().batches < 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // Two more fill the bounded queue; the fourth must shed.
            let second = handle.submit(Arc::clone(&shapes[1]), req.clone());
            let third = handle.submit(Arc::clone(&shapes[2]), req.clone());
            let overflow = handle.submit(Arc::clone(&shapes[3]), req.clone());
            match overflow.wait() {
                ServiceResponse::Failed(PlacementError::QueueFull { depth }) => {
                    assert_eq!(depth, 2)
                }
                other => panic!("overflow must shed with QueueFull: {other:?}"),
            }
            // Open the gate; everything admitted completes.
            let (open, cv) = &*gate;
            *lock_unpoisoned(open) = true;
            cv.notify_all();
            for ticket in [first, second, third] {
                assert!(matches!(ticket.wait(), ServiceResponse::Placed(_)));
            }
        });
        let stats = service.stats();
        assert_eq!(stats.shed_queue_full, 1);
        assert_eq!(stats.committed, 3);
    }

    /// Deadline shedding on the deterministic virtual clock: a request
    /// stamped before the budget's worth of ticks elapsed is shed with
    /// the typed error before any planning; a fresh one plans.
    #[test]
    fn stale_deadline_budget_sheds_before_planning() {
        let infra = infra_flat(2, 4);
        let req = request();
        let config = ServiceConfig {
            planners: 1,
            batch: 2,
            deadline_ms: 5,
            virtual_tick_us: 1_000, // one tick = 1ms of budget
            ..ServiceConfig::default()
        };
        let service = PlacementService::new(SchedulerSession::new(&infra), config);
        service.ticks.store(10, Ordering::Relaxed);

        let expired = Arc::new(TicketInner::default());
        let fresh = Arc::new(TicketInner::default());
        service.process_batch(vec![
            Job::Place {
                topology: Arc::new(pair_app("expired", 2)),
                request: req.clone(),
                ticket: Arc::clone(&expired),
                stamp: BudgetStamp::Tick(0), // 10 ticks = 10ms spent > 5ms budget
            },
            Job::Place {
                topology: Arc::new(pair_app("fresh", 2)),
                request: req.clone(),
                ticket: Arc::clone(&fresh),
                stamp: BudgetStamp::Tick(10), // 0ms spent
            },
        ]);
        match Ticket(expired).wait() {
            ServiceResponse::Failed(PlacementError::DeadlineExceeded { budget_ms }) => {
                assert_eq!(budget_ms, 5)
            }
            other => panic!("stale budget must shed: {other:?}"),
        }
        assert!(matches!(Ticket(fresh).wait(), ServiceResponse::Placed(_)));
        let stats = service.stats();
        assert_eq!(stats.shed_deadline, 1);
        assert_eq!(stats.committed, 1);
    }

    /// The degrade ladder's hysteresis: up fast on backlog, down only
    /// once the queue has drained past the low-water mark.
    #[test]
    fn degrade_ladder_moves_with_hysteresis() {
        let infra = infra_flat(1, 2);
        let config = ServiceConfig {
            degrade: DegradePolicy { enabled: true, ..DegradePolicy::default() },
            ..ServiceConfig::default()
        };
        // Default thresholds: high 16, low 4, floor 64.
        let service = PlacementService::new(SchedulerSession::new(&infra), config);
        assert_eq!(service.update_degrade(10), LEVEL_NORMAL, "below high stays normal");
        assert_eq!(service.update_degrade(16), LEVEL_CAPPED, "high-water trips capping");
        assert_eq!(service.update_degrade(10), LEVEL_CAPPED, "mid-band holds (hysteresis)");
        assert_eq!(service.update_degrade(64), LEVEL_FLOOR, "floor-water trips the floor");
        assert_eq!(service.update_degrade(16), LEVEL_CAPPED, "draining past high re-caps");
        assert_eq!(service.update_degrade(5), LEVEL_CAPPED, "still above low holds");
        assert_eq!(service.update_degrade(4), LEVEL_NORMAL, "low-water restores normal");
        assert_eq!(service.stats().degraded_transitions, 4);

        // Normal jumps straight to the floor under a deep burst.
        assert_eq!(service.update_degrade(100), LEVEL_FLOOR);
        assert_eq!(service.update_degrade(0), LEVEL_NORMAL, "floor drains straight to normal");

        // Disabled policy never degrades.
        let off_infra = infra_flat(1, 2);
        let off =
            PlacementService::new(SchedulerSession::new(&off_infra), ServiceConfig::default());
        assert_eq!(off.update_degrade(1_000), LEVEL_NORMAL);
    }

    /// At the floor level an A*-tier request plans with the greedy
    /// engine and its outcome is flagged as degraded.
    #[test]
    fn floored_batch_plans_greedy_and_flags_the_outcome() {
        let infra = infra_flat(2, 4);
        let config = ServiceConfig {
            degrade: DegradePolicy { enabled: true, ..DegradePolicy::default() },
            ..ServiceConfig::default()
        };
        let service = PlacementService::new(SchedulerSession::new(&infra), config);
        service.degrade_level.store(LEVEL_FLOOR, Ordering::Relaxed);

        let ticket = Arc::new(TicketInner::default());
        service.process_batch(vec![Job::Place {
            topology: Arc::new(pair_app("a", 2)),
            request: PlacementRequest::with_algorithm(Algorithm::BoundedAStar),
            ticket: Arc::clone(&ticket),
            stamp: BudgetStamp::Wall(Instant::now()),
        }]);
        match Ticket(ticket).wait() {
            ServiceResponse::Placed(outcome) => {
                assert!(outcome.outcome.stats.degraded, "outcome must carry the degraded flag");
            }
            other => panic!("floored request must still place: {other:?}"),
        }
        assert_eq!(service.stats().degraded_decisions, 1);

        // A greedy request at the floor is already at the floor — no
        // degradation recorded, no flag.
        let greedy = Arc::new(TicketInner::default());
        service.process_batch(vec![Job::Place {
            topology: Arc::new(pair_app("b", 2)),
            request: request(),
            ticket: Arc::clone(&greedy),
            stamp: BudgetStamp::Wall(Instant::now()),
        }]);
        match Ticket(greedy).wait() {
            ServiceResponse::Placed(outcome) => assert!(!outcome.outcome.stats.degraded),
            other => panic!("greedy request must place: {other:?}"),
        }
        assert_eq!(service.stats().degraded_decisions, 1);
    }

    /// Planner panics become typed per-request errors and the service
    /// keeps serving — both on the blocking path and through serve().
    #[test]
    fn planner_panic_is_contained_as_a_typed_error() {
        let infra = infra_flat(2, 4);
        let req = request();
        let mut service =
            PlacementService::new(SchedulerSession::new(&infra), ServiceConfig::default());
        service.set_plan_hook(Some(PlanHook::new(|topology| {
            if topology.name() == "boom" {
                panic!("injected planner fault");
            }
        })));

        // Suppress the default panic backtrace spew for this test.
        let prior = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let err = service.place_blocking(&pair_app("boom", 2), &req).unwrap_err();
        match &err {
            PlacementError::PlannerPanic { reason } => {
                assert!(reason.contains("injected planner fault"), "reason: {reason}")
            }
            other => panic!("expected PlannerPanic, got {other}"),
        }
        // The service is still healthy.
        service.place_blocking(&pair_app("ok", 2), &req).unwrap();

        // Through the queue: the poison request fails typed, its batch
        // neighbours still resolve, nothing hangs.
        let shapes = [
            Arc::new(pair_app("t0", 2)),
            Arc::new(pair_app("boom", 2)),
            Arc::new(pair_app("t1", 2)),
        ];
        let responses = service.serve(|handle| {
            let tickets: Vec<Ticket> =
                shapes.iter().map(|s| handle.submit(Arc::clone(s), req.clone())).collect();
            tickets.into_iter().map(Ticket::wait).collect::<Vec<_>>()
        });
        std::panic::set_hook(prior);
        assert!(matches!(&responses[0], ServiceResponse::Placed(_)));
        assert!(matches!(
            &responses[1],
            ServiceResponse::Failed(PlacementError::PlannerPanic { .. })
        ));
        assert!(matches!(&responses[2], ServiceResponse::Placed(_)));
        assert!(service.stats().planner_panics >= 1);
    }

    /// WAL disk-full mid-group-commit under the Reject policy: the
    /// fsync fails between the batch's journal appends and the ack, the
    /// whole batch is rolled back off the books, every member gets the
    /// typed durability error, and recovery replays exactly the acked
    /// prefix. Once the disk heals the same service commits again.
    #[test]
    fn disk_full_mid_group_commit_rejects_the_batch() {
        let dir = std::env::temp_dir().join(format!("ostro-enospc-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let infra = infra_flat(2, 4);
        let req = request();
        let (journal, _recovery) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(journal);
        let armed = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hook_armed = Arc::clone(&armed);
        session.set_wal_fault_hook(Some(WalFaultHook::new(move |op, _seq| {
            (hook_armed.load(Ordering::Relaxed) && op == WalIoOp::Sync)
                .then_some(WalFault::Error(std::io::ErrorKind::StorageFull))
        })));
        let config = ServiceConfig {
            planners: 1,
            batch: 4,
            wal_policy: DurabilityPolicy::Reject,
            wal_retries: 2,
            ..ServiceConfig::default()
        };
        let service = PlacementService::new(session, config);

        // A commits durably while the disk is healthy.
        let a = pair_app("a", 2);
        service.place_blocking(&a, &req).unwrap();
        let acked = wal::recover(&dir, &infra).unwrap().state;

        // Disk fills; a two-member batch appends its records, then the
        // group-commit fsync fails.
        armed.store(true, Ordering::Relaxed);
        let tb = Arc::new(TicketInner::default());
        let tc = Arc::new(TicketInner::default());
        service.process_batch(vec![
            Job::Place {
                topology: Arc::new(pair_app("b", 2)),
                request: req.clone(),
                ticket: Arc::clone(&tb),
                stamp: BudgetStamp::Wall(Instant::now()),
            },
            Job::Place {
                topology: Arc::new(pair_app("c", 2)),
                request: req.clone(),
                ticket: Arc::clone(&tc),
                stamp: BudgetStamp::Wall(Instant::now()),
            },
        ]);
        for ticket in [tb, tc] {
            match Ticket(ticket).wait() {
                ServiceResponse::Failed(PlacementError::Durability { reason }) => {
                    assert!(reason.contains("injected"), "reason: {reason}")
                }
                other => panic!("un-durable member must reject typed: {other:?}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.durability_rejections, 2);
        assert_eq!(stats.non_durable_acks, 0, "Reject must never degrade the ack");
        assert!(stats.wal_retry_syncs >= 1, "bounded fsync retries must have run");
        assert_eq!(stats.committed, 1, "the rolled-back batch must not count as committed");

        // Nothing beyond A is on disk or on the books.
        assert_eq!(wal::recover(&dir, &infra).unwrap().state, acked);

        // Disk heals: the same service commits D durably again.
        armed.store(false, Ordering::Relaxed);
        let d = pair_app("d", 2);
        service.place_blocking(&d, &req).unwrap();
        let live = service.into_session().into_state();
        assert_eq!(wal::recover(&dir, &infra).unwrap().state, live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The default Degrade policy keeps serving on WAL faults: the ack
    /// stands, flagged as non-durable in the stats, and the fail-stop
    /// latch carries the typed error for the report path.
    #[test]
    fn degrade_policy_acks_non_durably_on_wal_fault() {
        let dir = std::env::temp_dir().join(format!("ostro-degrade-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let infra = infra_flat(2, 4);
        let req = request();
        let (journal, _recovery) =
            Wal::open(&dir, &infra, WalOptions { snapshot_every: 0, ..WalOptions::default() })
                .unwrap();
        let mut session = SchedulerSession::new(&infra);
        session.attach_wal(journal);
        session.set_wal_fault_hook(Some(WalFaultHook::new(|op, _seq| {
            (op == WalIoOp::Sync).then_some(WalFault::Error(std::io::ErrorKind::StorageFull))
        })));
        let service = PlacementService::new(session, ServiceConfig::default());

        service.place_blocking(&pair_app("a", 2), &req).unwrap();
        let stats = service.stats();
        assert_eq!(stats.non_durable_acks, 1);
        assert_eq!(stats.wal_faults, 1);
        assert_eq!(stats.committed, 1, "the ack stands under Degrade");
        let mut session = service.into_session();
        let latched = session.take_wal_error().expect("fault must latch for the report path");
        assert!(latched.to_string().contains("injected"), "latched: {latched}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
