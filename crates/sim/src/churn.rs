//! Multi-tenant churn simulation: a stream of application arrivals and
//! departures placed by one algorithm onto one shared data center.
//!
//! The paper evaluates single placements against *snapshots* of
//! multi-tenancy (Table IV's non-uniform availability). This module
//! closes the loop: the non-uniformity *emerges* from previous
//! placements, and the metrics that matter to an operator — acceptance
//! rate, active hosts, reserved bandwidth over time — can be compared
//! across algorithms.
//!
//! With a [`FaultConfig`] attached, the run also exercises the
//! failure-aware deployment pipeline: arrivals are committed through
//! [`Scheduler::deploy`] under the plan's launch failures and
//! stale-capacity races, and scheduled host crashes trigger quarantine
//! plus tenant evacuation via [`Scheduler::evacuate`]. The
//! [`FaultStats`] block of the report aggregates the recovery metrics.

use std::path::Path;

use ostro_core::{
    Algorithm, DeployPolicy, HostTruth, NoFaults, ObjectiveWeights, PlacementRequest,
    SchedulerSession, SyncPolicy, Wal, WalOptions,
};
use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::{ApplicationTopology, Bandwidth, Resources};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::faults::{FaultConfig, FaultPlan, PlanProbe};
use crate::requirements::RequirementMix;
use crate::runner::SimError;
use crate::workloads::{mesh, multi_tier, qfs_topology};

/// Configuration of a churn run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnConfig {
    /// Number of arrival events to simulate.
    pub arrivals: usize,
    /// Mean number of ticks an accepted application stays deployed.
    pub mean_lifetime: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Objective weights for every placement.
    pub weights: ObjectiveWeights,
    /// Optional fault-injection plan; `None` runs a clean deployment.
    #[serde(default)]
    pub faults: Option<FaultConfig>,
    /// Retry / backoff / degradation policy of the deployment executor.
    #[serde(default)]
    pub deploy: DeployPolicy,
    /// Expansion cap forwarded to every placement request (0 =
    /// unlimited). A finite cap makes DBA\* runs reproducible: the
    /// deterministic expansion budget binds before the wall clock.
    #[serde(default)]
    pub max_expansions: u64,
    /// Virtual deadline-clock tick, in microseconds, forwarded to every
    /// placement request (0 = wall clock). Combined with a finite
    /// `max_expansions` this makes DBA\* churn runs fully
    /// deterministic — a prerequisite for the crash-recovery
    /// bit-identity drills.
    #[serde(default)]
    pub virtual_tick_us: u64,
    /// Optional crash-recovery drill: journal every mutation to a
    /// write-ahead log and kill/restart the scheduler at scheduled
    /// ticks, verifying the recovered books against the live ones.
    #[serde(default)]
    pub recovery: Option<RecoveryConfig>,
    /// Run an anti-entropy sweep every this many ticks (0 = never),
    /// reconciling the session's books against the deployed-tenant
    /// ledger and repairing any drift (e.g. leaked race grabs).
    #[serde(default)]
    pub reconcile_every: usize,
}

/// Crash-recovery drill configuration for a churn run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Directory holding the journal (`wal.log`) and its snapshot;
    /// wiped at run start.
    pub wal_dir: String,
    /// Ticks at whose start the scheduler is killed cold and rebuilt
    /// from snapshot + journal replay.
    #[serde(default)]
    pub crash_ticks: Vec<usize>,
    /// Journal records between automatic snapshot compactions
    /// (0 = never snapshot).
    #[serde(default = "default_snapshot_every")]
    pub snapshot_every: u64,
}

fn default_snapshot_every() -> u64 {
    256
}

impl RecoveryConfig {
    fn wal_options(&self) -> WalOptions {
        WalOptions { snapshot_every: self.snapshot_every, sync: SyncPolicy::OnSnapshot }
    }
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            arrivals: 50,
            mean_lifetime: 10,
            seed: 7,
            weights: ObjectiveWeights::SIMULATION,
            faults: None,
            deploy: DeployPolicy::default(),
            max_expansions: 0,
            virtual_tick_us: 0,
            recovery: None,
            reconcile_every: 0,
        }
    }
}

/// Fault-injection and recovery metrics of one churn run. All zeros
/// when the run had no fault plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Host crashes injected by the plan.
    pub crashes_injected: usize,
    /// Stale-capacity races that actually grabbed capacity.
    pub stale_races_injected: usize,
    /// Transient launch failures absorbed by the executor's retries.
    pub launch_retries: u64,
    /// Simulated ticks spent in retry backoff across all deployments.
    pub backoff_ticks: u64,
    /// Fallback re-placements performed by the executor.
    pub deploy_fallbacks: u64,
    /// Arrivals the solver accepted but the executor could not commit.
    pub deploy_failures: usize,
    /// Best-effort nodes dropped under the degradation policy.
    pub dropped_nodes: usize,
    /// Tenants successfully evacuated off crashed hosts.
    pub tenants_evacuated: usize,
    /// Tenants abandoned because recovery found no feasible placement.
    pub tenants_abandoned: usize,
    /// Replicas lost to crashes (their reservations were released).
    pub dead_replicas_released: usize,
    /// Surviving nodes a recovery had to move to new hosts.
    pub repositioned_nodes: usize,
    /// Pin-relaxation rounds consumed by evacuations.
    pub recovery_rounds: u64,
    /// Simulated ticks spent re-deploying evacuated tenants.
    pub recovery_ticks: u64,
    /// Stale races whose phantom grab was never released (the actor
    /// died holding it), drifting the books until a sweep reclaims it.
    #[serde(default)]
    pub stale_races_leaked: usize,
    /// Scheduler kill/restart drills performed.
    #[serde(default)]
    pub scheduler_restarts: usize,
    /// Journal records replayed across all restart drills.
    #[serde(default)]
    pub wal_records_replayed: u64,
    /// Orphaned reservations repaired by anti-entropy sweeps.
    #[serde(default)]
    pub reconcile_orphaned: u64,
    /// Leaked releases repaired by anti-entropy sweeps.
    #[serde(default)]
    pub reconcile_leaked: u64,
    /// Stale-race ghosts repaired by anti-entropy sweeps.
    #[serde(default)]
    pub reconcile_ghosts: u64,
}

impl FaultStats {
    /// Fraction of crash-affected tenants that were recovered
    /// (1.0 when no tenant was ever affected).
    #[must_use]
    pub fn recovery_success_rate(&self) -> f64 {
        let affected = self.tenants_evacuated + self.tenants_abandoned;
        if affected == 0 {
            1.0
        } else {
            self.tenants_evacuated as f64 / affected as f64
        }
    }

    /// Mean simulated ticks to re-deploy an evacuated tenant.
    #[must_use]
    pub fn mean_ticks_to_recover(&self) -> f64 {
        if self.tenants_evacuated == 0 {
            0.0
        } else {
            self.recovery_ticks as f64 / self.tenants_evacuated as f64
        }
    }
}

/// Aggregate metrics of one churn run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Arrivals that were successfully placed *and* deployed.
    pub accepted: usize,
    /// Arrivals rejected as infeasible (or search-exhausted).
    pub rejected: usize,
    /// Mean active hosts across ticks.
    pub mean_active_hosts: f64,
    /// Peak active hosts.
    pub peak_active_hosts: usize,
    /// Mean reserved bandwidth across ticks, Mbps.
    pub mean_reserved_mbps: f64,
    /// Peak reserved bandwidth, Mbps.
    pub peak_reserved_mbps: u64,
    /// Mean solver time per accepted placement, seconds.
    pub mean_solver_secs: f64,
    /// Fault-injection and recovery metrics.
    #[serde(default)]
    pub faults: FaultStats,
}

impl ChurnReport {
    /// Fraction of arrivals that ended up deployed; a solver acceptance
    /// that later failed deployment counts against the rate.
    #[must_use]
    pub fn acceptance_rate(&self) -> f64 {
        let total = self.accepted + self.rejected + self.faults.deploy_failures;
        if total == 0 {
            1.0
        } else {
            self.accepted as f64 / total as f64
        }
    }
}

struct Tenant {
    topology: ApplicationTopology,
    /// Node → host, `None` for dropped best-effort replicas.
    assignment: Vec<Option<HostId>>,
    expires_at: usize,
}

/// Draws a random application: small/medium multi-tier, mesh, or QFS.
fn random_application<R: Rng + ?Sized>(
    rng: &mut R,
    index: usize,
) -> Result<ApplicationTopology, SimError> {
    let mix = if rng.gen_bool(0.5) {
        RequirementMix::heterogeneous()
    } else {
        RequirementMix::homogeneous()
    };
    let topology = match rng.gen_range(0..3u8) {
        0 => multi_tier([25, 50, 75][rng.gen_range(0..3)], &mix, rng)?,
        1 => mesh(rng.gen_range(3..9), &mix, rng)?,
        _ => qfs_topology()?,
    };
    // Rename so successive tenants never collide in diagnostics.
    let mut builder = ostro_model::TopologyBuilder::new(format!("tenant{index}"));
    let mut ids = Vec::new();
    for node in topology.nodes() {
        let id = match *node.kind() {
            ostro_model::NodeKind::Vm { vcpus, memory_mb } => {
                builder.vm(node.name(), vcpus, memory_mb)?
            }
            ostro_model::NodeKind::Volume { size_gb } => builder.volume(node.name(), size_gb)?,
        };
        ids.push(id);
    }
    for link in topology.links() {
        let (a, b) = link.endpoints();
        builder.link(ids[a.index()], ids[b.index()], link.bandwidth())?;
    }
    for zone in topology.zones() {
        let members: Vec<_> = zone.members().iter().map(|&m| ids[m.index()]).collect();
        builder.diversity_zone(zone.name(), zone.level(), &members)?;
    }
    Ok(builder.build()?)
}

/// The capacity grabbed by a stale-capacity race: `fraction` of what
/// the raced host currently has free.
fn race_grab(avail: Resources, fraction: f64) -> Resources {
    Resources::new(
        (f64::from(avail.vcpus) * fraction) as u32,
        (avail.memory_mb as f64 * fraction) as u64,
        (avail.disk_gb as f64 * fraction) as u64,
    )
}

/// Per-host ground truth of everything actually deployed: every live
/// tenant replica summed onto its host — the simulator's stand-in for
/// asking Nova/Cinder what is really running.
fn deployed_truth(infra: &Infrastructure, tenants: &[Tenant]) -> Vec<HostTruth> {
    let n = infra.host_count();
    let mut used = vec![Resources::ZERO; n];
    let mut instances = vec![0u32; n];
    for tenant in tenants {
        for (node, slot) in tenant.topology.nodes().iter().zip(&tenant.assignment) {
            if let Some(host) = slot {
                used[host.index()] += node.requirements();
                instances[host.index()] += 1;
            }
        }
    }
    (0..n)
        .map(|i| HostTruth {
            host: HostId::from_index(i as u32),
            used: used[i],
            instances: instances[i],
        })
        .collect()
}

/// Runs the churn simulation with one algorithm.
///
/// Each tick, expired tenants depart (their resources are released),
/// scheduled host crashes are injected and recovered from, then one new
/// application arrives and is placed + deployed if feasible.
///
/// # Errors
///
/// Propagates *setup* failures (workload generation) and
/// [`SimError::Release`] on a capacity-accounting violation; placement
/// infeasibility and deployment failures are counted in the report,
/// not returned as errors.
pub fn run_churn(
    infra: &Infrastructure,
    algorithm: Algorithm,
    config: &ChurnConfig,
) -> Result<ChurnReport, SimError> {
    churn_run(infra, algorithm, config).map(|(report, _, _)| report)
}

/// The full churn loop, also yielding the final capacity state and the
/// tenants still deployed — the hooks the leak-regression tests use.
///
/// The whole stream is served by one [`SchedulerSession`], so every
/// placement after the first starts warm: the session's mirror of the
/// books is reused, and departures/crashes re-resolve only the hosts
/// they touched. The session is bit-identical to a cold
/// per-request scheduler, so the reports (and the determinism tests)
/// are unchanged by the reuse.
fn churn_run(
    infra: &Infrastructure,
    algorithm: Algorithm,
    config: &ChurnConfig,
) -> Result<(ChurnReport, CapacityState, Vec<Tenant>), SimError> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut session = SchedulerSession::new(infra);
    if let Some(rec) = &config.recovery {
        let dir = Path::new(&rec.wal_dir);
        Wal::reset(dir)?;
        let (wal, _) = Wal::open(dir, infra, rec.wal_options())?;
        session.attach_wal(wal);
    }
    let mut tenants: Vec<Tenant> = Vec::new();
    let plan = config
        .faults
        .as_ref()
        .map(|fc| FaultPlan::generate(fc, infra.host_count(), config.arrivals));

    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut active_sum = 0f64;
    let mut peak_active = 0usize;
    let mut reserved_sum = 0f64;
    let mut peak_reserved = Bandwidth::ZERO;
    let mut solver_secs = 0f64;
    let mut stats = FaultStats::default();

    for tick in 0..config.arrivals {
        let request = PlacementRequest {
            algorithm,
            weights: config.weights,
            seed: config.seed ^ tick as u64,
            max_expansions: config.max_expansions,
            virtual_tick_us: config.virtual_tick_us,
            ..PlacementRequest::default()
        };

        // Crash drill: kill the scheduler cold (in-memory books and
        // journal handle alike), reconstruct it from snapshot + journal
        // replay, and verify the recovered books are bit-identical to
        // what the live scheduler held at the kill point.
        if let Some(rec) = &config.recovery {
            if rec.crash_ticks.contains(&tick) {
                if let Some(e) = session.take_wal_error() {
                    return Err(SimError::Wal(e));
                }
                let live_state = session.state().clone();
                let live_quarantine = session.quarantined_hosts();
                drop(session.detach_wal());
                let (wal, recovery) = Wal::open(Path::new(&rec.wal_dir), infra, rec.wal_options())?;
                if recovery.state != live_state || recovery.quarantined != live_quarantine {
                    return Err(SimError::RecoveryDiverged { tick });
                }
                stats.scheduler_restarts += 1;
                stats.wal_records_replayed += recovery.records_replayed;
                session = SchedulerSession::with_recovery(infra, &recovery);
                session.attach_wal(wal);
            }
        }

        // Departures first.
        let mut staying = Vec::with_capacity(tenants.len());
        for tenant in tenants {
            if tenant.expires_at <= tick {
                session.release_partial(&tenant.topology, &tenant.assignment).map_err(
                    |source| SimError::Release {
                        tenant: tenant.topology.name().to_owned(),
                        source,
                    },
                )?;
            } else {
                staying.push(tenant);
            }
        }
        tenants = staying;

        // Scheduled host crashes: quarantine, then evacuate every
        // tenant that had a replica on the dead host.
        if let Some(plan) = &plan {
            for host in plan.crashes_at(tick).collect::<Vec<_>>() {
                stats.crashes_injected += 1;
                session.quarantine_host(host);
                let mut kept = Vec::with_capacity(tenants.len());
                for mut tenant in tenants {
                    if !tenant.assignment.contains(&Some(host)) {
                        kept.push(tenant);
                        continue;
                    }
                    match session.evacuate(
                        &tenant.topology,
                        &tenant.assignment,
                        &request,
                        host,
                        config.deploy.unpin_rounds,
                    ) {
                        Ok(evac) => {
                            stats.dead_replicas_released += evac.dead.len();
                            stats.repositioned_nodes += evac.online.repositioned.len();
                            stats.recovery_rounds += u64::from(evac.online.rounds);
                            // Re-commit through the executor: recovery
                            // deployments see launch faults too.
                            let mut probe = PlanProbe::new(plan, tick);
                            match session.deploy(
                                &tenant.topology,
                                &evac.online.outcome.placement,
                                &request,
                                &config.deploy,
                                &[],
                                &mut probe,
                            ) {
                                Ok(report) => {
                                    stats.tenants_evacuated += 1;
                                    stats.recovery_ticks += report.ticks;
                                    stats.launch_retries += report.retries;
                                    stats.deploy_fallbacks += u64::from(report.fallbacks);
                                    stats.dropped_nodes += report.dropped;
                                    tenant.assignment = report.assignment;
                                    kept.push(tenant);
                                }
                                // The executor rolled back; the tenant
                                // is already fully released.
                                Err(_) => stats.tenants_abandoned += 1,
                            }
                        }
                        // Even unpinned re-placement was infeasible;
                        // `evacuate` released the tenant entirely.
                        Err(_) => stats.tenants_abandoned += 1,
                    }
                }
                tenants = kept;
            }
        }

        // One arrival: decide, then deploy under injected faults.
        let topology = random_application(&mut rng, tick)?;
        match session.place(&topology, &request) {
            Ok(outcome) => {
                solver_secs += outcome.elapsed.as_secs_f64();
                // A concurrent actor may grab capacity between the
                // decision and our commit (and release it afterwards).
                let mut phantom: Option<(HostId, Resources)> = None;
                if let Some(plan) = &plan {
                    if let Some(raced) = plan.stale_race(tick, infra.host_count()) {
                        let grab =
                            race_grab(session.state().available(raced), plan.stale_race_fraction());
                        if grab != Resources::ZERO && session.reserve_node(raced, grab).is_ok() {
                            stats.stale_races_injected += 1;
                            phantom = Some((raced, grab));
                        }
                    }
                }
                let deployed = match &plan {
                    Some(plan) => {
                        let mut probe = PlanProbe::new(plan, tick);
                        session.deploy(
                            &topology,
                            &outcome.placement,
                            &request,
                            &config.deploy,
                            &[],
                            &mut probe,
                        )
                    }
                    None => session.deploy(
                        &topology,
                        &outcome.placement,
                        &request,
                        &config.deploy,
                        &[],
                        &mut NoFaults,
                    ),
                };
                if let Some((host, grab)) = phantom {
                    if plan.as_ref().is_some_and(|p| p.race_leaks(tick)) {
                        // The concurrent actor died holding its grab:
                        // nothing will ever release it, so the books
                        // drift until an anti-entropy sweep reclaims
                        // the orphan.
                        stats.stale_races_leaked += 1;
                    } else {
                        session.release_node(host, grab).map_err(|source| SimError::Release {
                            tenant: "stale-race phantom".into(),
                            source: source.into(),
                        })?;
                    }
                }
                match deployed {
                    Ok(report) => {
                        stats.launch_retries += report.retries;
                        stats.backoff_ticks += report.ticks;
                        stats.deploy_fallbacks += u64::from(report.fallbacks);
                        stats.dropped_nodes += report.dropped;
                        accepted += 1;
                        let lifetime = rng.gen_range(1..=config.mean_lifetime * 2);
                        tenants.push(Tenant {
                            topology,
                            assignment: report.assignment,
                            expires_at: tick + lifetime,
                        });
                    }
                    // Rolled back by the executor — the arrival is
                    // refused at deployment time, not a crash.
                    Err(_) => stats.deploy_failures += 1,
                }
            }
            Err(_) => rejected += 1,
        }

        // Anti-entropy sweep: reconcile the session's books against
        // the deployed-tenant ledger and repair any drift.
        if config.reconcile_every > 0 && (tick + 1) % config.reconcile_every == 0 {
            let truth = deployed_truth(infra, &tenants);
            let sweep = session.reconcile(&truth)?;
            stats.reconcile_orphaned += sweep.orphaned() as u64;
            stats.reconcile_leaked += sweep.leaked() as u64;
            stats.reconcile_ghosts += sweep.ghosts() as u64;
        }

        let active = session.state().active_host_count();
        let reserved = session.state().total_reserved_bandwidth(infra);
        active_sum += active as f64;
        peak_active = peak_active.max(active);
        reserved_sum += reserved.as_mbps() as f64;
        peak_reserved = peak_reserved.max(reserved);
    }

    if let Some(e) = session.take_wal_error() {
        return Err(SimError::Wal(e));
    }
    let ticks = config.arrivals.max(1) as f64;
    let report = ChurnReport {
        accepted,
        rejected,
        mean_active_hosts: active_sum / ticks,
        peak_active_hosts: peak_active,
        mean_reserved_mbps: reserved_sum / ticks,
        peak_reserved_mbps: peak_reserved.as_mbps(),
        mean_solver_secs: if accepted > 0 { solver_secs / accepted as f64 } else { 0.0 },
        faults: stats,
    };
    Ok((report, session.into_state(), tenants))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::sized_datacenter;
    use ostro_core::Scheduler;
    use std::time::Duration;

    fn infra() -> Infrastructure {
        let mut rng = SmallRng::seed_from_u64(1);
        sized_datacenter(6, 8, false, &mut rng).unwrap().0
    }

    fn config(arrivals: usize) -> ChurnConfig {
        ChurnConfig { arrivals, mean_lifetime: 5, ..ChurnConfig::default() }
    }

    fn faulty_config(arrivals: usize) -> ChurnConfig {
        ChurnConfig {
            faults: Some(FaultConfig {
                seed: 11,
                host_crashes: 3,
                launch_failure_prob: 0.05,
                stale_race_prob: 0.2,
                stale_race_fraction: 0.5,
                ..FaultConfig::default()
            }),
            ..config(arrivals)
        }
    }

    #[test]
    fn churn_accepts_everything_on_a_roomy_cloud() {
        let infra = infra();
        let report = run_churn(&infra, Algorithm::Greedy, &config(12)).unwrap();
        assert_eq!(report.accepted, 12);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.acceptance_rate(), 1.0);
        assert!(report.peak_active_hosts > 0);
        assert!(report.mean_reserved_mbps >= 0.0);
        assert!(report.mean_solver_secs > 0.0);
        assert_eq!(report.faults, FaultStats::default());
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let infra = infra();
        let mut a = run_churn(&infra, Algorithm::Greedy, &config(10)).unwrap();
        let mut b = run_churn(&infra, Algorithm::Greedy, &config(10)).unwrap();
        // Wall-clock solver time is the one legitimately noisy field.
        a.mean_solver_secs = 0.0;
        b.mean_solver_secs = 0.0;
        assert_eq!(a, b);
    }

    #[test]
    fn consolidating_weights_use_fewer_hosts_than_egbw() {
        let infra = infra();
        let cfg = config(20);
        let eg = run_churn(&infra, Algorithm::Greedy, &cfg).unwrap();
        let egbw = run_churn(&infra, Algorithm::GreedyBandwidth, &cfg).unwrap();
        assert!(
            eg.mean_active_hosts <= egbw.mean_active_hosts + 1e-9,
            "EG {} vs EGBW {}",
            eg.mean_active_hosts,
            egbw.mean_active_hosts
        );
    }

    #[test]
    fn tiny_cloud_rejects_but_survives() {
        let mut rng = SmallRng::seed_from_u64(1);
        // 1 rack x 4 hosts: QFS (12-way diversity) can never fit.
        let (infra, _) = sized_datacenter(1, 4, false, &mut rng).unwrap();
        let report = run_churn(&infra, Algorithm::Greedy, &config(15)).unwrap();
        assert!(report.rejected > 0);
        assert!(report.acceptance_rate() < 1.0);
    }

    #[test]
    fn works_with_deadline_bounded_search() {
        let infra = infra();
        let report = run_churn(
            &infra,
            Algorithm::DeadlineBoundedAStar { deadline: Duration::from_millis(100) },
            &config(6),
        )
        .unwrap();
        assert_eq!(report.accepted + report.rejected, 6);
    }

    #[test]
    fn faulty_churn_completes_and_recovers() {
        let infra = infra();
        let report = run_churn(&infra, Algorithm::Greedy, &faulty_config(30)).unwrap();
        assert_eq!(report.faults.crashes_injected, 3);
        assert!(report.accepted > 0);
        assert!(report.faults.launch_retries > 0, "5% launch failures over 30 arrivals");
        assert!(report.faults.recovery_success_rate() >= 0.0);
        assert!(report.faults.recovery_success_rate() <= 1.0);
        assert!(report.faults.mean_ticks_to_recover() >= 0.0);
        // Every arrival is accounted for exactly once.
        assert_eq!(
            report.accepted + report.rejected + report.faults.deploy_failures,
            30,
            "faults must surface in the report, not vanish"
        );
    }

    #[test]
    fn faulty_churn_is_deterministic_per_seed() {
        let infra = infra();
        let cfg = faulty_config(20);
        let mut a = run_churn(&infra, Algorithm::Greedy, &cfg).unwrap();
        let mut b = run_churn(&infra, Algorithm::Greedy, &cfg).unwrap();
        a.mean_solver_secs = 0.0;
        b.mean_solver_secs = 0.0;
        assert_eq!(a, b);
    }

    fn wal_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ostro-churn-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn with_recovery(
        mut cfg: ChurnConfig,
        dir: &std::path::Path,
        crash_ticks: Vec<usize>,
    ) -> ChurnConfig {
        cfg.recovery = Some(RecoveryConfig {
            wal_dir: dir.to_string_lossy().into_owned(),
            crash_ticks,
            snapshot_every: 6,
        });
        cfg
    }

    /// Strips the fields that legitimately differ between a crashed and
    /// an uncrashed run: wall-clock solver time and the drill counters.
    fn canonical(mut report: ChurnReport) -> ChurnReport {
        report.mean_solver_secs = 0.0;
        report.faults.scheduler_restarts = 0;
        report.faults.wal_records_replayed = 0;
        report
    }

    /// The tentpole acceptance: kill the scheduler mid-churn at seeded
    /// ticks, rebuild it from snapshot + journal replay, and the whole
    /// run — every subsequent placement decision, every fault metric —
    /// is bit-identical to a run that never crashed.
    #[test]
    fn crash_recovery_churn_matches_the_uncrashed_run() {
        let infra = infra();
        let dir = wal_dir("identical");
        let cfg = with_recovery(faulty_config(24), &dir, vec![5, 13, 20]);
        let crashed = run_churn(&infra, Algorithm::Greedy, &cfg).unwrap();
        assert_eq!(crashed.faults.scheduler_restarts, 3);
        assert!(crashed.faults.wal_records_replayed > 0, "some records replayed across drills");

        let clean =
            run_churn(&infra, Algorithm::Greedy, &ChurnConfig { recovery: None, ..cfg.clone() })
                .unwrap();
        assert_eq!(canonical(crashed), canonical(clean));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same drill under DBA*: the virtual deadline clock plus a finite
    /// expansion cap make even the deadline-bounded search replayable.
    #[test]
    fn dbastar_crash_recovery_is_deterministic_with_virtual_clock() {
        let infra = infra();
        let dir = wal_dir("dbastar");
        let mut cfg = config(8);
        cfg.virtual_tick_us = 40;
        cfg.max_expansions = 300;
        let cfg = with_recovery(cfg, &dir, vec![3, 6]);
        let algorithm = Algorithm::DeadlineBoundedAStar { deadline: Duration::from_millis(5) };
        let crashed = run_churn(&infra, algorithm, &cfg).unwrap();
        assert_eq!(crashed.faults.scheduler_restarts, 2);

        let clean =
            run_churn(&infra, algorithm, &ChurnConfig { recovery: None, ..cfg.clone() }).unwrap();
        assert_eq!(canonical(crashed), canonical(clean));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Leaked race grabs drift the books; the per-tick anti-entropy
    /// sweep reclaims every orphan, so after releasing the surviving
    /// tenants the cloud is exactly fresh again.
    #[test]
    fn reconcile_sweep_repairs_leaked_race_drift() {
        let infra = infra();
        let mut cfg = config(16);
        cfg.faults = Some(FaultConfig {
            host_crashes: 0,
            launch_failure_prob: 0.0,
            stale_race_prob: 1.0,
            stale_race_fraction: 0.3,
            race_leak_prob: 1.0,
            ..FaultConfig::default()
        });
        cfg.reconcile_every = 1;
        let scheduler = Scheduler::new(&infra);
        let (report, mut state, tenants) = churn_run(&infra, Algorithm::Greedy, &cfg).unwrap();
        assert!(report.faults.stale_races_leaked > 0, "every race leaks under prob 1.0");
        assert!(
            report.faults.reconcile_orphaned >= report.faults.stale_races_leaked as u64,
            "each leak surfaces as (at least) one orphaned reservation"
        );
        for tenant in &tenants {
            scheduler.release_partial(&tenant.topology, &tenant.assignment, &mut state).unwrap();
        }
        assert_eq!(state, CapacityState::new(&infra), "sweeps reclaimed every leaked grab");
    }

    /// Capacity-leak regression: after a full churn run, releasing the
    /// surviving tenants must restore the state to exactly fresh.
    #[test]
    fn clean_churn_run_leaks_no_capacity() {
        let infra = infra();
        let scheduler = Scheduler::new(&infra);
        let (_, mut state, tenants) = churn_run(&infra, Algorithm::Greedy, &config(15)).unwrap();
        for tenant in &tenants {
            scheduler.release_partial(&tenant.topology, &tenant.assignment, &mut state).unwrap();
        }
        assert_eq!(state, CapacityState::new(&infra), "all reservations must be released");
    }

    /// Same invariant under fault injection: the only difference from a
    /// fresh state must be the quarantined (crashed) hosts.
    #[test]
    fn faulty_churn_run_leaks_no_capacity() {
        let infra = infra();
        let scheduler = Scheduler::new(&infra);
        let cfg = faulty_config(25);
        let (report, mut state, tenants) = churn_run(&infra, Algorithm::Greedy, &cfg).unwrap();
        for tenant in &tenants {
            scheduler.release_partial(&tenant.topology, &tenant.assignment, &mut state).unwrap();
        }
        let mut expected = CapacityState::new(&infra);
        let plan =
            FaultPlan::generate(cfg.faults.as_ref().unwrap(), infra.host_count(), cfg.arrivals);
        for &(_, host) in plan.crashes() {
            expected.quarantine_host(host);
        }
        assert_eq!(report.faults.crashes_injected, plan.crashes().len());
        assert_eq!(state, expected, "only the crash quarantines may remain");
    }
}
