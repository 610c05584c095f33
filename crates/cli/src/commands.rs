//! Command parsing and execution. Everything returns its output as a
//! `String` so the logic is unit-testable without spawning processes.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ostro_core::{
    verify_placement, Algorithm, DegradePolicy, FragStats, HealthConfig, HealthState, MaintStats,
    MaintenanceConfig, MaintenanceLoad, MaintenancePlane, ObjectiveWeights, Placement,
    PlacementError, PlacementRequest, PlacementService, Scheduler, SchedulerSession, SearchStats,
    ServiceConfig, ServiceResponse, ServiceStats, TenantRecord, Ticket, Wal, WalOptions,
};
use ostro_datacenter::{CapacityState, HostId, InfraSpec, Infrastructure};
use ostro_heat::{annotate_template, extract_topology, HeatTemplate};
use ostro_model::{ApplicationTopology, Bandwidth, TopologyBuilder};
use ostro_sim::{HeartbeatConfig, HeartbeatPlan};
use serde::{Deserialize, Serialize};

use crate::cli_error::CliError;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Summarize an infrastructure (and optional state).
    Inspect {
        /// Path to the infrastructure spec.
        infra: String,
        /// Optional path to a capacity state.
        state: Option<String>,
    },
    /// Place a template, printing the decision document.
    Place {
        /// Path to the infrastructure spec.
        infra: String,
        /// Path to the QoS-enhanced Heat template.
        template: String,
        /// The algorithm to run.
        algorithm: Algorithm,
        /// Objective weights.
        weights: ObjectiveWeights,
        /// RNG seed.
        seed: u64,
        /// Scoring participants (0 = available_parallelism).
        score_threads: usize,
        /// Per-chunk cache budget in bytes (0 = default).
        chunk_bytes: usize,
        /// Two-level sharded placement: score pod digests first, then
        /// search only the top-K candidate pods.
        shard: bool,
        /// Candidate pods the coarse stage keeps (0 = engine default;
        /// only meaningful with `--shard`).
        pods: usize,
        /// Solve through a [`SchedulerSession`] instead of a cold
        /// per-request scheduler. Bit-identical results; exercises the
        /// online-service path and enables the session stats counters.
        session: bool,
        /// Include the search-effort counters in the output document.
        stats: bool,
        /// Optional path to the pre-existing capacity state.
        state: Option<String>,
        /// Optional path to write the post-commit state to.
        commit: Option<String>,
        /// Optional write-ahead-journal directory (implies the session
        /// path): mutations are journaled, and a non-empty journal's
        /// recovered books take the place of `--state`.
        wal_dir: Option<String>,
    },
    /// Re-check a placement document against all constraints.
    Validate {
        /// Path to the infrastructure spec.
        infra: String,
        /// Path to the template.
        template: String,
        /// Path to a placement document produced by `place`.
        placement: String,
        /// Optional path to the capacity state.
        state: Option<String>,
    },
    /// Run a churn simulation, optionally with fault injection.
    Churn {
        /// Path to the infrastructure spec.
        infra: String,
        /// The algorithm to run.
        algorithm: Algorithm,
        /// Objective weights.
        weights: ObjectiveWeights,
        /// Arrival events to simulate.
        arrivals: usize,
        /// Mean tenant lifetime in ticks.
        lifetime: usize,
        /// RNG seed (workload and fault plan).
        seed: u64,
        /// Host crashes to schedule (0 with the probabilities at 0
        /// disables fault injection entirely).
        crashes: usize,
        /// Per-attempt transient launch-failure probability.
        launch_failure_prob: f64,
        /// Per-tick stale-capacity race probability.
        stale_race_prob: f64,
        /// Probability that a stale race leaks its grab (orphan drift).
        race_leak_prob: f64,
        /// Anti-entropy sweep cadence in ticks (0 = never).
        reconcile_every: usize,
        /// Optional journal directory for crash-recovery drills.
        wal_dir: Option<String>,
        /// Ticks at which to kill + recover the scheduler.
        crash_at: Vec<usize>,
    },
    /// Drive a deterministic arrival/departure stream through the
    /// concurrent placement service (or, with `--serial`, through a
    /// warm session in strict event order) and report throughput,
    /// latency percentiles, the service's conflict/batching counters,
    /// and an order-independent decision digest.
    Serve {
        /// Path to the infrastructure spec.
        infra: String,
        /// The algorithm to run.
        algorithm: Algorithm,
        /// Objective weights.
        weights: ObjectiveWeights,
        /// Tenant arrivals in the stream.
        requests: usize,
        /// Per-draw departure probability after each arrival.
        depart_prob: f64,
        /// Stream seed (shapes, schedule, and solver tie-breaks).
        seed: u64,
        /// Planner threads.
        planners: usize,
        /// Maximum jobs per admission batch.
        batch: usize,
        /// Optimistic re-plans before a request serializes.
        retries: u32,
        /// Ingress-queue bound; placements over it are shed at the
        /// door with a typed `QueueFull` error (0 = unbounded).
        queue_depth: usize,
        /// Per-request admission deadline budget in milliseconds;
        /// placements that waited longer in the queue are shed with a
        /// typed `DeadlineExceeded` error (0 = no budget).
        budget_ms: u64,
        /// Enable load-aware degraded-mode planning: step the engine
        /// ladder down (expansion caps, then greedy) as the ingress
        /// queue deepens, with hysteresis on recovery.
        degrade: bool,
        /// Seed for a chaos fault plan (planner panics, latency
        /// spikes, WAL faults) injected into the run; absent = none.
        chaos_seed: Option<u64>,
        /// Two-level sharded placement for every planned request.
        shard: bool,
        /// Candidate pods the coarse stage keeps (0 = engine default).
        pods: usize,
        /// Bypass the service: replay the same stream through one warm
        /// session in event order (the baseline for the digest diff).
        serial: bool,
        /// Run the background maintenance plane after the stream
        /// drains: the surviving tenants become the ledger and a few
        /// all-healthy maintenance ticks defragment them through the
        /// service's authority lock (epoch bumps included).
        maintain: bool,
        /// Optional path to the pre-existing capacity state.
        state: Option<String>,
        /// Optional journal directory; acknowledged commits are
        /// group-commit fsynced before delivery.
        wal_dir: Option<String>,
    },
    /// Run a deterministic self-healing maintenance scenario: seeded
    /// fill/decay churn fragments the fleet, then the maintenance
    /// plane (phi-accrual health detection, suspicion-driven drains,
    /// budgeted defrag sweeps) repairs it. Prints fragmentation
    /// gauges before/after plus determinism digests.
    Maintain {
        /// Path to the infrastructure spec.
        infra: String,
        /// The planner algorithm for drain/defrag re-placements.
        algorithm: Algorithm,
        /// Objective weights.
        weights: ObjectiveWeights,
        /// Seeded tenant arrivals in the fill phase.
        arrivals: usize,
        /// Fraction of placed tenants departing in the decay phase.
        decay: f64,
        /// Seed for the workload and the heartbeat streams.
        seed: u64,
        /// Maintenance ticks to run after the decay.
        ticks: u64,
        /// Node-moves one defrag sweep may spend.
        sweep_budget: u32,
        /// Tenants one sweep examines (round-robin over the ledger).
        candidates: usize,
        /// Hosts whose heartbeats fail-stop mid-run (exercises the
        /// drain path: Suspect → Draining → Dead).
        fail_stop: usize,
        /// Hosts whose heartbeats slow down but stay regular (must
        /// NOT be suspected).
        gray: usize,
        /// Hosts that skip a few beats then recover (exercises the
        /// hysteretic Suspect → Healthy edge).
        flappy: usize,
        /// Two-level sharded placement for re-placements.
        shard: bool,
        /// Candidate pods the coarse stage keeps (0 = engine default).
        pods: usize,
        /// Run the churn but skip the maintenance plane entirely —
        /// the equal-churn baseline `scripts/verify.sh` compares
        /// fragmentation indices against.
        no_maintenance: bool,
        /// Optional path to the pre-existing capacity state.
        state: Option<String>,
        /// Optional journal directory; every migration is journaled.
        wal_dir: Option<String>,
    },
    /// Reconstruct scheduler state from a write-ahead journal.
    Recover {
        /// Path to the infrastructure spec.
        infra: String,
        /// The journal directory (`wal.log` + `snapshot.json`).
        wal_dir: String,
        /// Optional path to write the recovered capacity state to.
        state_out: Option<String>,
    },
    /// Print an example input file.
    Example {
        /// `infra` or `template`.
        kind: String,
    },
}

/// The JSON document `place` emits (and `validate` consumes).
#[derive(Debug, Serialize, Deserialize)]
pub struct PlacementDocument {
    /// Node name → host name decisions.
    pub assignments: BTreeMap<String, String>,
    /// Total reserved bandwidth in Mbps.
    pub reserved_bandwidth_mbps: u64,
    /// Previously idle hosts activated.
    pub new_active_hosts: usize,
    /// Distinct hosts used.
    pub hosts_used: usize,
    /// Normalized objective value.
    pub objective: f64,
    /// Solver wall-clock seconds.
    pub elapsed_secs: f64,
    /// Search-effort counters, present when `--stats` was passed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stats: Option<SearchStats>,
    /// The template with scheduler hints stamped in.
    pub annotated_template: HeatTemplate,
}

const USAGE: &str = "\
usage:
  ostro inspect  --infra <file> [--state <file>]
  ostro place    --infra <file> --template <file>
                 [--algorithm egc|egbw|eg|bastar|dbastar] [--deadline-ms N]
                 [--theta-bw X] [--theta-c X] [--seed N] [--score-threads N]
                 [--chunk-bytes N] [--session] [--stats] [--shard] [--pods N]
                 [--state <file>] [--commit <file>] [--wal-dir <dir>]
  ostro validate --infra <file> --template <file> --placement <file>
                 [--state <file>]
  ostro churn    --infra <file>
                 [--algorithm egc|egbw|eg|bastar|dbastar] [--deadline-ms N]
                 [--theta-bw X] [--theta-c X] [--seed N]
                 [--arrivals N] [--lifetime N] [--crashes N]
                 [--launch-failure-prob X] [--stale-race-prob X]
                 [--race-leak-prob X] [--reconcile-every N]
                 [--wal-dir <dir>] [--crash-at T1,T2,...]
  ostro serve    --infra <file> [--requests N] [--depart-prob X] [--seed N]
                 [--planners N] [--batch N] [--retries N] [--serial]
                 [--queue-depth N] [--budget-ms N] [--degrade] [--chaos-seed N]
                 [--shard] [--pods N] [--maintain]
                 [--algorithm egc|egbw|eg|bastar|dbastar] [--deadline-ms N]
                 [--theta-bw X] [--theta-c X]
                 [--state <file>] [--wal-dir <dir>]
  ostro maintain --infra <file> [--arrivals N] [--decay X] [--seed N]
                 [--ticks N] [--sweep-budget N] [--candidates N]
                 [--fail-stop N] [--gray N] [--flappy N] [--no-maintenance]
                 [--shard] [--pods N]
                 [--algorithm egc|egbw|eg|bastar|dbastar] [--deadline-ms N]
                 [--theta-bw X] [--theta-c X]
                 [--state <file>] [--wal-dir <dir>]
  ostro recover  --infra <file> --wal-dir <dir> [--state-out <file>]
  ostro example  infra|template";

impl Command {
    /// Parses an argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] with a human-readable message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut iter = args.into_iter();
        let sub = iter.next().ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
        let mut flags: BTreeMap<String, String> = BTreeMap::new();
        let mut positional = Vec::new();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                // Boolean switches take no value.
                if matches!(
                    name,
                    "session"
                        | "stats"
                        | "serial"
                        | "degrade"
                        | "shard"
                        | "maintain"
                        | "no-maintenance"
                ) {
                    flags.insert(name.to_owned(), "true".to_owned());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
                flags.insert(name.to_owned(), value);
            } else {
                positional.push(arg);
            }
        }
        let take = |flags: &mut BTreeMap<String, String>, name: &str| -> Result<String, CliError> {
            flags
                .remove(name)
                .ok_or_else(|| CliError::Usage(format!("missing required flag --{name}")))
        };
        let command = match sub.as_str() {
            "inspect" => {
                Command::Inspect { infra: take(&mut flags, "infra")?, state: flags.remove("state") }
            }
            "place" => {
                let algorithm = algorithm_flags(&mut flags)?;
                let weights = weight_flags(&mut flags)?;
                Command::Place {
                    infra: take(&mut flags, "infra")?,
                    template: take(&mut flags, "template")?,
                    algorithm,
                    weights,
                    seed: flags
                        .remove("seed")
                        .map(|v| parse_num(&v, "seed"))
                        .transpose()?
                        .unwrap_or(0xB0DE),
                    score_threads: flags
                        .remove("score-threads")
                        .map(|v| parse_num(&v, "score-threads"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    chunk_bytes: flags
                        .remove("chunk-bytes")
                        .map(|v| parse_num(&v, "chunk-bytes"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    shard: flags.remove("shard").is_some(),
                    pods: flags
                        .remove("pods")
                        .map(|v| parse_num(&v, "pods"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    session: flags.remove("session").is_some(),
                    stats: flags.remove("stats").is_some(),
                    state: flags.remove("state"),
                    commit: flags.remove("commit"),
                    wal_dir: flags.remove("wal-dir"),
                }
            }
            "validate" => Command::Validate {
                infra: take(&mut flags, "infra")?,
                template: take(&mut flags, "template")?,
                placement: take(&mut flags, "placement")?,
                state: flags.remove("state"),
            },
            "churn" => {
                let algorithm = algorithm_flags(&mut flags)?;
                let weights = weight_flags(&mut flags)?;
                Command::Churn {
                    infra: take(&mut flags, "infra")?,
                    algorithm,
                    weights,
                    arrivals: flags
                        .remove("arrivals")
                        .map(|v| parse_num(&v, "arrivals"))
                        .transpose()?
                        .unwrap_or(40) as usize,
                    lifetime: flags
                        .remove("lifetime")
                        .map(|v| parse_num(&v, "lifetime"))
                        .transpose()?
                        .unwrap_or(8) as usize,
                    seed: flags
                        .remove("seed")
                        .map(|v| parse_num(&v, "seed"))
                        .transpose()?
                        .unwrap_or(7),
                    crashes: flags
                        .remove("crashes")
                        .map(|v| parse_num(&v, "crashes"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    launch_failure_prob: flags
                        .remove("launch-failure-prob")
                        .map(|v| parse_float(&v, "launch-failure-prob"))
                        .transpose()?
                        .unwrap_or(0.0),
                    stale_race_prob: flags
                        .remove("stale-race-prob")
                        .map(|v| parse_float(&v, "stale-race-prob"))
                        .transpose()?
                        .unwrap_or(0.0),
                    race_leak_prob: flags
                        .remove("race-leak-prob")
                        .map(|v| parse_float(&v, "race-leak-prob"))
                        .transpose()?
                        .unwrap_or(0.0),
                    reconcile_every: flags
                        .remove("reconcile-every")
                        .map(|v| parse_num(&v, "reconcile-every"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    wal_dir: flags.remove("wal-dir"),
                    crash_at: flags
                        .remove("crash-at")
                        .map(|v| parse_tick_list(&v, "crash-at"))
                        .transpose()?
                        .unwrap_or_default(),
                }
            }
            "serve" => {
                let algorithm = algorithm_flags(&mut flags)?;
                let weights = weight_flags(&mut flags)?;
                Command::Serve {
                    infra: take(&mut flags, "infra")?,
                    algorithm,
                    weights,
                    requests: flags
                        .remove("requests")
                        .map(|v| parse_num(&v, "requests"))
                        .transpose()?
                        .unwrap_or(32) as usize,
                    depart_prob: flags
                        .remove("depart-prob")
                        .map(|v| parse_float(&v, "depart-prob"))
                        .transpose()?
                        .unwrap_or(0.3),
                    seed: flags
                        .remove("seed")
                        .map(|v| parse_num(&v, "seed"))
                        .transpose()?
                        .unwrap_or(0x5EED_57AE),
                    planners: flags
                        .remove("planners")
                        .map(|v| parse_num(&v, "planners"))
                        .transpose()?
                        .unwrap_or(2) as usize,
                    batch: flags
                        .remove("batch")
                        .map(|v| parse_num(&v, "batch"))
                        .transpose()?
                        .unwrap_or(8) as usize,
                    retries: flags
                        .remove("retries")
                        .map(|v| parse_num(&v, "retries"))
                        .transpose()?
                        .unwrap_or(3) as u32,
                    queue_depth: flags
                        .remove("queue-depth")
                        .map(|v| parse_num(&v, "queue-depth"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    budget_ms: flags
                        .remove("budget-ms")
                        .map(|v| parse_num(&v, "budget-ms"))
                        .transpose()?
                        .unwrap_or(0),
                    degrade: flags.remove("degrade").is_some(),
                    chaos_seed: flags
                        .remove("chaos-seed")
                        .map(|v| parse_num(&v, "chaos-seed"))
                        .transpose()?,
                    shard: flags.remove("shard").is_some(),
                    pods: flags
                        .remove("pods")
                        .map(|v| parse_num(&v, "pods"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    serial: flags.remove("serial").is_some(),
                    maintain: flags.remove("maintain").is_some(),
                    state: flags.remove("state"),
                    wal_dir: flags.remove("wal-dir"),
                }
            }
            "maintain" => {
                let algorithm = algorithm_flags(&mut flags)?;
                let weights = weight_flags(&mut flags)?;
                Command::Maintain {
                    infra: take(&mut flags, "infra")?,
                    algorithm,
                    weights,
                    arrivals: flags
                        .remove("arrivals")
                        .map(|v| parse_num(&v, "arrivals"))
                        .transpose()?
                        .unwrap_or(64) as usize,
                    decay: flags
                        .remove("decay")
                        .map(|v| parse_float(&v, "decay"))
                        .transpose()?
                        .unwrap_or(0.5),
                    seed: flags
                        .remove("seed")
                        .map(|v| parse_num(&v, "seed"))
                        .transpose()?
                        .unwrap_or(0xA117_5EED),
                    ticks: flags
                        .remove("ticks")
                        .map(|v| parse_num(&v, "ticks"))
                        .transpose()?
                        .unwrap_or(64),
                    sweep_budget: flags
                        .remove("sweep-budget")
                        .map(|v| parse_num(&v, "sweep-budget"))
                        .transpose()?
                        .unwrap_or(8) as u32,
                    candidates: flags
                        .remove("candidates")
                        .map(|v| parse_num(&v, "candidates"))
                        .transpose()?
                        .unwrap_or(16) as usize,
                    fail_stop: flags
                        .remove("fail-stop")
                        .map(|v| parse_num(&v, "fail-stop"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    gray: flags
                        .remove("gray")
                        .map(|v| parse_num(&v, "gray"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    flappy: flags
                        .remove("flappy")
                        .map(|v| parse_num(&v, "flappy"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    shard: flags.remove("shard").is_some(),
                    pods: flags
                        .remove("pods")
                        .map(|v| parse_num(&v, "pods"))
                        .transpose()?
                        .unwrap_or(0) as usize,
                    no_maintenance: flags.remove("no-maintenance").is_some(),
                    state: flags.remove("state"),
                    wal_dir: flags.remove("wal-dir"),
                }
            }
            "recover" => Command::Recover {
                infra: take(&mut flags, "infra")?,
                wal_dir: take(&mut flags, "wal-dir")?,
                state_out: flags.remove("state-out"),
            },
            "example" => Command::Example {
                kind: positional
                    .first()
                    .cloned()
                    .ok_or_else(|| CliError::Usage("example needs `infra` or `template`".into()))?,
            },
            other => return Err(CliError::Usage(format!("unknown command `{other}`\n{USAGE}"))),
        };
        if let Some(extra) = flags.keys().next() {
            return Err(CliError::Usage(format!("unknown flag --{extra}")));
        }
        Ok(command)
    }

    /// Executes the command, returning its stdout payload.
    ///
    /// # Errors
    ///
    /// Any [`CliError`].
    pub fn execute(&self) -> Result<String, CliError> {
        match self {
            Command::Inspect { infra, state } => inspect(infra, state.as_deref()),
            Command::Place {
                infra,
                template,
                algorithm,
                weights,
                seed,
                score_threads,
                chunk_bytes,
                shard,
                pods,
                session,
                stats,
                state,
                commit,
                wal_dir,
            } => place(&PlaceArgs {
                infra,
                template,
                algorithm: *algorithm,
                weights: *weights,
                seed: *seed,
                score_threads: *score_threads,
                chunk_bytes: *chunk_bytes,
                shard: *shard,
                pods: *pods,
                session: *session,
                stats: *stats,
                state: state.as_deref(),
                commit: commit.as_deref(),
                wal_dir: wal_dir.as_deref(),
            }),
            Command::Validate { infra, template, placement, state } => {
                validate(infra, template, placement, state.as_deref())
            }
            Command::Churn {
                infra,
                algorithm,
                weights,
                arrivals,
                lifetime,
                seed,
                crashes,
                launch_failure_prob,
                stale_race_prob,
                race_leak_prob,
                reconcile_every,
                wal_dir,
                crash_at,
            } => churn(&ChurnArgs {
                infra,
                algorithm: *algorithm,
                weights: *weights,
                arrivals: *arrivals,
                lifetime: *lifetime,
                seed: *seed,
                crashes: *crashes,
                launch_failure_prob: *launch_failure_prob,
                stale_race_prob: *stale_race_prob,
                race_leak_prob: *race_leak_prob,
                reconcile_every: *reconcile_every,
                wal_dir: wal_dir.as_deref(),
                crash_at,
            }),
            Command::Serve {
                infra,
                algorithm,
                weights,
                requests,
                depart_prob,
                seed,
                planners,
                batch,
                retries,
                queue_depth,
                budget_ms,
                degrade,
                chaos_seed,
                shard,
                pods,
                serial,
                maintain,
                state,
                wal_dir,
            } => serve(&ServeArgs {
                infra,
                algorithm: *algorithm,
                weights: *weights,
                requests: *requests,
                depart_prob: *depart_prob,
                seed: *seed,
                planners: *planners,
                batch: *batch,
                retries: *retries,
                queue_depth: *queue_depth,
                budget_ms: *budget_ms,
                degrade: *degrade,
                chaos_seed: *chaos_seed,
                shard: *shard,
                pods: *pods,
                serial: *serial,
                maintain: *maintain,
                state: state.as_deref(),
                wal_dir: wal_dir.as_deref(),
            }),
            Command::Maintain {
                infra,
                algorithm,
                weights,
                arrivals,
                decay,
                seed,
                ticks,
                sweep_budget,
                candidates,
                fail_stop,
                gray,
                flappy,
                shard,
                pods,
                no_maintenance,
                state,
                wal_dir,
            } => maintain_fleet(&MaintainArgs {
                infra,
                algorithm: *algorithm,
                weights: *weights,
                arrivals: *arrivals,
                decay: *decay,
                seed: *seed,
                ticks: *ticks,
                sweep_budget: *sweep_budget,
                candidates: *candidates,
                fail_stop: *fail_stop,
                gray: *gray,
                flappy: *flappy,
                shard: *shard,
                pods: *pods,
                no_maintenance: *no_maintenance,
                state: state.as_deref(),
                wal_dir: wal_dir.as_deref(),
            }),
            Command::Recover { infra, wal_dir, state_out } => {
                recover(infra, wal_dir, state_out.as_deref())
            }
            Command::Example { kind } => example(kind),
        }
    }
}

/// Parses and executes in one go — the whole CLI, minus process I/O.
///
/// # Errors
///
/// Any [`CliError`].
pub fn run<I: IntoIterator<Item = String>>(args: I) -> Result<String, CliError> {
    Command::parse(args)?.execute()
}

/// Shared `--algorithm` / `--deadline-ms` handling for `place`/`churn`.
fn algorithm_flags(flags: &mut BTreeMap<String, String>) -> Result<Algorithm, CliError> {
    let deadline = flags
        .remove("deadline-ms")
        .map(|v| parse_num(&v, "deadline-ms"))
        .transpose()?
        .map(Duration::from_millis)
        .unwrap_or(Duration::from_millis(500));
    match flags.remove("algorithm").as_deref() {
        None | Some("eg") => Ok(Algorithm::Greedy),
        Some("egc") => Ok(Algorithm::GreedyCompute),
        Some("egbw") => Ok(Algorithm::GreedyBandwidth),
        Some("bastar") => Ok(Algorithm::BoundedAStar),
        Some("dbastar") => Ok(Algorithm::DeadlineBoundedAStar { deadline }),
        Some(other) => Err(CliError::Usage(format!("unknown algorithm `{other}`"))),
    }
}

/// Shared `--theta-bw` / `--theta-c` handling for `place`/`churn`.
fn weight_flags(flags: &mut BTreeMap<String, String>) -> Result<ObjectiveWeights, CliError> {
    let theta_bw =
        flags.remove("theta-bw").map(|v| parse_float(&v, "theta-bw")).transpose()?.unwrap_or(0.6);
    let theta_c = flags
        .remove("theta-c")
        .map(|v| parse_float(&v, "theta-c"))
        .transpose()?
        .unwrap_or(1.0 - theta_bw);
    Ok(ObjectiveWeights::new(theta_bw, theta_c)?)
}

fn parse_num(v: &str, flag: &str) -> Result<u64, CliError> {
    v.parse().map_err(|_| CliError::Usage(format!("--{flag}: `{v}` is not a number")))
}

fn parse_float(v: &str, flag: &str) -> Result<f64, CliError> {
    v.parse().map_err(|_| CliError::Usage(format!("--{flag}: `{v}` is not a number")))
}

/// Parses a comma-separated tick list, e.g. `--crash-at 5,13,20`.
fn parse_tick_list(v: &str, flag: &str) -> Result<Vec<usize>, CliError> {
    v.split(',')
        .filter(|part| !part.is_empty())
        .map(|part| parse_num(part.trim(), flag).map(|n| n as usize))
        .collect()
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_owned(), source })?;
    serde_json::from_str(&text).map_err(|source| CliError::Parse { path: path.to_owned(), source })
}

fn write_json<T: Serialize>(path: &str, value: &T) -> Result<(), CliError> {
    let text = serde_json::to_string_pretty(value).expect("serializable");
    std::fs::write(path, text).map_err(|source| CliError::Io { path: path.to_owned(), source })
}

fn load_infra(path: &str) -> Result<Infrastructure, CliError> {
    let spec: InfraSpec = read_json(path)?;
    Ok(spec.build()?)
}

fn load_state(infra: &Infrastructure, path: Option<&str>) -> Result<CapacityState, CliError> {
    match path {
        None => Ok(CapacityState::new(infra)),
        Some(path) => {
            let state: CapacityState = read_json(path)?;
            // A state file for a different fleet would index out of
            // bounds (or silently mis-account); refuse it up front.
            if state.host_count() != infra.host_count() {
                return Err(CliError::StateMismatch {
                    path: path.to_owned(),
                    expected: infra.host_count(),
                    found: state.host_count(),
                });
            }
            Ok(state)
        }
    }
}

fn inspect(infra_path: &str, state_path: Option<&str>) -> Result<String, CliError> {
    let infra = load_infra(infra_path)?;
    let state = load_state(&infra, state_path)?;
    let mut out = String::new();
    let total: ostro_model::Resources = infra.hosts().iter().map(|h| h.capacity()).sum();
    out.push_str(&format!(
        "sites: {}  pods: {}  racks: {}  hosts: {}\n",
        infra.sites().len(),
        infra.pods().iter().filter(|p| !p.is_transparent()).count(),
        infra.racks().len(),
        infra.host_count(),
    ));
    out.push_str(&format!(
        "total capacity: {total}\nactive hosts: {} / {}\nreserved bandwidth: {}\n",
        state.active_host_count(),
        infra.host_count(),
        state.total_reserved_bandwidth(&infra),
    ));
    Ok(out)
}

/// Everything `place` needs, bundled so the executor stays readable.
struct PlaceArgs<'a> {
    infra: &'a str,
    template: &'a str,
    algorithm: Algorithm,
    weights: ObjectiveWeights,
    seed: u64,
    score_threads: usize,
    chunk_bytes: usize,
    shard: bool,
    pods: usize,
    session: bool,
    stats: bool,
    state: Option<&'a str>,
    commit: Option<&'a str>,
    wal_dir: Option<&'a str>,
}

fn place(args: &PlaceArgs) -> Result<String, CliError> {
    let infra = load_infra(args.infra)?;
    let template: HeatTemplate = read_json(args.template)?;
    let mut state = load_state(&infra, args.state)?;
    let (topology, names) = extract_topology(&template)?;
    let request = PlacementRequest {
        algorithm: args.algorithm,
        weights: args.weights,
        seed: args.seed,
        score_threads: args.score_threads,
        chunk_bytes: args.chunk_bytes,
        shard: args.shard,
        pods_considered: args.pods,
        ..PlacementRequest::default()
    };
    // The session path produces bit-identical decisions; it exists so
    // the counters (and a long-running service built on this code
    // path) can be exercised from the command line. `--wal-dir`
    // implies it: the journal protocol is a session concern.
    let outcome = if args.session || args.wal_dir.is_some() {
        let mut session = match args.wal_dir {
            Some(dir) => {
                let (wal, recovery) =
                    Wal::open(std::path::Path::new(dir), &infra, WalOptions::default())?;
                // A non-empty journal is the durable continuation of an
                // earlier run; its books supersede any `--state` file.
                let mut session = if recovery.seq > 0 {
                    SchedulerSession::with_recovery(&infra, &recovery)
                } else {
                    SchedulerSession::with_state(&infra, state)
                };
                session.attach_wal(wal);
                session
            }
            None => SchedulerSession::with_state(&infra, state),
        };
        let outcome = session.place(&topology, &request)?;
        if args.commit.is_some() {
            session.commit(&topology, &outcome.placement)?;
        }
        if let Some(e) = session.take_wal_error() {
            return Err(e.into());
        }
        state = session.into_state();
        outcome
    } else {
        let scheduler = Scheduler::new(&infra);
        let outcome = scheduler.place(&topology, &state, &request)?;
        if args.commit.is_some() {
            scheduler.commit(&topology, &outcome.placement, &mut state)?;
        }
        outcome
    };
    let annotated = annotate_template(&template, &outcome.placement, &infra, &names);

    if let Some(commit_path) = args.commit {
        write_json(commit_path, &state)?;
    }

    let document = PlacementDocument {
        assignments: names
            .iter()
            .map(|(name, &node)| {
                (name.clone(), infra.host(outcome.placement.host_of(node)).name().to_owned())
            })
            .collect(),
        reserved_bandwidth_mbps: outcome.reserved_bandwidth.as_mbps(),
        new_active_hosts: outcome.new_active_hosts,
        hosts_used: outcome.hosts_used,
        objective: outcome.objective,
        elapsed_secs: outcome.elapsed.as_secs_f64(),
        stats: args.stats.then_some(outcome.stats),
        annotated_template: annotated,
    };
    Ok(serde_json::to_string_pretty(&document).expect("serializable") + "\n")
}

fn validate(
    infra_path: &str,
    template_path: &str,
    placement_path: &str,
    state_path: Option<&str>,
) -> Result<String, CliError> {
    let infra = load_infra(infra_path)?;
    let template: HeatTemplate = read_json(template_path)?;
    let state = load_state(&infra, state_path)?;
    let (topology, names) = extract_topology(&template)?;
    let document: PlacementDocument = read_json(placement_path)?;

    let host_by_name: BTreeMap<&str, HostId> =
        infra.hosts().iter().map(|h| (h.name(), h.id())).collect();
    let mut assignments = vec![HostId::from_index(0); topology.node_count()];
    for (name, &node) in &names {
        let host_name = document.assignments.get(name).ok_or_else(|| {
            CliError::Usage(format!("placement document is missing node `{name}`"))
        })?;
        let host = host_by_name.get(host_name.as_str()).ok_or_else(|| {
            CliError::Usage(format!("placement names unknown host `{host_name}`"))
        })?;
        assignments[node.index()] = *host;
    }
    let placement = Placement::new(assignments);
    let violations = verify_placement(&topology, &infra, &state, &placement)?;
    if violations.is_empty() {
        Ok("placement is valid\n".to_owned())
    } else {
        let mut out = format!("{} violation(s):\n", violations.len());
        for v in violations {
            out.push_str(&format!("  - {v}\n"));
        }
        Ok(out)
    }
}

/// Everything `churn` needs, bundled so the executor stays readable.
struct ChurnArgs<'a> {
    infra: &'a str,
    algorithm: Algorithm,
    weights: ObjectiveWeights,
    arrivals: usize,
    lifetime: usize,
    seed: u64,
    crashes: usize,
    launch_failure_prob: f64,
    stale_race_prob: f64,
    race_leak_prob: f64,
    reconcile_every: usize,
    wal_dir: Option<&'a str>,
    crash_at: &'a [usize],
}

fn churn(args: &ChurnArgs) -> Result<String, CliError> {
    let infra = load_infra(args.infra)?;
    let inject = args.crashes > 0
        || args.launch_failure_prob > 0.0
        || args.stale_race_prob > 0.0
        || args.race_leak_prob > 0.0;
    let faults = inject.then(|| ostro_sim::FaultConfig {
        seed: args.seed,
        host_crashes: args.crashes,
        launch_failure_prob: args.launch_failure_prob,
        stale_race_prob: args.stale_race_prob,
        race_leak_prob: args.race_leak_prob,
        ..ostro_sim::FaultConfig::default()
    });
    let recovery = args.wal_dir.map(|dir| ostro_sim::RecoveryConfig {
        wal_dir: dir.to_owned(),
        crash_ticks: args.crash_at.to_vec(),
        snapshot_every: 64,
    });
    let config = ostro_sim::ChurnConfig {
        arrivals: args.arrivals,
        mean_lifetime: args.lifetime.max(1),
        seed: args.seed,
        weights: args.weights,
        faults,
        recovery,
        reconcile_every: args.reconcile_every,
        ..ostro_sim::ChurnConfig::default()
    };
    let report = ostro_sim::run_churn(&infra, args.algorithm, &config)?;
    Ok(serde_json::to_string_pretty(&report).expect("serializable") + "\n")
}

/// Everything `serve` needs, bundled so the executor stays readable.
struct ServeArgs<'a> {
    infra: &'a str,
    algorithm: Algorithm,
    weights: ObjectiveWeights,
    requests: usize,
    depart_prob: f64,
    seed: u64,
    planners: usize,
    batch: usize,
    retries: u32,
    queue_depth: usize,
    budget_ms: u64,
    degrade: bool,
    chaos_seed: Option<u64>,
    shard: bool,
    pods: usize,
    serial: bool,
    maintain: bool,
    state: Option<&'a str>,
    wal_dir: Option<&'a str>,
}

/// Maintenance ticks `serve --maintain` runs once the stream drains.
const SERVE_MAINTENANCE_TICKS: u64 = 8;

/// The JSON document `serve` emits.
#[derive(Debug, Serialize, Deserialize)]
pub struct ServeReport {
    /// `"service"` or `"serial"`.
    pub mode: String,
    /// Hosts in the fleet.
    pub hosts: usize,
    /// Tenant arrivals offered.
    pub arrivals: usize,
    /// Departures in the schedule.
    pub departures: usize,
    /// Arrivals admitted.
    pub placed: usize,
    /// Arrivals the books could not fit.
    pub rejected: usize,
    /// Arrivals shed by the robustness machinery: the bounded ingress
    /// queue, the admission deadline budget, or a durability rollback.
    #[serde(default)]
    pub shed: usize,
    /// Arrivals whose planning invocation panicked; the panic was
    /// contained and surfaced as a typed error.
    #[serde(default)]
    pub panicked: usize,
    /// Tenants released back.
    pub released: usize,
    /// Offered arrivals over the driver's wall clock.
    pub requests_per_sec: f64,
    /// Median submit→acknowledge latency.
    pub p50_ms: f64,
    /// Tail submit→acknowledge latency.
    pub p99_ms: f64,
    /// Order-independent digest of the *decided* set — arrivals that
    /// were placed or genuinely rejected against the books. Equal
    /// digests mean every decided arrival got the same placement (or
    /// rejection). Shed and panicked arrivals are excluded (they fold
    /// into [`shed_digest`](Self::shed_digest) instead) so a
    /// `--planners 1 --batch 1` service run still matches `--serial`
    /// when nothing was shed.
    pub decision_digest: String,
    /// Order-independent digest of the shed/panicked set, tagged by
    /// shed class — the overload counterpart of the decision digest.
    #[serde(default)]
    pub shed_digest: String,
    /// The first journaling failure the run latched (durability was
    /// degraded from that point on); surfaced loudly rather than
    /// silently dropping acknowledged commits.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wal_error: Option<String>,
    /// The service's cumulative counters (conflicts, stale admissions,
    /// re-plans, the batch-size histogram); absent in `--serial` mode.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub service: Option<ServiceStats>,
    /// Maintenance-plane counters from the post-stream defrag pass;
    /// present only with `--maintain`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub maintenance: Option<MaintStats>,
}

/// SplitMix64 finalizer — a cheap, stable bit mixer for the digest.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Tag folded into the decision digest for a genuine rejection (the
/// value predates the shed digest — keeping it preserves digest
/// compatibility with earlier serve reports).
const REJECTED_TAG: u64 = 0x0dec_1ded;

/// Shed-class tags folded into the shed digest, one per way the
/// robustness machinery can refuse an arrival without deciding it.
const SHED_QUEUE_TAG: u64 = 0x0dec_1ded;
const SHED_DEADLINE_TAG: u64 = 0xdead_11fe;
const SHED_PANIC_TAG: u64 = 0x009a_0a1c;
const SHED_DURABILITY_TAG: u64 = 0xd15c_f011;

/// How one arrival left the run: a committed placement, a genuine
/// rejection against the books, or a shed (admission control, a
/// contained panic, or a durability rollback — tagged by class).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Placed,
    Rejected,
    Shed(u64),
}

/// Classifies a service failure: overload/fault outcomes are sheds
/// (with their class tag); anything else is a real planning rejection.
fn classify_failure(err: &PlacementError) -> Decision {
    match err {
        PlacementError::QueueFull { .. } => Decision::Shed(SHED_QUEUE_TAG),
        PlacementError::DeadlineExceeded { .. } => Decision::Shed(SHED_DEADLINE_TAG),
        PlacementError::PlannerPanic { .. } => Decision::Shed(SHED_PANIC_TAG),
        PlacementError::Durability { .. } => Decision::Shed(SHED_DURABILITY_TAG),
        _ => Decision::Rejected,
    }
}

/// Order-independent digests of the run's outcome: one mixed hash per
/// arrival (its ordinal plus every node→host edge, or a class tag),
/// XOR-folded so any submission interleaving that reaches the same
/// per-arrival outcomes reaches the same digests.
///
/// Returns `(decision_digest, shed_digest)`. Shed arrivals fold only
/// into the shed digest, so the decision digest stays comparable
/// between a `--serial` replay (which never sheds) and a service run.
fn decision_digests(placements: &[Option<Placement>], decisions: &[Decision]) -> (u64, u64) {
    let mut decided = 0u64;
    let mut shed = 0u64;
    for (arrival, decision) in decisions.iter().enumerate() {
        let base = mix64(arrival as u64 ^ 0x9e37_79b9_7f4a_7c15);
        match decision {
            Decision::Placed => {
                let mut h = base;
                if let Some(p) = &placements[arrival] {
                    for (node, host) in p.assignments().iter().enumerate() {
                        h = mix64(h ^ ((node as u64) << 32) ^ host.index() as u64);
                    }
                }
                decided ^= h;
            }
            Decision::Rejected => decided ^= mix64(base ^ REJECTED_TAG),
            Decision::Shed(tag) => shed ^= mix64(base ^ tag),
        }
    }
    (decided, shed)
}

/// Nearest-rank percentile over an ascending-sorted latency list.
fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn serve(args: &ServeArgs) -> Result<String, CliError> {
    if args.maintain && args.serial {
        return Err(CliError::Usage(
            "--maintain exercises the service's maintenance path; drop --serial".into(),
        ));
    }
    let infra = load_infra(args.infra)?;
    let state = load_state(&infra, args.state)?;
    let plan = ostro_sim::arrival_stream(&ostro_sim::StreamConfig {
        requests: args.requests,
        depart_prob: args.depart_prob,
        seed: args.seed,
        burst: 0,
    })
    .map_err(ostro_sim::SimError::from)?;
    let shapes: Vec<Arc<ApplicationTopology>> = plan.shapes.iter().cloned().map(Arc::new).collect();
    let request = PlacementRequest {
        algorithm: args.algorithm,
        weights: args.weights,
        seed: args.seed,
        shard: args.shard,
        pods_considered: args.pods,
        ..PlacementRequest::default()
    };

    let mut session = match args.wal_dir {
        Some(dir) => {
            let (wal, recovery) =
                Wal::open(std::path::Path::new(dir), &infra, WalOptions::default())?;
            let mut session = if recovery.seq > 0 {
                SchedulerSession::with_recovery(&infra, &recovery)
            } else {
                SchedulerSession::with_state(&infra, state)
            };
            session.attach_wal(wal);
            // Snapshot the starting books so a replay of the journal
            // recovers onto the same base a crashed service would.
            session.checkpoint()?;
            session
        }
        None => SchedulerSession::with_state(&infra, state),
    };
    let chaos = args.chaos_seed.map(|seed| {
        ostro_sim::ChaosPlan::new(ostro_sim::ChaosConfig {
            seed,
            ..ostro_sim::ChaosConfig::default()
        })
    });
    if let Some(chaos) = &chaos {
        // No-op without `--wal-dir`; with one, journal writes draw
        // injected faults (the serve path's durability drill).
        session.set_wal_fault_hook(Some(chaos.wal_hook()));
    }

    let arrivals = plan.arrivals();
    let mut placements: Vec<Option<Placement>> = vec![None; arrivals];
    let mut decisions: Vec<Decision> = vec![Decision::Rejected; arrivals];
    let mut latencies: Vec<f64> = Vec::with_capacity(arrivals);
    let mut placed = 0usize;
    let mut released = 0usize;
    let wal_error;
    let mut service_stats = None;
    let mut maintenance_stats: Option<MaintStats> = None;
    let start = Instant::now();
    if args.serial {
        for event in &plan.events {
            match *event {
                ostro_sim::StreamEvent::Arrive { arrival, shape } => {
                    let t0 = Instant::now();
                    let outcome = session.place(&shapes[shape], &request);
                    latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                    match outcome {
                        Ok(outcome) => {
                            session.commit(&shapes[shape], &outcome.placement)?;
                            placements[arrival] = Some(outcome.placement);
                            decisions[arrival] = Decision::Placed;
                            placed += 1;
                        }
                        Err(_) => decisions[arrival] = Decision::Rejected,
                    }
                }
                ostro_sim::StreamEvent::Depart { arrival } => {
                    if let Some(placement) = placements[arrival].clone() {
                        session.release(&shapes[plan.shape_of[arrival]], &placement)?;
                        released += 1;
                    }
                }
            }
        }
        wal_error = session.take_wal_error().map(|e| e.to_string());
    } else {
        let config = ServiceConfig {
            planners: args.planners.max(1),
            batch: args.batch.max(1),
            max_retries: args.retries,
            queue_depth: args.queue_depth,
            deadline_ms: args.budget_ms,
            degrade: DegradePolicy { enabled: args.degrade, ..DegradePolicy::default() },
            ..ServiceConfig::default()
        };
        let mut service = PlacementService::new(session, config);
        if let Some(chaos) = &chaos {
            service.set_plan_hook(Some(chaos.plan_hook()));
        }
        let mut plane_slot: Option<MaintenancePlane> = None;
        service.serve(|handle| {
            let mut pending: Vec<Option<(Ticket, Instant)>> = (0..arrivals).map(|_| None).collect();
            let mut released_flags = vec![false; arrivals];
            let mut release_tickets: Vec<Ticket> = Vec::new();
            let resolve = |(ticket, t0): (Ticket, Instant)| -> (Option<Placement>, Decision, f64) {
                let (response, when) = ticket.wait_timed();
                let ms = when.duration_since(t0).as_secs_f64() * 1e3;
                match response {
                    ServiceResponse::Placed(outcome) => {
                        (Some(outcome.outcome.placement), Decision::Placed, ms)
                    }
                    ServiceResponse::Failed(err) => (None, classify_failure(&err), ms),
                    ServiceResponse::Released { .. } => (None, Decision::Rejected, ms),
                }
            };
            for event in &plan.events {
                match *event {
                    ostro_sim::StreamEvent::Arrive { arrival, shape } => {
                        let ticket = handle.submit(Arc::clone(&shapes[shape]), request.clone());
                        pending[arrival] = Some((ticket, Instant::now()));
                    }
                    ostro_sim::StreamEvent::Depart { arrival } => {
                        // A tenant can only be torn down once its own
                        // admission is acknowledged; resolve it now. A
                        // shed or rejected arrival has nothing to tear
                        // down — the departure is skipped.
                        if let Some(pair) = pending[arrival].take() {
                            let (placement, decision, ms) = resolve(pair);
                            latencies.push(ms);
                            decisions[arrival] = decision;
                            if let Some(placement) = placement {
                                placements[arrival] = Some(placement.clone());
                                placed += 1;
                                released_flags[arrival] = true;
                                release_tickets.push(handle.submit_release(
                                    Arc::clone(&shapes[plan.shape_of[arrival]]),
                                    placement,
                                ));
                            }
                        }
                    }
                }
            }
            for arrival in 0..arrivals {
                if let Some(pair) = pending[arrival].take() {
                    let (placement, decision, ms) = resolve(pair);
                    latencies.push(ms);
                    decisions[arrival] = decision;
                    if let Some(placement) = placement {
                        placements[arrival] = Some(placement);
                        placed += 1;
                    }
                }
            }
            for ticket in release_tickets {
                if matches!(ticket.wait(), ServiceResponse::Released { .. }) {
                    released += 1;
                }
            }
            if args.maintain {
                // The survivors become the maintenance ledger; a few
                // all-healthy ticks defragment them through the
                // service's authority lock.
                let mut ledger: Vec<TenantRecord> = (0..arrivals)
                    .filter(|&a| !released_flags[a])
                    .filter_map(|a| {
                        placements[a].clone().map(|placement| TenantRecord {
                            id: a as u64,
                            topology: Arc::clone(&shapes[plan.shape_of[a]]),
                            placement,
                        })
                    })
                    .collect();
                let cfg = MaintenanceConfig { request: request.clone(), ..Default::default() };
                let mut plane = MaintenancePlane::new(cfg, infra.host_count());
                for tick in 0..SERVE_MAINTENANCE_TICKS {
                    for i in 0..infra.host_count() {
                        plane.heartbeat(HostId::from_index(i as u32), tick);
                    }
                    handle.maintain(&mut plane, &mut ledger, tick);
                }
                plane_slot = Some(plane);
            }
        });
        maintenance_stats = plane_slot.map(|plane| *plane.stats());
        service_stats = Some(service.stats());
        let mut session = service.into_session();
        wal_error = session.take_wal_error().map(|e| e.to_string());
    }
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_by(f64::total_cmp);
    let mut rejected = 0usize;
    let mut shed = 0usize;
    let mut panicked = 0usize;
    for decision in &decisions {
        match decision {
            Decision::Placed => {}
            Decision::Rejected => rejected += 1,
            Decision::Shed(SHED_PANIC_TAG) => panicked += 1,
            Decision::Shed(_) => shed += 1,
        }
    }
    let (decided_digest, shed_digest) = decision_digests(&placements, &decisions);
    let report = ServeReport {
        mode: if args.serial { "serial" } else { "service" }.to_owned(),
        hosts: infra.host_count(),
        arrivals,
        departures: plan.departures(),
        placed,
        rejected,
        shed,
        panicked,
        released,
        requests_per_sec: arrivals as f64 / elapsed,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        decision_digest: format!("{decided_digest:016x}"),
        shed_digest: format!("{shed_digest:016x}"),
        wal_error,
        service: service_stats,
        maintenance: maintenance_stats,
    };
    Ok(serde_json::to_string_pretty(&report).expect("serializable") + "\n")
}

/// Everything `maintain` needs, bundled so the executor stays readable.
struct MaintainArgs<'a> {
    infra: &'a str,
    algorithm: Algorithm,
    weights: ObjectiveWeights,
    arrivals: usize,
    decay: f64,
    seed: u64,
    ticks: u64,
    sweep_budget: u32,
    candidates: usize,
    fail_stop: usize,
    gray: usize,
    flappy: usize,
    shard: bool,
    pods: usize,
    no_maintenance: bool,
    state: Option<&'a str>,
    wal_dir: Option<&'a str>,
}

/// The JSON document `maintain` emits. Every field is a pure function
/// of the inputs — no wall-clock — so `scripts/verify.sh` diffs two
/// same-seed runs whole.
#[derive(Debug, Serialize, Deserialize)]
pub struct MaintainReport {
    /// Hosts in the fleet.
    pub hosts: usize,
    /// Seeded arrivals offered in the fill phase.
    pub arrivals: usize,
    /// Arrivals the books admitted.
    pub placed: usize,
    /// Tenants departing in the decay phase.
    pub departures: usize,
    /// Tenants still placed when maintenance started.
    pub survivors: usize,
    /// Whether the maintenance plane ran (false with
    /// `--no-maintenance`).
    pub maintained: bool,
    /// Maintenance ticks run.
    pub ticks: u64,
    /// Fragmentation gauges after the decay, before maintenance.
    pub frag_before: FragStats,
    /// Fragmentation gauges after maintenance (equal to
    /// `frag_before` when it did not run).
    pub frag_after: FragStats,
    /// Maintenance-plane counters; absent with `--no-maintenance`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub maintenance: Option<MaintStats>,
    /// Hosts the failure detector is draining at the end of the run.
    #[serde(default)]
    pub draining_hosts: Vec<String>,
    /// Hosts declared dead (drain completed or φ past the threshold).
    #[serde(default)]
    pub dead_hosts: Vec<String>,
    /// Migrations in the plane's journal-ordered migration log.
    #[serde(default)]
    pub migrations: usize,
    /// Digest of the serialized migration log; two same-seed runs
    /// must agree bit-for-bit.
    pub migration_log_digest: String,
    /// Digest of every surviving tenant's final placement — the
    /// "final decision digest" the determinism gate diffs.
    pub placement_digest: String,
    /// The first journaling failure, if any.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub wal_error: Option<String>,
}

/// A hash mapped to the unit interval `[0, 1)` with 53-bit precision.
fn unit(x: u64) -> f64 {
    (mix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded tenant family for `maintain`: short chains with linked
/// demands, derived from the splitmix mixer so the CLI needs no RNG.
fn maintenance_tenant(seed: u64, id: u64) -> ApplicationTopology {
    let h = mix64(seed ^ mix64(id ^ 0x007E_4A47));
    let vms = 2 + (h % 3) as usize;
    let mut b = TopologyBuilder::new(format!("t{id}"));
    let mut prev = None;
    for i in 0..vms {
        let hi = mix64(h ^ i as u64);
        let node = b
            .vm(format!("vm{i}"), 1 + (hi % 3) as u32, 1_024 * (1 + ((hi >> 8) % 3)))
            .expect("generated VM demand is valid");
        if let Some(p) = prev {
            b.link(p, node, Bandwidth::from_mbps(50 + ((hi >> 16) % 100)))
                .expect("generated link demand is valid");
        }
        prev = Some(node);
    }
    b.build().expect("generated topology is valid")
}

/// Folds the ledger's placements into one digest: equal digests mean
/// every surviving tenant ended on exactly the same hosts.
fn ledger_digest(ledger: &[TenantRecord]) -> u64 {
    let mut digest = 0u64;
    for t in ledger {
        digest = mix64(digest ^ t.id);
        for (node, host) in t.placement.iter() {
            digest = mix64(digest ^ (((node.index() as u64) << 32) | host.index() as u64));
        }
    }
    digest
}

/// FNV-1a over serialized text, splitmix-finalized.
fn text_digest(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

fn maintain_fleet(args: &MaintainArgs) -> Result<String, CliError> {
    let infra = load_infra(args.infra)?;
    let state = load_state(&infra, args.state)?;
    let request = PlacementRequest {
        algorithm: args.algorithm,
        weights: args.weights,
        seed: args.seed,
        shard: args.shard,
        pods_considered: args.pods,
        ..PlacementRequest::default()
    };
    let mut session = match args.wal_dir {
        Some(dir) => {
            let (wal, recovery) =
                Wal::open(std::path::Path::new(dir), &infra, WalOptions::default())?;
            let mut session = if recovery.seq > 0 {
                SchedulerSession::with_recovery(&infra, &recovery)
            } else {
                SchedulerSession::with_state(&infra, state)
            };
            session.attach_wal(wal);
            session
        }
        None => SchedulerSession::with_state(&infra, state),
    };

    // Fill: seeded arrivals, committed as they land.
    let mut ledger: Vec<TenantRecord> = Vec::with_capacity(args.arrivals);
    let mut placed = 0usize;
    for id in 0..args.arrivals as u64 {
        let topology = maintenance_tenant(args.seed, id);
        let Ok(outcome) = session.place(&topology, &request) else { continue };
        session.commit(&topology, &outcome.placement)?;
        ledger.push(TenantRecord {
            id,
            topology: Arc::new(topology),
            placement: outcome.placement,
        });
        placed += 1;
    }

    // Decay: a seeded fraction departs, stranding the survivors.
    let mut departures = 0usize;
    let mut survivors = Vec::with_capacity(ledger.len());
    for t in ledger {
        if unit(args.seed ^ 0xD_EC_A7 ^ mix64(t.id)) < args.decay {
            session.release(&t.topology, &t.placement)?;
            departures += 1;
        } else {
            survivors.push(t);
        }
    }
    let mut ledger = survivors;
    let frag_before = FragStats::compute(&infra, session.state(), &ledger);

    let mut maintenance = None;
    let mut draining_hosts = Vec::new();
    let mut dead_hosts = Vec::new();
    let mut migrations = 0usize;
    let mut log_digest = text_digest("[]");
    if !args.no_maintenance {
        // A 2-tick heartbeat period (and a matching detector prior)
        // keeps fail-stop detection and the drain inside the default
        // 64-tick run.
        let hb = HeartbeatPlan::generate(
            &HeartbeatConfig {
                seed: args.seed,
                interval: 2,
                fail_stop: args.fail_stop,
                gray: args.gray,
                flappy: args.flappy,
                ..HeartbeatConfig::default()
            },
            infra.host_count(),
            args.ticks as usize,
        );
        let cfg = MaintenanceConfig {
            health: HealthConfig { expected_interval: 2, ..HealthConfig::default() },
            request: request.clone(),
            sweep_budget: args.sweep_budget,
            sweep_candidates: args.candidates.max(1),
            ..MaintenanceConfig::default()
        };
        let mut plane = MaintenancePlane::new(cfg, infra.host_count());
        for tick in 0..args.ticks {
            for host in hb.beats_at(tick) {
                plane.heartbeat(host, tick);
            }
            plane.tick(&mut session, &mut ledger, tick, MaintenanceLoad::default());
        }
        let host_names = |hosts: Vec<HostId>| -> Vec<String> {
            hosts.into_iter().map(|h| infra.host(h).name().to_owned()).collect()
        };
        draining_hosts = host_names(plane.monitor().hosts_in(HealthState::Draining));
        dead_hosts = host_names(plane.monitor().hosts_in(HealthState::Dead));
        migrations = plane.migration_log().len();
        log_digest =
            text_digest(&serde_json::to_string(plane.migration_log()).expect("serializable"));
        maintenance = Some(*plane.stats());
    }
    let frag_after = FragStats::compute(&infra, session.state(), &ledger);
    let wal_error = session.take_wal_error().map(|e| e.to_string());

    let report = MaintainReport {
        hosts: infra.host_count(),
        arrivals: args.arrivals,
        placed,
        departures,
        survivors: ledger.len(),
        maintained: !args.no_maintenance,
        ticks: if args.no_maintenance { 0 } else { args.ticks },
        frag_before,
        frag_after,
        maintenance,
        draining_hosts,
        dead_hosts,
        migrations,
        migration_log_digest: format!("{log_digest:016x}"),
        placement_digest: format!("{:016x}", ledger_digest(&ledger)),
        wal_error,
    };
    Ok(serde_json::to_string_pretty(&report).expect("serializable") + "\n")
}

/// The JSON document `recover` emits.
#[derive(Debug, Serialize, Deserialize)]
pub struct RecoveryDocument {
    /// Last mutation sequence number made durable.
    pub seq: u64,
    /// Sequence the snapshot covers, if one was taken.
    pub snapshot_seq: Option<u64>,
    /// Journal records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Whether a torn tail was truncated during recovery.
    pub truncated_tail: bool,
    /// Names of quarantined hosts carried over.
    pub quarantined: Vec<String>,
    /// Active hosts in the recovered books.
    pub active_hosts: usize,
}

fn recover(infra_path: &str, wal_dir: &str, state_out: Option<&str>) -> Result<String, CliError> {
    let infra = load_infra(infra_path)?;
    let recovery = ostro_core::recover(std::path::Path::new(wal_dir), &infra)?;
    if let Some(path) = state_out {
        write_json(path, &recovery.state)?;
    }
    let document = RecoveryDocument {
        seq: recovery.seq,
        snapshot_seq: recovery.snapshot_seq,
        records_replayed: recovery.records_replayed,
        truncated_tail: recovery.truncated_tail,
        quarantined: recovery
            .quarantined
            .iter()
            .map(|&h| infra.host(h).name().to_owned())
            .collect(),
        active_hosts: recovery.state.active_host_count(),
    };
    Ok(serde_json::to_string_pretty(&document).expect("serializable") + "\n")
}

fn example(kind: &str) -> Result<String, CliError> {
    match kind {
        "infra" => Ok(EXAMPLE_INFRA.trim_start().to_owned()),
        "template" => Ok(EXAMPLE_TEMPLATE.trim_start().to_owned()),
        other => Err(CliError::Usage(format!("unknown example `{other}` (infra|template)"))),
    }
}

const EXAMPLE_INFRA: &str = r#"
{
  "sites": [{
    "name": "east",
    "backbone_uplink_mbps": 400000,
    "racks": [
      {"name": "r0", "uplink_mbps": 100000, "hosts": 16,
       "host": {"vcpus": 16, "memory_mb": 32768, "disk_gb": 1000, "nic_mbps": 10000}},
      {"name": "r1", "uplink_mbps": 100000, "hosts": 16,
       "host": {"vcpus": 16, "memory_mb": 32768, "disk_gb": 1000, "nic_mbps": 10000}}
    ]
  }]
}
"#;

const EXAMPLE_TEMPLATE: &str = r#"
{
  "heat_template_version": "2015-04-30",
  "description": "two web servers on different hosts, a database, and its volume",
  "resources": {
    "web1": {"type": "OS::Nova::Server", "properties": {"vcpus": 2, "memory_mb": 4096}},
    "web2": {"type": "OS::Nova::Server", "properties": {"vcpus": 2, "memory_mb": 4096}},
    "db":   {"type": "OS::Nova::Server", "properties": {"vcpus": 4, "memory_mb": 8192}},
    "data": {"type": "OS::Cinder::Volume", "properties": {"size_gb": 200}},
    "p1": {"type": "ATT::QoS::Pipe",
           "properties": {"between": ["web1", "db"], "bandwidth_mbps": 100}},
    "p2": {"type": "ATT::QoS::Pipe",
           "properties": {"between": ["web2", "db"], "bandwidth_mbps": 100}},
    "att": {"type": "OS::Cinder::VolumeAttachment",
            "properties": {"instance": "db", "volume": "data",
                            "bandwidth_mbps": 300}},
    "dz": {"type": "ATT::QoS::DiversityZone",
           "properties": {"level": "host", "members": ["web1", "web2"]}}
  }
}
"#;

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn write_examples(dir: &std::path::Path) -> (String, String) {
        let infra = dir.join("infra.json");
        let template = dir.join("app.json");
        std::fs::write(&infra, example("infra").unwrap()).unwrap();
        std::fs::write(&template, example("template").unwrap()).unwrap();
        (infra.to_str().unwrap().to_owned(), template.to_str().unwrap().to_owned())
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ostro-cli-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(Command::parse(argv("")), Err(CliError::Usage(_))));
        assert!(matches!(Command::parse(argv("frob")), Err(CliError::Usage(_))));
        assert!(matches!(Command::parse(argv("place --infra x.json")), Err(CliError::Usage(_))));
        assert!(matches!(
            Command::parse(argv("place --infra a --template b --algorithm quantum")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            Command::parse(argv("inspect --infra a --bogus 1")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parse_accepts_full_place_invocation() {
        let cmd = Command::parse(argv(
            "place --infra i.json --template t.json --algorithm dbastar \
             --deadline-ms 250 --theta-bw 0.99 --theta-c 0.01 --seed 7 \
             --score-threads 3 --chunk-bytes 65536 --session --stats \
             --shard --pods 6 --state s.json --commit out.json",
        ))
        .unwrap();
        match cmd {
            Command::Place {
                algorithm,
                weights,
                seed,
                score_threads,
                chunk_bytes,
                shard,
                pods,
                session,
                stats,
                state,
                commit,
                ..
            } => {
                assert_eq!(
                    algorithm,
                    Algorithm::DeadlineBoundedAStar { deadline: Duration::from_millis(250) }
                );
                assert_eq!(weights, ObjectiveWeights::BANDWIDTH_DOMINANT);
                assert_eq!(seed, 7);
                assert_eq!(score_threads, 3);
                assert_eq!(chunk_bytes, 65_536);
                assert!(session, "--session is a boolean switch");
                assert!(stats, "--stats is a boolean switch");
                assert!(shard, "--shard is a boolean switch");
                assert_eq!(pods, 6);
                assert_eq!(state.as_deref(), Some("s.json"));
                assert_eq!(commit.as_deref(), Some("out.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        // Without the switches both default off.
        match Command::parse(argv("place --infra i --template t")).unwrap() {
            Command::Place { session, stats, chunk_bytes, shard, pods, .. } => {
                assert!(!session);
                assert!(!stats);
                assert!(!shard);
                assert_eq!(pods, 0, "0 = engine default K");
                assert_eq!(chunk_bytes, 0);
            }
            other => panic!("wrong command {other:?}"),
        }
    }

    #[test]
    fn end_to_end_place_commit_inspect_validate() {
        let dir = tempdir("e2e");
        let (infra, template) = write_examples(&dir);
        let state_out = dir.join("state.json").to_str().unwrap().to_owned();
        let placement_out = dir.join("placement.json");

        // Place and commit.
        let output =
            run(argv(&format!("place --infra {infra} --template {template} --commit {state_out}")))
                .unwrap();
        std::fs::write(&placement_out, &output).unwrap();
        let doc: PlacementDocument = serde_json::from_str(&output).unwrap();
        assert_eq!(doc.assignments.len(), 4);
        assert_ne!(doc.assignments["web1"], doc.assignments["web2"]);

        // Inspect the committed state.
        let summary = run(argv(&format!("inspect --infra {infra} --state {state_out}"))).unwrap();
        assert!(summary.contains("hosts: 32"), "{summary}");
        assert!(!summary.contains("active hosts: 0 /"), "{summary}");

        // Validate against the pre-placement (fresh) state.
        let verdict = run(argv(&format!(
            "validate --infra {infra} --template {template} --placement {}",
            placement_out.to_str().unwrap()
        )))
        .unwrap();
        assert_eq!(verdict, "placement is valid\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn validate_reports_violations() {
        let dir = tempdir("bad");
        let (infra, template) = write_examples(&dir);
        let output = run(argv(&format!("place --infra {infra} --template {template}"))).unwrap();
        let mut doc: PlacementDocument = serde_json::from_str(&output).unwrap();
        // Break the anti-affinity by force.
        let w1 = doc.assignments["web1"].clone();
        doc.assignments.insert("web2".into(), w1);
        let bad = dir.join("bad.json");
        std::fs::write(&bad, serde_json::to_string(&doc).unwrap()).unwrap();
        let verdict = run(argv(&format!(
            "validate --infra {infra} --template {template} --placement {}",
            bad.to_str().unwrap()
        )))
        .unwrap();
        assert!(verdict.contains("violation"), "{verdict}");
        assert!(verdict.contains("insufficiently separated"), "{verdict}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sequential_placements_share_state() {
        let dir = tempdir("seq");
        let (infra, template) = write_examples(&dir);
        let state = dir.join("state.json").to_str().unwrap().to_owned();
        let first =
            run(argv(&format!("place --infra {infra} --template {template} --commit {state}")))
                .unwrap();
        let second = run(argv(&format!(
            "place --infra {infra} --template {template} --state {state} --commit {state}"
        )))
        .unwrap();
        let d1: PlacementDocument = serde_json::from_str(&first).unwrap();
        let d2: PlacementDocument = serde_json::from_str(&second).unwrap();
        // The second stack sees the first one's usage; with bandwidth-
        // friendly defaults it typically lands elsewhere, but at the
        // very least the committed state accumulated both.
        let summary = run(argv(&format!("inspect --infra {infra} --state {state}"))).unwrap();
        let reserved: u64 = d1.reserved_bandwidth_mbps + d2.reserved_bandwidth_mbps;
        let _ = reserved;
        assert!(summary.contains("reserved bandwidth"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_place_matches_cold_place_and_reports_stats() {
        let dir = tempdir("session");
        let (infra, template) = write_examples(&dir);
        let cold = run(argv(&format!("place --infra {infra} --template {template}"))).unwrap();
        let warm =
            run(argv(&format!("place --infra {infra} --template {template} --session --stats")))
                .unwrap();
        let cold: PlacementDocument = serde_json::from_str(&cold).unwrap();
        let warm: PlacementDocument = serde_json::from_str(&warm).unwrap();
        assert_eq!(cold.assignments, warm.assignments, "session must not change decisions");
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
        assert!(cold.stats.is_none(), "stats only appear with --stats");
        let stats = warm.stats.expect("--stats populates the counters");
        assert!(stats.heuristic_evals > 0);
        assert_eq!(stats.session_dirty_hosts, 0, "fresh session has nothing journaled");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_place_commit_round_trips_state() {
        let dir = tempdir("session-commit");
        let (infra, template) = write_examples(&dir);
        let cold_state = dir.join("cold.json").to_str().unwrap().to_owned();
        let warm_state = dir.join("warm.json").to_str().unwrap().to_owned();
        run(argv(&format!("place --infra {infra} --template {template} --commit {cold_state}")))
            .unwrap();
        run(argv(&format!(
            "place --infra {infra} --template {template} --session --commit {warm_state}"
        )))
        .unwrap();
        let cold: CapacityState =
            serde_json::from_str(&std::fs::read_to_string(&cold_state).unwrap()).unwrap();
        let warm: CapacityState =
            serde_json::from_str(&std::fs::read_to_string(&warm_state).unwrap()).unwrap();
        assert_eq!(cold, warm, "committed states must be identical");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_accepts_churn_invocation() {
        let cmd = Command::parse(argv(
            "churn --infra i.json --algorithm eg --arrivals 12 --lifetime 3 \
             --seed 9 --crashes 2 --launch-failure-prob 0.1 --stale-race-prob 0.25",
        ))
        .unwrap();
        match cmd {
            Command::Churn {
                arrivals,
                lifetime,
                seed,
                crashes,
                launch_failure_prob,
                stale_race_prob,
                ..
            } => {
                assert_eq!(arrivals, 12);
                assert_eq!(lifetime, 3);
                assert_eq!(seed, 9);
                assert_eq!(crashes, 2);
                assert!((launch_failure_prob - 0.1).abs() < 1e-12);
                assert!((stale_race_prob - 0.25).abs() < 1e-12);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(Command::parse(argv("churn --arrivals 5")), Err(CliError::Usage(_))));
    }

    #[test]
    fn churn_subcommand_reports_faults_deterministically() {
        let dir = tempdir("churn");
        let (infra, _) = write_examples(&dir);
        let cmdline = format!(
            "churn --infra {infra} --arrivals 8 --lifetime 4 --seed 5 \
             --crashes 2 --launch-failure-prob 0.05 --stale-race-prob 0.2"
        );
        let out = run(argv(&cmdline)).unwrap();
        let mut a: ostro_sim::ChurnReport = serde_json::from_str(&out).unwrap();
        assert_eq!(a.faults.crashes_injected, 2);
        assert_eq!(a.accepted + a.rejected + a.faults.deploy_failures, 8);
        let mut b: ostro_sim::ChurnReport =
            serde_json::from_str(&run(argv(&cmdline)).unwrap()).unwrap();
        a.mean_solver_secs = 0.0;
        b.mean_solver_secs = 0.0;
        assert_eq!(a, b, "same seed must yield an identical churn report");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_accepts_recovery_flags() {
        let cmd = Command::parse(argv(
            "churn --infra i.json --arrivals 10 --wal-dir /tmp/w \
             --crash-at 3,7 --reconcile-every 4 --race-leak-prob 0.5",
        ))
        .unwrap();
        match cmd {
            Command::Churn { wal_dir, crash_at, reconcile_every, race_leak_prob, .. } => {
                assert_eq!(wal_dir.as_deref(), Some("/tmp/w"));
                assert_eq!(crash_at, vec![3, 7]);
                assert_eq!(reconcile_every, 4);
                assert!((race_leak_prob - 0.5).abs() < 1e-12);
            }
            other => panic!("wrong command {other:?}"),
        }
        match Command::parse(argv("recover --infra i.json --wal-dir /tmp/w --state-out s.json"))
            .unwrap()
        {
            Command::Recover { infra, wal_dir, state_out } => {
                assert_eq!(infra, "i.json");
                assert_eq!(wal_dir, "/tmp/w");
                assert_eq!(state_out.as_deref(), Some("s.json"));
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(
            Command::parse(argv("churn --infra i --crash-at 3,x")),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(Command::parse(argv("recover --infra i")), Err(CliError::Usage(_))));
    }

    #[test]
    fn mismatched_state_file_is_a_typed_error() {
        let dir = tempdir("mismatch");
        let (infra, template) = write_examples(&dir);
        // A state for a 4-host fleet against the 32-host example infra.
        let tiny = ostro_datacenter::InfrastructureBuilder::flat(
            "dc",
            1,
            4,
            ostro_model::Resources::new(8, 16_384, 500),
            ostro_model::Bandwidth::from_gbps(10),
            ostro_model::Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap();
        let state_path = dir.join("tiny.json").to_str().unwrap().to_owned();
        std::fs::write(&state_path, serde_json::to_string(&CapacityState::new(&tiny)).unwrap())
            .unwrap();
        let err =
            run(argv(&format!("place --infra {infra} --template {template} --state {state_path}")))
                .unwrap_err();
        match err {
            CliError::StateMismatch { path, expected, found } => {
                assert_eq!(path, state_path);
                assert_eq!(expected, 32);
                assert_eq!(found, 4);
            }
            other => panic!("wrong error {other:?}"),
        }
        // A partial (truncated) state file surfaces as a parse error,
        // not a panic.
        let torn = dir.join("torn.json").to_str().unwrap().to_owned();
        let full = serde_json::to_string(&CapacityState::new(&tiny)).unwrap();
        std::fs::write(&torn, &full[..full.len() / 2]).unwrap();
        let err = run(argv(&format!("place --infra {infra} --template {template} --state {torn}")))
            .unwrap_err();
        assert!(matches!(err, CliError::Parse { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_place_journal_survives_and_recovers() {
        let dir = tempdir("wal-place");
        let (infra, template) = write_examples(&dir);
        let wal = dir.join("wal");
        let wal_str = wal.to_str().unwrap().to_owned();
        let commit1 = dir.join("s1.json").to_str().unwrap().to_owned();
        let commit2 = dir.join("s2.json").to_str().unwrap().to_owned();

        // Two journaled commits; the second resumes from the journal.
        run(argv(&format!(
            "place --infra {infra} --template {template} --wal-dir {wal_str} --commit {commit1}"
        )))
        .unwrap();
        run(argv(&format!(
            "place --infra {infra} --template {template} --wal-dir {wal_str} --commit {commit2}"
        )))
        .unwrap();

        // The recovered books equal the second committed state.
        let out_path = dir.join("recovered.json").to_str().unwrap().to_owned();
        let doc = run(argv(&format!(
            "recover --infra {infra} --wal-dir {wal_str} --state-out {out_path}"
        )))
        .unwrap();
        let doc: RecoveryDocument = serde_json::from_str(&doc).unwrap();
        assert_eq!(doc.records_replayed, 2, "two commit records");
        assert!(!doc.truncated_tail);
        assert!(doc.active_hosts > 0);
        let committed: CapacityState =
            serde_json::from_str(&std::fs::read_to_string(&commit2).unwrap()).unwrap();
        let recovered: CapacityState =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(recovered, committed, "journal replay must equal the committed state");

        // Corrupt-tail regression: chop bytes off the journal's last
        // record; recovery reports the truncation and still lands on
        // the first commit's books instead of failing.
        let log = wal.join("wal.log");
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();
        let doc = run(argv(&format!("recover --infra {infra} --wal-dir {wal_str}"))).unwrap();
        let doc: RecoveryDocument = serde_json::from_str(&doc).unwrap();
        assert!(doc.truncated_tail, "torn tail must be reported");
        assert_eq!(doc.records_replayed, 1, "only the intact record survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn churn_crash_drills_match_the_uncrashed_run() {
        let dir = tempdir("churn-wal");
        let (infra, _) = write_examples(&dir);
        let wal = dir.join("wal").to_str().unwrap().to_owned();
        let base = format!(
            "churn --infra {infra} --arrivals 8 --lifetime 4 --seed 5 \
             --crashes 1 --launch-failure-prob 0.05 --stale-race-prob 0.3 \
             --race-leak-prob 0.5 --reconcile-every 2"
        );
        let crashed = run(argv(&format!("{base} --wal-dir {wal} --crash-at 3,6"))).unwrap();
        let clean = run(argv(&base)).unwrap();
        let mut a: ostro_sim::ChurnReport = serde_json::from_str(&crashed).unwrap();
        let mut b: ostro_sim::ChurnReport = serde_json::from_str(&clean).unwrap();
        assert_eq!(a.faults.scheduler_restarts, 2);
        a.mean_solver_secs = 0.0;
        a.faults.scheduler_restarts = 0;
        a.faults.wal_records_replayed = 0;
        b.mean_solver_secs = 0.0;
        assert_eq!(a, b, "crash drills must not change any decision");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_accepts_serve_invocation() {
        match Command::parse(argv(
            "serve --infra i.json --requests 12 --depart-prob 0.5 --seed 9 \
             --planners 3 --batch 4 --retries 2 --queue-depth 6 --budget-ms 250 \
             --degrade --chaos-seed 17 --shard --pods 3 --serial",
        ))
        .unwrap()
        {
            Command::Serve {
                requests,
                depart_prob,
                seed,
                planners,
                batch,
                retries,
                queue_depth,
                budget_ms,
                degrade,
                chaos_seed,
                shard,
                pods,
                serial,
                ..
            } => {
                assert_eq!(requests, 12);
                assert!((depart_prob - 0.5).abs() < 1e-12);
                assert_eq!(seed, 9);
                assert_eq!(planners, 3);
                assert_eq!(batch, 4);
                assert_eq!(retries, 2);
                assert_eq!(queue_depth, 6);
                assert_eq!(budget_ms, 250);
                assert!(degrade, "--degrade is a boolean switch");
                assert_eq!(chaos_seed, Some(17));
                assert!(shard, "--shard is a boolean switch");
                assert_eq!(pods, 3);
                assert!(serial, "--serial is a boolean switch");
            }
            other => panic!("wrong command {other:?}"),
        }
        match Command::parse(argv("serve --infra i.json")).unwrap() {
            Command::Serve { queue_depth, budget_ms, degrade, chaos_seed, shard, pods, .. } => {
                assert_eq!(queue_depth, 0, "unbounded queue by default");
                assert_eq!(budget_ms, 0, "no deadline budget by default");
                assert!(!degrade);
                assert_eq!(chaos_seed, None);
                assert!(!shard);
                assert_eq!(pods, 0);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(Command::parse(argv("serve --requests 5")), Err(CliError::Usage(_))));
    }

    #[test]
    fn place_stats_surface_the_shard_counters() {
        let dir = tempdir("shard-stats");
        let (infra, template) = write_examples(&dir);
        let output =
            run(argv(&format!("place --infra {infra} --template {template} --shard --stats")))
                .unwrap();
        let doc: PlacementDocument = serde_json::from_str(&output).unwrap();
        let stats = doc.stats.expect("--stats requested");
        // The example infra is a single transparent pod, so a sharded
        // request falls back to the plain search — and says so.
        assert_eq!(stats.shard_fallbacks, 1);
        assert_eq!(stats.pods_scanned, 0);
        assert!(output.contains("shard_fallbacks"), "counter missing from the document");
        // Fallback decisions are bit-identical to the unsharded run.
        let plain = run(argv(&format!("place --infra {infra} --template {template}"))).unwrap();
        let plain_doc: PlacementDocument = serde_json::from_str(&plain).unwrap();
        assert_eq!(doc.assignments, plain_doc.assignments);
        assert_eq!(doc.objective.to_bits(), plain_doc.objective.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_single_planner_digest_matches_serial() {
        let dir = tempdir("serve");
        let (infra, _) = write_examples(&dir);
        let base = format!("serve --infra {infra} --requests 6 --depart-prob 0.4 --seed 11");
        let serial: ServeReport =
            serde_json::from_str(&run(argv(&format!("{base} --serial"))).unwrap()).unwrap();
        let service: ServeReport =
            serde_json::from_str(&run(argv(&format!("{base} --planners 1 --batch 1"))).unwrap())
                .unwrap();
        assert_eq!(serial.mode, "serial");
        assert_eq!(service.mode, "service");
        assert_eq!(serial.arrivals, 6);
        assert!(serial.service.is_none(), "serial mode has no service counters");
        // One planner, batch size one: the service degenerates to the
        // serial path and every decision must be identical.
        assert_eq!(serial.decision_digest, service.decision_digest);
        assert_eq!((serial.placed, serial.rejected), (service.placed, service.rejected));
        assert_eq!(serial.released, service.released);
        let stats = service.service.expect("service mode reports its counters");
        assert_eq!(stats.committed as usize, service.placed);
        assert_eq!(stats.commit_conflicts, 0, "a lone planner cannot conflict");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_concurrent_run_acknowledges_everything() {
        let dir = tempdir("serve-mt");
        let (infra, _) = write_examples(&dir);
        let wal = dir.join("wal").to_str().unwrap().to_owned();
        let out = run(argv(&format!(
            "serve --infra {infra} --requests 8 --depart-prob 0.4 --seed 3 \
             --planners 4 --batch 2 --wal-dir {wal}"
        )))
        .unwrap();
        let report: ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.placed + report.rejected, report.arrivals);
        let stats = report.service.expect("service counters");
        assert!(stats.batches >= 1);
        assert!(stats.wal_syncs >= 1, "durable acks must group-commit");
        // The journal recovers to exactly the books the run left.
        let doc = run(argv(&format!("recover --infra {infra} --wal-dir {wal}"))).unwrap();
        let doc: RecoveryDocument = serde_json::from_str(&doc).unwrap();
        assert!(!doc.truncated_tail);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_overload_sheds_with_typed_breakdown() {
        let dir = tempdir("serve-shed");
        let (infra, _) = write_examples(&dir);
        let out = run(argv(&format!(
            "serve --infra {infra} --requests 32 --depart-prob 0.0 --seed 5 \
             --planners 1 --batch 1 --queue-depth 1 --degrade"
        )))
        .unwrap();
        let report: ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(
            report.placed + report.rejected + report.shed + report.panicked,
            report.arrivals,
            "every arrival resolves into exactly one bucket"
        );
        assert!(report.shed > 0, "queue depth 1 under a 32-request burst must shed");
        assert_ne!(report.shed_digest, format!("{:016x}", 0u64), "sheds fold into the digest");
        let stats = report.service.expect("service counters");
        assert_eq!(
            stats.shed_queue_full + stats.shed_deadline,
            report.shed as u64,
            "the report's shed bucket is the service's admission counters"
        );
        assert!(report.wal_error.is_none(), "no journal, no journal error");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_chaos_run_accounts_for_every_arrival() {
        let dir = tempdir("serve-chaos");
        let (infra, _) = write_examples(&dir);
        let wal = dir.join("wal").to_str().unwrap().to_owned();
        let out = run(argv(&format!(
            "serve --infra {infra} --requests 10 --depart-prob 0.3 --seed 4 \
             --planners 2 --batch 2 --chaos-seed 99 --wal-dir {wal}"
        )))
        .unwrap();
        let report: ServeReport = serde_json::from_str(&out).unwrap();
        assert_eq!(
            report.placed + report.rejected + report.shed + report.panicked,
            report.arrivals,
            "chaos may shed or panic, but never lose an arrival"
        );
        // Whatever chaos injected, the journal still recovers; torn
        // tails are truncated, never fatal.
        let doc = run(argv(&format!("recover --infra {infra} --wal-dir {wal}"))).unwrap();
        let _: RecoveryDocument = serde_json::from_str(&doc).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_accepts_maintain_invocation() {
        match Command::parse(argv(
            "maintain --infra i.json --arrivals 40 --decay 0.6 --seed 3 --ticks 20 \
             --sweep-budget 4 --candidates 8 --fail-stop 2 --gray 1 --flappy 1 \
             --shard --pods 2 --no-maintenance --wal-dir /tmp/w",
        ))
        .unwrap()
        {
            Command::Maintain {
                arrivals,
                decay,
                seed,
                ticks,
                sweep_budget,
                candidates,
                fail_stop,
                gray,
                flappy,
                shard,
                pods,
                no_maintenance,
                wal_dir,
                ..
            } => {
                assert_eq!(arrivals, 40);
                assert!((decay - 0.6).abs() < 1e-12);
                assert_eq!(seed, 3);
                assert_eq!(ticks, 20);
                assert_eq!(sweep_budget, 4);
                assert_eq!(candidates, 8);
                assert_eq!(fail_stop, 2);
                assert_eq!(gray, 1);
                assert_eq!(flappy, 1);
                assert!(shard);
                assert_eq!(pods, 2);
                assert!(no_maintenance, "--no-maintenance is a boolean switch");
                assert_eq!(wal_dir.as_deref(), Some("/tmp/w"));
            }
            other => panic!("wrong command {other:?}"),
        }
        match Command::parse(argv("maintain --infra i.json")).unwrap() {
            Command::Maintain { arrivals, ticks, sweep_budget, no_maintenance, .. } => {
                assert_eq!(arrivals, 64);
                assert_eq!(ticks, 64);
                assert_eq!(sweep_budget, 8);
                assert!(!no_maintenance);
            }
            other => panic!("wrong command {other:?}"),
        }
        assert!(matches!(Command::parse(argv("maintain --ticks 5")), Err(CliError::Usage(_))));
        assert!(matches!(
            Command::parse(argv("serve --infra i.json --serial --maintain")).unwrap().execute(),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn maintain_recovers_fragmentation_and_is_deterministic() {
        let dir = tempdir("maintain");
        let (infra, _) = write_examples(&dir);
        let cmdline = format!("maintain --infra {infra} --seed 7 --fail-stop 1");
        let out = run(argv(&cmdline)).unwrap();
        let report: MaintainReport = serde_json::from_str(&out).unwrap();
        assert!(report.maintained);
        assert!(
            report.frag_after.fleet_objective < report.frag_before.fleet_objective,
            "maintenance must strictly improve the fleet objective: {} -> {}",
            report.frag_before.fleet_objective,
            report.frag_after.fleet_objective,
        );
        assert!(report.frag_after.active_hosts < report.frag_before.active_hosts);
        assert_eq!(report.dead_hosts.len(), 1, "the fail-stop host must die");
        assert!(report.migrations > 0);
        // No wall-clock fields: two same-seed runs diff whole.
        assert_eq!(out, run(argv(&cmdline)).unwrap(), "maintain must be bit-deterministic");
        // The equal-churn baseline leaves the fragmentation in place.
        let base = run(argv(&format!("{cmdline} --no-maintenance"))).unwrap();
        let base: MaintainReport = serde_json::from_str(&base).unwrap();
        assert!(!base.maintained);
        assert_eq!(base.frag_before.fleet_objective, base.frag_after.fleet_objective);
        assert_eq!(base.frag_before.fleet_objective, report.frag_before.fleet_objective);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintain_journals_every_migration() {
        let dir = tempdir("maintain-wal");
        let (infra, _) = write_examples(&dir);
        let wal = dir.join("wal").to_str().unwrap().to_owned();
        let out = run(argv(&format!("maintain --infra {infra} --seed 7 --wal-dir {wal}"))).unwrap();
        let report: MaintainReport = serde_json::from_str(&out).unwrap();
        assert!(report.wal_error.is_none());
        assert!(report.migrations > 0);
        // The journal replays to books with exactly the run's active
        // hosts — migrations included.
        let doc = run(argv(&format!("recover --infra {infra} --wal-dir {wal}"))).unwrap();
        let doc: RecoveryDocument = serde_json::from_str(&doc).unwrap();
        assert!(!doc.truncated_tail);
        assert_eq!(doc.active_hosts, report.frag_after.active_hosts);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_maintain_defragments_after_the_stream() {
        let dir = tempdir("serve-maintain");
        let (infra, _) = write_examples(&dir);
        let out = run(argv(&format!(
            "serve --infra {infra} --requests 16 --depart-prob 0.5 --seed 11 \
             --planners 1 --batch 1 --maintain"
        )))
        .unwrap();
        let report: ServeReport = serde_json::from_str(&out).unwrap();
        let maintenance = report.maintenance.expect("--maintain reports the plane's counters");
        assert_eq!(maintenance.sweeps, 8, "one sweep per post-stream tick");
        let stats = report.service.expect("service counters");
        assert_eq!(stats.maintenance_ticks, 8);
        assert_eq!(
            stats.maintenance_migrations,
            maintenance.drain_migrations + maintenance.defrag_migrations,
            "the service's counter mirrors the plane's"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_files_surface_clean_errors() {
        let err = run(argv("inspect --infra /nonexistent/infra.json")).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
        let dir = tempdir("badjson");
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{not json").unwrap();
        let err = run(argv(&format!("inspect --infra {}", bad.to_str().unwrap()))).unwrap_err();
        assert!(matches!(err, CliError::Parse { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn examples_are_valid_inputs() {
        let infra: InfraSpec = serde_json::from_str(&example("infra").unwrap()).unwrap();
        assert_eq!(infra.build().unwrap().host_count(), 32);
        let template: HeatTemplate = serde_json::from_str(&example("template").unwrap()).unwrap();
        assert_eq!(template.server_count(), 3);
        assert!(example("bogus").is_err());
    }
}
