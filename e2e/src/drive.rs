//! The load generator: one client thread driving one
//! [`PlacementService`] through its public API, and the record of what
//! it was told back.
//!
//! Untraced, every request goes through `serve` + a ticket, stamped
//! immediately before `submit` and ended at the ticket's *delivered*
//! instant. Traced, closed-loop workloads are driven stepwise on this
//! thread (`snapshot` → `plan` → `try_commit`, or `release_blocking`)
//! so a span can be put around each stage; with one planner and one
//! request in flight that is the same computation as the ticket path,
//! which the decision digest checks. Wave workloads keep the ticket
//! path when traced, because the queue is what they measure.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ostro_core::wal::{commit_effects, WalOp, WAL_FILE};
use ostro_core::{
    verify_placement, CommitAttempt, HealthState, MaintenanceConfig, MaintenancePlane,
    MigrationReason, Placement, PlacementError, PlacementRequest, PlacementService, Scheduler,
    SchedulerSession, SearchStats, ServiceHandle, ServiceResponse, ServiceStats, TenantRecord, Wal,
    WalOptions,
};
use ostro_datacenter::HostId;
use ostro_model::ApplicationTopology;
use ostro_sim::HeartbeatPlan;

use crate::inputs::{Digest, Schedule};
use crate::spec::{Drive, Spec};
use crate::trace::{SpanId, Tracer};

/// In a traced window, every n-th cycle runs untraced as the
/// reference `trace.overhead_share` is measured against.
const REFERENCE_EVERY: usize = 4;

#[derive(Debug)]
pub struct Placed {
    pub seq: u64,
    pub shape: usize,
    pub placement: Placement,
    pub objective: f64,
    /// Stamped immediately before the request left the client.
    pub submitted: Instant,
    /// When the acknowledgement was delivered (not when it was read).
    pub delivered: Instant,
    pub search: Duration,
    /// Kept for traced runs only: the per-layer counters need it, and
    /// an untraced run's heap should not carry the harness's notes.
    pub stats: Option<Box<SearchStats>>,
}

#[derive(Debug)]
pub struct Released {
    pub seq: u64,
    pub shape: usize,
    pub placement: Placement,
    pub submitted: Instant,
    pub delivered: Instant,
}

#[derive(Debug)]
pub struct Move {
    pub shape: usize,
    pub from: Placement,
    pub to: Placement,
    pub drain: bool,
}

/// What one maintenance tick did to the books, in the order the
/// plane applies it: quarantines, drain moves, abandoned tenants,
/// defrag moves.
#[derive(Debug)]
pub struct Maintained {
    pub seq: u64,
    pub quarantined: Vec<HostId>,
    pub moves: Vec<Move>,
    pub abandoned: Vec<(usize, Placement)>,
    pub took: Duration,
    pub transitions: usize,
}

#[derive(Debug)]
pub enum Acked {
    Placed(Placed),
    Released(Released),
    Maintained(Maintained),
}

impl Placed {
    pub fn latency(&self) -> Duration {
        self.delivered.saturating_duration_since(self.submitted)
    }
}

impl Released {
    pub fn latency(&self) -> Duration {
        self.delivered.saturating_duration_since(self.submitted)
    }
}

impl Acked {
    pub fn placed(&self) -> Option<&Placed> {
        match self {
            Acked::Placed(p) => Some(p),
            _ => None,
        }
    }

    pub fn released(&self) -> Option<&Released> {
        match self {
            Acked::Released(r) => Some(r),
            _ => None,
        }
    }

    pub fn maintained(&self) -> Option<&Maintained> {
        match self {
            Acked::Maintained(m) => Some(m),
            _ => None,
        }
    }

    pub fn seq(&self) -> u64 {
        match self {
            Acked::Placed(p) => p.seq,
            Acked::Released(r) => r.seq,
            Acked::Maintained(m) => m.seq,
        }
    }
}

/// Requests that produced no acknowledgement, by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub rejected: u64,
    pub shed: u64,
    pub durability: u64,
    pub panics: u64,
    pub releases: u64,
}

impl Failures {
    fn placement(&mut self, error: &PlacementError) {
        match error {
            PlacementError::QueueFull { .. } | PlacementError::DeadlineExceeded { .. } => {
                self.shed += 1;
            }
            PlacementError::Durability { .. } => self.durability += 1,
            PlacementError::PlannerPanic { .. } => self.panics += 1,
            _ => self.rejected += 1,
        }
    }

    pub fn total(&self) -> u64 {
        self.rejected + self.shed + self.durability + self.panics + self.releases
    }

    pub fn since(&self, earlier: &Failures) -> Failures {
        Failures {
            rejected: self.rejected - earlier.rejected,
            shed: self.shed - earlier.shed,
            durability: self.durability - earlier.durability,
            panics: self.panics - earlier.panics,
            releases: self.releases - earlier.releases,
        }
    }
}

/// Side-probe timings (microseconds), one sample per probed request.
#[derive(Debug, Default)]
pub struct Probes {
    pub place_cold_us: Vec<f64>,
    pub unsharded_us: Vec<f64>,
    pub verify_us: Vec<f64>,
    pub state_clone_us: Vec<f64>,
    pub session_commit_us: Vec<f64>,
    pub session_release_us: Vec<f64>,
    pub wal_append_us: Vec<f64>,
    pub wal_sync_us: Vec<f64>,
    pub wal_bytes: u64,
    pub wal_records: u64,
}

struct Maintenance {
    plane: MaintenancePlane,
    heartbeats: HeartbeatPlan,
    every: usize,
    tick: u64,
}

struct Tracing {
    tracer: Tracer,
    probes: Probes,
    side_journal: Wal,
    /// Off during the reference cycles of a traced window.
    recording: bool,
}

/// What the timed window hands to the checks and the report.
pub struct WindowData {
    pub log: Vec<Acked>,
    /// `log[window_start..window_end]` is the timed window; before it
    /// the warm fill, after it the journal settling.
    pub window_start: usize,
    pub window_end: usize,
    pub started: Instant,
    pub wall: Duration,
    pub ledger: Vec<TenantRecord>,
    pub attempted: u64,
    pub failures: Failures,
    pub stats_start: ServiceStats,
    pub stats_end: ServiceStats,
    /// Wall time of each closed-loop cycle or wave, probes and
    /// maintenance excluded: untraced reference part, then traced part.
    pub cycle_reference: Vec<Duration>,
    pub cycle_traced: Vec<Duration>,
    pub conflicts: u64,
    pub tracer: Option<Tracer>,
    pub probes: Probes,
}

pub struct Driver<'s, 'a> {
    handle: &'s ServiceHandle<'s, 'a>,
    service: &'s PlacementService<'a>,
    spec: &'s Spec,
    catalog: &'s [Arc<ApplicationTopology>],
    request: &'s PlacementRequest,
    schedule: Schedule,
    ledger: Vec<TenantRecord>,
    shape_of: Vec<usize>,
    log: Vec<Acked>,
    attempted: u64,
    failures: Failures,
    conflicts: u64,
    /// Placements acknowledged while traced; every n-th is probed.
    placements: usize,
    keep_stats: bool,
    maintenance: Option<Maintenance>,
    tracing: Option<Tracing>,
}

impl<'s, 'a> Driver<'s, 'a> {
    pub fn new(
        handle: &'s ServiceHandle<'s, 'a>,
        spec: &'s Spec,
        catalog: &'s [Arc<ApplicationTopology>],
        request: &'s PlacementRequest,
        seed: u64,
        heartbeats: Option<HeartbeatPlan>,
    ) -> Self {
        let service = handle.service();
        let hosts = service.infrastructure().host_count();
        let maintenance = heartbeats.map(|heartbeats| Maintenance {
            plane: MaintenancePlane::new(MaintenanceConfig::default(), hosts),
            heartbeats,
            every: spec.maintain_every,
            tick: 0,
        });
        Driver {
            handle,
            service,
            spec,
            catalog,
            request,
            schedule: Schedule::new(seed, catalog.len()),
            ledger: Vec::new(),
            shape_of: Vec::new(),
            log: Vec::new(),
            attempted: 0,
            failures: Failures::default(),
            conflicts: 0,
            placements: 0,
            keep_stats: false,
            maintenance,
            tracing: None,
        }
    }

    /// Brings the resident population to the workload's `R` through
    /// the path the window will measure, then turns half of it over
    /// once: a freshly filled fleet has no holes yet, and the window
    /// should start on books that already look like its own.
    pub fn warm_fill(&mut self) {
        // A fleet too full for the catalog would spin here; the
        // workloads are sized far below that, and a failed warm-fill
        // placement is counted like any other failure.
        let budget = self.spec.resident * 4;
        while self.ledger.len() < self.spec.resident && self.shape_of.len() < budget {
            match self.spec.drive {
                Drive::ClosedLoop => self.place_by_ticket(),
                Drive::Waves(wave) => {
                    self.wave_of_arrivals(wave.min(self.spec.resident - self.ledger.len()));
                }
            }
        }
        let churned = self.shape_of.len() + self.spec.resident / 2;
        while self.ledger.len() == self.spec.resident && self.shape_of.len() < churned {
            self.cycle();
        }
    }

    /// Runs the timed window: `seconds` of wall time or `max_arrivals`
    /// arrivals, whichever ends first. With `trace_dir`, spans and
    /// side probes are recorded, except that every
    /// [`REFERENCE_EVERY`]-th cycle runs as an untraced run would — the
    /// reference the tracing overhead is measured against, interleaved
    /// so that drift over the window cancels.
    pub fn window(
        mut self,
        seconds: f64,
        max_arrivals: usize,
        trace_dir: Option<&Path>,
    ) -> WindowData {
        let window_start = self.log.len();
        let arrivals_start = self.shape_of.len();
        let attempted_start = self.attempted;
        let failures_start = self.failures;
        let stats_start = self.service.stats();
        let limit = Duration::from_secs_f64(seconds);

        if let Some(dir) = trace_dir {
            self.keep_stats = true;
            let infra = self.service.infrastructure();
            let options = WalOptions { snapshot_every: 0, ..WalOptions::default() };
            let (side_journal, _) =
                Wal::open(&dir.join("side-journal"), infra, options).expect("open side journal");
            self.tracing = Some(Tracing {
                tracer: Tracer::new(),
                probes: Probes::default(),
                side_journal,
                recording: true,
            });
        }
        let mut cycle_reference = Vec::new();
        let mut cycle_traced = Vec::new();
        let started = Instant::now();
        while started.elapsed() < limit && self.shape_of.len() - arrivals_start < max_arrivals {
            let reference = (cycle_reference.len() + cycle_traced.len()) % REFERENCE_EVERY
                == REFERENCE_EVERY - 1;
            if let Some(t) = self.tracing.as_mut() {
                t.recording = !reference;
            }
            let took = self.cycle();
            if self.tracing.is_some() && !reference {
                cycle_traced.push(took);
            } else {
                cycle_reference.push(took);
            }
        }
        let wall = started.elapsed();
        let window_end = self.log.len();
        let stats_end = self.service.stats();
        let (attempted, failures) = (self.attempted, self.failures);
        self.settle_journal();

        let (tracer, probes) = match self.tracing {
            Some(t) => (Some(t.tracer), t.probes),
            None => (None, Probes::default()),
        };
        WindowData {
            log: self.log,
            window_start,
            window_end,
            started,
            wall,
            ledger: self.ledger,
            attempted: attempted - attempted_start,
            failures: failures.since(&failures_start),
            stats_start,
            stats_end,
            cycle_reference,
            cycle_traced,
            conflicts: self.conflicts,
            tracer,
            probes,
        }
    }

    /// Crash recovery replays whatever the journal holds since its
    /// last compaction — nothing or a full interval, depending on
    /// where the window happened to stop. Outside the window, the
    /// smallest tenant is placed and released until the journal is
    /// half an interval in, so that `recover_s` times the same amount
    /// of replay on every run.
    fn settle_journal(&mut self) {
        let interval = WalOptions::default().snapshot_every;
        let smallest = (0..self.catalog.len())
            .min_by_key(|&shape| self.catalog[shape].node_count())
            .expect("a catalog");
        for _ in 0..interval {
            // One cycle is two records, so one of the two is hit.
            if (interval / 2..interval / 2 + 2).contains(&(self.service.seq() % interval)) {
                break;
            }
            let topology = Arc::clone(&self.catalog[smallest]);
            let response = self.handle.submit(Arc::clone(&topology), self.request.clone()).wait();
            if let ServiceResponse::Placed(outcome) = response {
                let placement = outcome.outcome.placement.clone();
                let now = Instant::now();
                self.shape_of.push(smallest);
                let tenant = (self.shape_of.len() - 1) as u64;
                self.placed(tenant, smallest, (now, now), outcome);
                let tenant = self.ledger.pop().expect("the tenant just placed");
                if let ServiceResponse::Released { seq } =
                    self.handle.submit_release(topology, placement).wait()
                {
                    self.released(tenant, (now, now), seq);
                }
            }
        }
    }

    /// Resident tenants right now.
    pub fn residents(&self) -> usize {
        self.ledger.len()
    }

    /// Whether this cycle records spans (and is driven stepwise).
    fn recording(&self) -> bool {
        self.tracing.as_ref().is_some_and(|t| t.recording)
    }

    fn recorder(&mut self) -> Option<&mut Tracer> {
        self.tracing.as_mut().filter(|t| t.recording).map(|t| &mut t.tracer)
    }

    /// One closed-loop cycle (an arrival, then departures back to R)
    /// or one wave. Returns its wall time without probes/maintenance.
    fn cycle(&mut self) -> Duration {
        let started = Instant::now();
        let arrivals_before = self.shape_of.len();
        let log_before = self.log.len();
        match self.spec.drive {
            Drive::ClosedLoop => {
                if self.recording() {
                    self.place_stepwise();
                } else {
                    self.place_by_ticket();
                }
                while self.ledger.len() > self.spec.resident {
                    if self.recording() {
                        self.release_stepwise();
                    } else {
                        self.release_by_ticket();
                    }
                }
            }
            Drive::Waves(wave) => {
                self.wave_of_arrivals(wave);
                self.wave_of_departures();
            }
        }
        let took = started.elapsed();

        if self.tracing.is_some() {
            // Every n-th placement of the window is probed, on the
            // books as they stand once its cycle is over.
            let every = self.spec.probe_every;
            let shapes: Vec<usize> =
                self.log[log_before..].iter().filter_map(Acked::placed).map(|p| p.shape).collect();
            for shape in shapes {
                self.placements += 1;
                if self.placements.is_multiple_of(every) {
                    self.probe(shape);
                }
            }
        }
        if let Some(every) = self.maintenance.as_ref().map(|m| m.every) {
            let crossed = self.shape_of.len() / every - arrivals_before / every;
            for _ in 0..crossed {
                self.maintain();
            }
        }
        took
    }

    fn next_arrival(&mut self) -> (u64, usize) {
        let shape = self.schedule.next_shape();
        self.shape_of.push(shape);
        self.attempted += 1;
        ((self.shape_of.len() - 1) as u64, shape)
    }

    fn next_departure(&mut self) -> TenantRecord {
        let index = self.schedule.next_departure(self.ledger.len());
        self.attempted += 1;
        self.ledger.swap_remove(index)
    }

    fn placed(
        &mut self,
        tenant: u64,
        shape: usize,
        (submitted, delivered): (Instant, Instant),
        outcome: ostro_core::ServiceOutcome,
    ) {
        let placement = outcome.outcome.placement;
        self.ledger.push(TenantRecord {
            id: tenant,
            topology: Arc::clone(&self.catalog[shape]),
            placement: placement.clone(),
        });
        self.log.push(Acked::Placed(Placed {
            seq: outcome.seq,
            shape,
            placement,
            objective: outcome.outcome.objective,
            submitted,
            delivered,
            search: outcome.outcome.elapsed,
            stats: self.keep_stats.then(|| Box::new(outcome.outcome.stats)),
        }));
    }

    fn released(
        &mut self,
        tenant: TenantRecord,
        (submitted, delivered): (Instant, Instant),
        seq: u64,
    ) {
        let shape = self.shape_of[tenant.id as usize];
        self.log.push(Acked::Released(Released {
            seq,
            shape,
            placement: tenant.placement,
            submitted,
            delivered,
        }));
    }

    // ---- ticket path -------------------------------------------------

    fn place_by_ticket(&mut self) {
        self.wave_of_arrivals(1);
    }

    fn release_by_ticket(&mut self) {
        let tenant = self.next_departure();
        let submitted = Instant::now();
        let ticket =
            self.handle.submit_release(Arc::clone(&tenant.topology), tenant.placement.clone());
        self.resolve_release(tenant, submitted, ticket);
    }

    fn wave_of_arrivals(&mut self, arrivals: usize) {
        let mut pending = Vec::with_capacity(arrivals);
        for _ in 0..arrivals {
            let (tenant, shape) = self.next_arrival();
            let topology = Arc::clone(&self.catalog[shape]);
            let submitted = Instant::now();
            let ticket = self.handle.submit(topology, self.request.clone());
            pending.push((tenant, shape, submitted, ticket));
        }
        for (tenant, shape, submitted, ticket) in pending {
            let (response, delivered) = ticket.wait_timed();
            match response {
                ServiceResponse::Placed(outcome) => {
                    if let Some(tracer) = self.recorder() {
                        // The ticket path shows the harness two
                        // instants and the search time; where inside
                        // the interval the search ran is not visible,
                        // so it is drawn at the end and everything
                        // before it is `service.wait`.
                        let (start, end) = (tracer.at(submitted), tracer.at(delivered));
                        let search = outcome.outcome.elapsed.as_nanos() as u64;
                        let split = end.saturating_sub(search).max(start);
                        let root = tracer.record("request", start, end, None, tenant);
                        tracer.record("service.wait", start, split, Some(root), tenant);
                        tracer.record("search", split, end, Some(root), tenant);
                    }
                    self.placed(tenant, shape, (submitted, delivered), outcome);
                }
                ServiceResponse::Failed(error) => self.failures.placement(&error),
                ServiceResponse::Released { .. } => {
                    unreachable!("an arrival resolved as a release")
                }
            }
        }
    }

    fn wave_of_departures(&mut self) {
        let mut pending = Vec::new();
        while self.ledger.len() > self.spec.resident {
            let tenant = self.next_departure();
            let submitted = Instant::now();
            let ticket =
                self.handle.submit_release(Arc::clone(&tenant.topology), tenant.placement.clone());
            pending.push((tenant, submitted, ticket));
        }
        for (tenant, submitted, ticket) in pending {
            self.resolve_release(tenant, submitted, ticket);
        }
    }

    fn resolve_release(
        &mut self,
        tenant: TenantRecord,
        submitted: Instant,
        ticket: ostro_core::Ticket,
    ) {
        let (response, delivered) = ticket.wait_timed();
        match response {
            ServiceResponse::Released { seq } => {
                if let Some(tracer) = self.recorder() {
                    let (start, end) = (tracer.at(submitted), tracer.at(delivered));
                    tracer.record("service.release", start, end, None, tenant.id);
                }
                self.released(tenant, (submitted, delivered), seq);
            }
            // The tenant is gone from the ledger either way: its
            // capacity is leaked, which the replay check will show.
            _ => self.failures.releases += 1,
        }
    }

    // ---- stepwise path (traced closed loop) --------------------------

    fn span(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        self.tracing.as_mut().expect("stepwise runs traced").tracer.open(name, parent, request)
    }

    fn close(&mut self, id: SpanId) {
        self.tracing.as_mut().expect("stepwise runs traced").tracer.close(id);
    }

    fn place_stepwise(&mut self) {
        let (tenant, shape) = self.next_arrival();
        let topology = Arc::clone(&self.catalog[shape]);
        let started = Instant::now();
        let root = self.span("request", None, tenant);
        let result = loop {
            let s = self.span("service.snapshot", Some(root), tenant);
            let snapshot = self.service.snapshot();
            self.close(s);
            let s = self.span("service.plan", Some(root), tenant);
            let planned = self.service.plan(&topology, self.request, &snapshot);
            self.close(s);
            let planned = match planned {
                Ok(planned) => planned,
                Err(error) => break Err(error),
            };
            let s = self.span("service.try_commit", Some(root), tenant);
            let attempt = self.service.try_commit(&topology, &planned);
            self.close(s);
            match attempt {
                Ok(CommitAttempt::Committed(outcome)) => break Ok(outcome),
                Ok(CommitAttempt::Conflict { .. }) => self.conflicts += 1,
                Err(error) => break Err(error),
            }
        };
        self.close(root);
        match result {
            Ok(outcome) => self.placed(tenant, shape, (started, Instant::now()), outcome),
            Err(error) => self.failures.placement(&error),
        }
    }

    fn release_stepwise(&mut self) {
        let tenant = self.next_departure();
        let started = Instant::now();
        let root = self.span("service.release", None, tenant.id);
        let result = self.service.release_blocking(&tenant.topology, &tenant.placement);
        self.close(root);
        match result {
            Ok(seq) => self.released(tenant, (started, Instant::now()), seq),
            Err(_) => self.failures.releases += 1,
        }
    }

    // ---- side probes and maintenance ---------------------------------

    /// Times single layers on the books as they stand, under a `probe`
    /// root of their own: never inside a request span, never in a
    /// cycle time.
    fn probe(&mut self, shape: usize) {
        let infra = self.service.infrastructure();
        let topology = Arc::clone(&self.catalog[shape]);
        let snapshot = self.service.snapshot();
        let state = snapshot.state();
        let scheduler = Scheduler::new(infra);
        // Cold, but otherwise as the service plans: serial scoring.
        let cold = PlacementRequest { parallel: false, score_threads: 1, ..self.request.clone() };
        let unsharded = PlacementRequest { shard: false, ..cold.clone() };
        let t = self.tracing.as_mut().expect("probes run traced");
        let id = snapshot.seq();
        let root = t.tracer.open("probe", None, id);
        let tracer = &mut t.tracer;
        let probes = &mut t.probes;

        let (decision, us) = timed(tracer, "scheduler.place_cold", root, id, || {
            scheduler.place(&topology, state, &cold).ok()
        });
        probes.place_cold_us.push(us);
        if self.spec.shard {
            let ((), us) = timed(tracer, "shard.unsharded", root, id, || {
                std::hint::black_box(scheduler.place(&topology, state, &unsharded).ok());
            });
            probes.unsharded_us.push(us);
        }
        if let Some(placement) = decision.map(|d| d.placement) {
            let ((), us) = timed(tracer, "validate.verify", root, id, || {
                std::hint::black_box(verify_placement(&topology, infra, state, &placement).ok());
            });
            probes.verify_us.push(us);
            let (books, us) = timed(tracer, "datacenter.state_clone", root, id, || state.clone());
            probes.state_clone_us.push(us);
            let mut shadow = SchedulerSession::with_state(infra, books);
            let (committed, us) =
                timed(tracer, "session.commit", root, id, || shadow.commit(&topology, &placement));
            committed.expect("a cold decision commits on the books it was planned on");
            probes.session_commit_us.push(us);
            let (released, us) = timed(tracer, "session.release", root, id, || {
                shadow.release(&topology, &placement)
            });
            released.expect("a committed tenant releases");
            probes.session_release_us.push(us);

            let effects = commit_effects(&topology, &placement);
            let journal = &mut t.side_journal;
            let bytes_before = journal_len(journal);
            let (appended, us) =
                timed(tracer, "wal.append", root, id, || journal.append(WalOp::Commit, &effects));
            appended.expect("append to the side journal");
            probes.wal_append_us.push(us);
            let (synced, us) = timed(tracer, "wal.sync", root, id, || journal.sync());
            synced.expect("sync the side journal");
            probes.wal_sync_us.push(us);
            probes.wal_bytes += journal_len(journal) - bytes_before;
            probes.wal_records += 1;
        }
        tracer.close(root);
    }

    fn maintain(&mut self) {
        let m = self.maintenance.as_mut().expect("maintenance is configured");
        for host in m.heartbeats.beats_at(m.tick) {
            m.plane.heartbeat(host, m.tick);
        }
        let mut before: Vec<(u64, Placement)> =
            self.ledger.iter().map(|t| (t.id, t.placement.clone())).collect();
        let logged = m.plane.migration_log().len();
        let mut tracer = self.tracing.as_mut().map(|t| &mut t.tracer);
        let span = tracer.as_mut().map(|t| t.open("defrag.tick", None, m.tick));
        let started = Instant::now();
        let report = self.handle.maintain(&mut m.plane, &mut self.ledger, m.tick);
        let took = started.elapsed();
        if let (Some(tracer), Some(span)) = (tracer, span) {
            tracer.close(span);
        }
        m.tick += 1;

        let hosts =
            |ids: &[u32]| Placement::new(ids.iter().map(|&i| HostId::from_index(i)).collect());
        let mut moves = Vec::new();
        for record in &m.plane.migration_log()[logged..] {
            let to = hosts(&record.to);
            if let Some(entry) = before.iter_mut().find(|(id, _)| *id == record.tenant) {
                entry.1 = to.clone();
            }
            moves.push(Move {
                shape: self.shape_of[record.tenant as usize],
                from: hosts(&record.from),
                to,
                drain: matches!(record.reason, MigrationReason::Drain { .. }),
            });
        }
        let abandoned = before
            .into_iter()
            .filter(|(id, _)| !self.ledger.iter().any(|t| t.id == *id))
            .map(|(id, placement)| (self.shape_of[id as usize], placement))
            .collect();
        let quarantined = report
            .transitions
            .iter()
            .filter(|t| t.to == HealthState::Draining)
            .map(|t| t.host)
            .collect();
        self.log.push(Acked::Maintained(Maintained {
            seq: self.service.seq(),
            quarantined,
            moves,
            abandoned,
            took,
            transitions: report.transitions.len(),
        }));
    }
}

/// Runs `f` inside a child span of `root`; returns its result and the
/// span's duration in microseconds.
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    root: SpanId,
    request: u64,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let span = tracer.open(name, Some(root), request);
    let result = f();
    tracer.close(span);
    (result, tracer.spans()[span as usize].duration_ns() as f64 / 1e3)
}

fn journal_len(journal: &Wal) -> u64 {
    std::fs::metadata(journal.dir().join(WAL_FILE)).map_or(0, |m| m.len())
}

/// Running digest of the decisions — (seq, shape, hosts) of every
/// placement, warm fill included — read off at 16 placements and at
/// every doubling after. Runs of different length compare at the
/// longest horizon both reached.
pub fn decision_digests(log: &[Acked]) -> Vec<(usize, Digest)> {
    let mut digest = Digest::new();
    let mut horizons = Vec::new();
    let mut next = 16;
    for (done, placed) in log.iter().filter_map(Acked::placed).enumerate() {
        digest.word(placed.seq);
        digest.word(placed.shape as u64);
        for host in placed.placement.assignments() {
            digest.word(host.index() as u64);
        }
        if done + 1 == next {
            horizons.push((next, digest));
            next *= 2;
        }
    }
    horizons
}
