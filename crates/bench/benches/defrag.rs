//! Objective-score recovery of the maintenance plane's budgeted
//! defragmentation sweeps on a churn-decayed fleet.
//!
//! The scenario: a multi-pod fleet is filled by seeded arrivals, then
//! decayed by seeded departures until the survivors sit scattered
//! across half-empty hosts. The maintenance plane then runs its
//! round-robin sweeps under the per-sweep migration budget, and the
//! harness compares the fleet's fragmentation gauges —
//! stranded-capacity index, tenant scatter, bandwidth inflation, and
//! the normalized fleet objective — against the no-maintenance
//! baseline that saw the *same* churn.
//!
//! Writes `BENCH_defrag.json` at the repository root with the
//! before/after gauges, the migration spend, and three gates:
//! the fleet objective must strictly improve, every sweep must respect
//! its move budget, and two same-seed maintenance runs must produce
//! bit-identical migration logs and final placement digests.
//!
//! `--smoke` runs a 64-host fleet (used by `scripts/verify.sh`) and
//! writes `target/BENCH_defrag_smoke.json` instead; the gates are
//! identical, so the smoke artifact is the CI contract.

use std::sync::Arc;
use std::time::Instant;

use criterion::Criterion;
use ostro_core::{
    FragStats, MaintStats, MaintenanceConfig, MaintenanceLoad, MaintenancePlane, PlacementRequest,
    SchedulerSession, TenantRecord,
};
use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::{ApplicationTopology, Bandwidth, TopologyBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct Fleet {
    pods: usize,
    racks_per_pod: usize,
    hosts_per_rack: usize,
    /// Seeded arrivals in the fill phase; roughly one tenant per host.
    arrivals: usize,
    /// Maintenance ticks after the decay (enough for the round-robin
    /// sweep cursor to cover the surviving ledger a few times).
    maintenance_ticks: u64,
}

impl Fleet {
    const fn hosts(&self) -> usize {
        self.pods * self.racks_per_pod * self.hosts_per_rack
    }
}

/// 1,200 hosts — past the issue's 1k+ floor but small enough that the
/// decay phase (one exact placement per arrival) stays respectable.
const FULL: Fleet = Fleet {
    pods: 12,
    racks_per_pod: 5,
    hosts_per_rack: 20,
    arrivals: 1_200,
    maintenance_ticks: 48,
};

const SMOKE: Fleet =
    Fleet { pods: 4, racks_per_pod: 2, hosts_per_rack: 8, arrivals: 72, maintenance_ticks: 24 };

const SEED: u64 = 0x00DE_F4A6_5EED;

fn build_fleet(f: &Fleet) -> (Infrastructure, CapacityState) {
    // Uniform availability: the decay, not pre-existing load, should
    // be the only source of fragmentation.
    let mut rng = SmallRng::seed_from_u64(SEED ^ f.hosts() as u64);
    ostro_sim::scenarios::pod_fleet(f.pods, f.racks_per_pod, f.hosts_per_rack, false, &mut rng)
        .expect("fleet dimensions are nonzero")
}

/// Seeded tenant family: short chains whose links make scatter and
/// bandwidth inflation visible gauges.
fn tenant(seed: u64) -> ApplicationTopology {
    let mut rng = SmallRng::seed_from_u64(SEED ^ seed.wrapping_mul(0x9E37_79B9));
    let vms = rng.gen_range(2..=4);
    let mut b = TopologyBuilder::new(format!("t{seed}"));
    let ids: Vec<_> = (0..vms)
        .map(|i| {
            b.vm(format!("vm{i}"), rng.gen_range(1..=3), 1_024 * rng.gen_range(1..=3)).unwrap()
        })
        .collect();
    for w in ids.windows(2) {
        b.link(w[0], w[1], Bandwidth::from_mbps(rng.gen_range(50..=150))).unwrap();
    }
    b.build().unwrap()
}

fn request() -> PlacementRequest {
    PlacementRequest { shard: true, ..PlacementRequest::default() }
}

/// Fill-then-decay churn: place `arrivals` tenants, then depart every
/// second one (seeded shuffle), leaving the survivors scattered.
fn churn_decay(session: &mut SchedulerSession, fleet: &Fleet) -> (Vec<TenantRecord>, usize, usize) {
    let req = request();
    let mut ledger: Vec<TenantRecord> = Vec::with_capacity(fleet.arrivals);
    let mut placed = 0usize;
    for id in 0..fleet.arrivals as u64 {
        let topo = tenant(id);
        let Ok(out) = session.place(&topo, &req) else { continue };
        session.commit(&topo, &out.placement).expect("planned placement commits");
        ledger.push(TenantRecord { id, topology: Arc::new(topo), placement: out.placement });
        placed += 1;
    }
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xD_EC_A7);
    let mut departures = 0usize;
    let mut survivors = Vec::with_capacity(ledger.len() / 2);
    for t in ledger {
        if rng.gen_bool(0.5) {
            session.release(&t.topology, &t.placement).expect("ledger release balances");
            departures += 1;
        } else {
            survivors.push(t);
        }
    }
    (survivors, placed, departures)
}

/// splitmix64 finalizer for the placement digests.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds the ledger's final placements into one digest; two
/// maintenance runs agree iff every tenant ended on the same hosts.
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

struct MaintenanceRun {
    stats: MaintStats,
    frag: FragStats,
    digest: u64,
    log_json: String,
    elapsed_ms: f64,
}

/// One same-seed maintenance run over a freshly churn-decayed fleet.
/// Every host heartbeats every tick, so the plane does pure defrag —
/// no drains — and the sweep budget is the only throttle.
fn run_maintenance(fleet: &Fleet, infra: &Infrastructure, base: &CapacityState) -> MaintenanceRun {
    let mut session = SchedulerSession::with_state(infra, base.clone());
    let (mut ledger, _, _) = churn_decay(&mut session, fleet);
    let cfg = MaintenanceConfig { request: request(), ..MaintenanceConfig::default() };
    let mut plane = MaintenancePlane::new(cfg, infra.host_count());
    let start = Instant::now();
    for tick in 0..fleet.maintenance_ticks {
        for i in 0..infra.host_count() {
            plane.heartbeat(HostId::from_index(i as u32), tick);
        }
        plane.tick(&mut session, &mut ledger, tick, MaintenanceLoad::default());
    }
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let frag = FragStats::compute(infra, session.state(), &ledger);
    let log_json = serde_json::to_string(plane.migration_log()).expect("migration log serializes");
    MaintenanceRun {
        stats: *plane.stats(),
        frag,
        digest: ledger_digest(&ledger),
        log_json,
        elapsed_ms,
    }
}

fn frag_json(f: &FragStats, indent: &str) -> String {
    format!(
        concat!(
            "{{\n",
            "{i}  \"active_hosts\": {},\n",
            "{i}  \"stranded_index\": {:.4},\n",
            "{i}  \"scatter_mean\": {:.4},\n",
            "{i}  \"bandwidth_inflation\": {:.4},\n",
            "{i}  \"reserved_mbps\": {},\n",
            "{i}  \"fleet_objective\": {:.6}\n",
            "{i}}}"
        ),
        f.active_hosts,
        f.stranded_index,
        f.scatter_mean,
        f.bandwidth_inflation,
        f.reserved_mbps,
        f.fleet_objective,
        i = indent,
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let fleet: &Fleet = if smoke { &SMOKE } else { &FULL };
    let hosts = fleet.hosts();
    let (infra, base) = build_fleet(fleet);

    // The no-maintenance baseline at equal churn: same seed, same
    // arrivals, same departures, zero maintenance ticks.
    let mut baseline_session = SchedulerSession::with_state(&infra, base.clone());
    let (baseline_ledger, placed, departed) = churn_decay(&mut baseline_session, fleet);
    let before = FragStats::compute(&infra, baseline_session.state(), &baseline_ledger);

    // Two same-seed maintenance runs: the second exists purely to pin
    // bit-determinism (identical migration logs and final digests).
    let run = run_maintenance(fleet, &infra, &base);
    let rerun = run_maintenance(fleet, &infra, &base);
    let deterministic = run.log_json == rerun.log_json && run.digest == rerun.digest;
    let after = run.frag;
    let stats = run.stats;

    // Criterion point: the fragmentation gauge itself, measured on the
    // decayed fleet (it runs inside every sweep decision pipeline).
    let mut criterion = Criterion::default().configure_from_args();
    let mut group = criterion.benchmark_group(format!("defrag/{hosts}"));
    group.sample_size(10);
    group.bench_function("frag_stats", |b| {
        b.iter(|| FragStats::compute(&infra, baseline_session.state(), &baseline_ledger));
    });
    group.finish();
    let frag_stats_ms = criterion
        .measurements
        .iter()
        .find(|m| m.id == format!("defrag/{hosts}/frag_stats"))
        .map_or(f64::NAN, |m| m.median.as_secs_f64() * 1e3);

    let budget = MaintenanceConfig::default().sweep_budget;
    let within_budget =
        stats.sweeps == 0 || stats.moves_spent <= u64::from(budget) * fleet.maintenance_ticks;
    let objective_improved = after.fleet_objective < before.fleet_objective;
    let recovered_pct = if before.fleet_objective > 0.0 {
        (before.fleet_objective - after.fleet_objective) / before.fleet_objective * 100.0
    } else {
        0.0
    };

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"budgeted defragmentation sweeps on a churn-decayed fleet\",\n",
            "  \"smoke\": {smoke},\n",
            "  \"hosts\": {hosts},\n",
            "  \"churn\": {{\"arrivals\": {placed}, \"departures\": {departed}, ",
            "\"survivors\": {survivors}}},\n",
            "  \"frag_before\": {before},\n",
            "  \"frag_after\": {after},\n",
            "  \"maintenance\": {{\n",
            "    \"ticks\": {ticks},\n",
            "    \"sweep_budget\": {budget},\n",
            "    \"sweeps\": {sweeps},\n",
            "    \"defrag_migrations\": {migrations},\n",
            "    \"moves_spent\": {moves},\n",
            "    \"hosts_freed\": {freed},\n",
            "    \"bw_saved_mbps\": {bw_saved},\n",
            "    \"elapsed_ms\": {elapsed:.1},\n",
            "    \"frag_stats_ms\": {frag_ms:.4}\n",
            "  }},\n",
            "  \"recovery\": {{\n",
            "    \"objective_before\": {obj_before:.6},\n",
            "    \"objective_after\": {obj_after:.6},\n",
            "    \"objective_recovered_pct\": {rec_pct:.2},\n",
            "    \"active_hosts_before\": {ah_before},\n",
            "    \"active_hosts_after\": {ah_after}\n",
            "  }},\n",
            "  \"migration_log_digest\": \"{log_digest:016x}\",\n",
            "  \"final_placement_digest\": \"{digest:016x}\",\n",
            "  \"gates\": {{\n",
            "    \"objective_strictly_improved\": {objective_improved},\n",
            "    \"moves_within_budget\": {within_budget},\n",
            "    \"same_seed_bit_identical\": {deterministic}\n",
            "  }}\n",
            "}}\n"
        ),
        smoke = smoke,
        hosts = hosts,
        placed = placed,
        departed = departed,
        survivors = baseline_ledger.len(),
        before = frag_json(&before, "  "),
        after = frag_json(&after, "  "),
        ticks = fleet.maintenance_ticks,
        budget = budget,
        sweeps = stats.sweeps,
        migrations = stats.defrag_migrations,
        moves = stats.moves_spent,
        freed = stats.hosts_freed,
        bw_saved = stats.bw_saved_mbps,
        elapsed = run.elapsed_ms,
        frag_ms = frag_stats_ms,
        obj_before = before.fleet_objective,
        obj_after = after.fleet_objective,
        rec_pct = recovered_pct,
        ah_before = before.active_hosts,
        ah_after = after.active_hosts,
        log_digest =
            mix64(run.log_json.len() as u64 ^ ledger_digest(&[])) ^ hash_str(&run.log_json),
        digest = run.digest,
        objective_improved = objective_improved,
        within_budget = within_budget,
        deterministic = deterministic,
    );
    let path = if smoke {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_defrag_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_defrag.json")
    };
    std::fs::write(path, &json).expect("write defrag benchmark artifact");
    println!("{json}");
    println!("wrote {path}");
    assert!(objective_improved, "maintenance must strictly beat the no-maintenance baseline");
    assert!(within_budget, "sweeps must respect the per-sweep move budget");
    assert!(deterministic, "same-seed maintenance runs must be bit-identical");
}

/// FNV-1a over the migration log text, mixed for the digest line.
fn hash_str(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}
