//! One run of one workload in this process: the set-up rounds, the
//! timed window, the output checks, and the metrics computed from
//! what the window recorded.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ostro_core::{
    bench_support, FragStats, PlacementService, SchedulerSession, SearchStats, ServiceStats, Wal,
    WalOptions,
};

use crate::check;
use crate::drive::{decision_digests, Acked, Driver, Failures, Placed, WindowData};
use crate::heap;
use crate::inputs;
use crate::spec::Spec;
use crate::stats::{mean, median, percentile, ratio, sorted, tail};

/// Set-up is repeated and its median reported, so that work moved
/// into set-up shows without one slow fsync deciding the figure.
pub const SETUP_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Ends the window early after this many arrivals (`--smoke`).
    pub max_arrivals: usize,
    pub setup_rounds: usize,
    /// Where span files go, and this process's journals beneath it;
    /// inside the build directory.
    pub out: PathBuf,
}

#[derive(Debug, Default)]
pub struct RunReport {
    /// Metric values in table order: end-to-end when untraced, per
    /// layer when traced.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts and bases, printed beside the metrics.
    pub notes: Vec<(String, f64)>,
    pub attempted: u64,
    pub failures: Failures,
    pub placed: usize,
    pub released: usize,
    /// Decision digest at each horizon reached: (placements, hex).
    pub digests: Vec<(usize, String)>,
    pub errors: Vec<String>,
}

/// What the measured round leaves behind for the metrics.
struct Measured {
    window: WindowData,
    checkpoint_ms: f64,
    scoring_round_us: f64,
    peak_heap_mb: f64,
    peak_rss_mb: f64,
    oracle: Vec<(f64, f64)>,
    fleet_objective_end: f64,
    recover_s: Vec<f64>,
    records_replayed: u64,
    compactions: u64,
}

pub fn run(spec: &Spec, opts: &RunOptions) -> RunReport {
    let catalog = inputs::catalog(spec);
    let request = spec.request();
    let mut setup_s = Vec::new();
    let mut report = RunReport::default();
    let mut measured = None;
    let scratch = opts.out.join(format!("{}-{}", spec.name, std::process::id()));

    // The first round is the measured one — peak RSS is read before
    // any second service exists in the process — and the later rounds
    // only repeat the set-up for its median.
    for round in 0..opts.setup_rounds {
        let dir = scratch.join(format!("round-{round}"));
        let _ = std::fs::remove_dir_all(&dir);
        ensure_dir(&dir);

        let started = Instant::now();
        let (infra, base) = inputs::fleet(spec, opts.seed);
        let (journal, _) =
            Wal::open(&dir, &infra, WalOptions::default()).expect("open the journal");
        let mut session = SchedulerSession::with_state(&infra, base.clone());
        session.attach_wal(journal);
        // The fleet starts non-uniform: snapshot it so recovery
        // replays the journal over the books the service started from.
        let checkpoint = Instant::now();
        session.checkpoint().expect("checkpoint the base books");
        let checkpoint_ms = checkpoint.elapsed().as_secs_f64() * 1e3;
        let service = PlacementService::new(session, spec.service_config());
        let heartbeats = (spec.maintain_every > 0)
            .then(|| inputs::heartbeat_plan(opts.seed, infra.host_count()));

        let window = service.serve(|handle| {
            let mut driver = Driver::new(handle, spec, &catalog, &request, opts.seed, heartbeats);
            driver.warm_fill();
            setup_s.push(started.elapsed().as_secs_f64());
            if driver.residents() < spec.resident {
                report.errors.push(format!(
                    "warm fill reached {} of {} resident tenants",
                    driver.residents(),
                    spec.resident
                ));
            }
            (round == 0).then(|| {
                driver.window(opts.seconds, opts.max_arrivals, opts.trace.then_some(dir.as_path()))
            })
        });
        let Some(window) = window else {
            drop(service);
            let _ = std::fs::remove_dir_all(&dir);
            continue;
        };
        let (peak_heap_mb, peak_rss_mb) = (heap::peak_mb(), peak_rss_mb());

        // Set-up kernel probe, after the set-up clock stopped: one
        // candidate scoring round of the largest shape on this fleet.
        let scoring_round_us = if opts.trace {
            let largest = catalog.iter().max_by_key(|t| t.node_count()).expect("a catalog");
            let rounds: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(bench_support::scoring_round(
                        largest, &infra, &base, false, true, 1, 2,
                    ));
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&rounds)
        } else {
            0.0
        };

        // "Crash": the service goes away with no final checkpoint.
        let mut session = service.into_session();
        let compactions =
            session.detach_wal().map_or(0, |journal| journal.snapshots_taken().saturating_sub(1));
        if let Some(e) = session.take_wal_error() {
            report.errors.push(format!("the journal latched an error: {e}"));
        }
        let quarantined = session.quarantined_hosts();
        let live = session.into_state();

        let recovered = check::recover(&dir, &infra, &live, &quarantined);
        report.errors.extend(recovered.errors);
        let oracle_every = if opts.trace { 0 } else { spec.probe_every };
        let replay =
            check::replay(&infra, &base, &catalog, &window.log, &live, &request, oracle_every);
        report.errors.extend(replay.errors);
        if let Err(e) = check::ledger_balances(&infra, &base, &live, &window.ledger, &quarantined) {
            report.errors.push(e);
        }
        let frag = FragStats::compute(&infra, &live, &window.ledger);

        if let Some(tracer) = &window.tracer {
            let path = opts.out.join(format!("trace-{}.jsonl", spec.name));
            if let Err(e) = tracer.write_jsonl(&path) {
                report.errors.push(format!("write {}: {e}", path.display()));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        measured = Some(Measured {
            window,
            checkpoint_ms,
            scoring_round_us,
            peak_heap_mb,
            peak_rss_mb,
            oracle: replay.oracle,
            fleet_objective_end: frag.fleet_objective,
            recover_s: recovered.seconds,
            records_replayed: recovered.records_replayed,
            compactions,
        });
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let m = measured.expect("at least one round runs");
    if opts.trace {
        per_layer(spec, &m, &mut report);
    } else {
        end_to_end(&m, &setup_s, &mut report);
    }
    report.digests = decision_digests(&m.window.log[..m.window.window_end])
        .into_iter()
        .map(|(horizon, digest)| (horizon, digest.hex()))
        .collect();
    report.attempted = m.window.attempted;
    report.failures = m.window.failures;
    report
}

fn placements(log: &[Acked]) -> Vec<&Placed> {
    log.iter().filter_map(Acked::placed).collect()
}

fn release_latencies_ms(log: &[Acked]) -> Vec<f64> {
    log.iter().filter_map(Acked::released).map(|r| ms(r.latency())).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Equal runs of consecutive requests the window's timings are taken
/// over. This sandbox's CPU is burstable: under sustained load it
/// drops to about a third of its speed for seconds at a time and comes
/// back. A stretch spent throttled says nothing about the program, so
/// the best part is what is reported and bounded; the whole-window
/// figure is printed beside it.
const PARTS: usize = 4;

/// Fewer parts rather than smaller ones: a percentile of a few dozen
/// samples moves more than throttling does.
const PART_SAMPLES: usize = 192;

/// How many samples one part of `samples` holds.
fn part_size(samples: usize) -> usize {
    let parts = (samples / PART_SAMPLES).clamp(1, PARTS);
    samples.div_ceil(parts).max(1)
}

/// The samples in time order, cut into equal runs, each sorted
/// ascending.
fn parts(in_time_order: &[f64]) -> Vec<Vec<f64>> {
    in_time_order.chunks(part_size(in_time_order.len())).map(|part| sorted(part.to_vec())).collect()
}

/// The lowest value `stat` takes over the parts; 0 with no samples.
fn best(parts: &[Vec<f64>], stat: impl Fn(&[f64]) -> f64) -> f64 {
    parts.iter().map(|part| stat(part)).min_by(f64::total_cmp).unwrap_or(0.0)
}

fn end_to_end(c: &Measured, setup_s: &[f64], report: &mut RunReport) {
    let w = &c.window;
    let mut placed = placements(&w.log[w.window_start..w.window_end]);
    placed.sort_by_key(|p| p.delivered);
    let wall = w.wall.as_secs_f64();

    // Placements per second of each part: from the previous part's
    // last acknowledgement (the window's start for the first) to its
    // own last.
    let mut from = w.started;
    let rates: Vec<f64> = placed
        .chunks(part_size(placed.len()))
        .map(|part| {
            let to = part[part.len() - 1].delivered;
            let rate = ratio(part.len() as f64, to.saturating_duration_since(from).as_secs_f64());
            from = to;
            rate
        })
        .collect();

    // A placement that was rejected, shed or lost still has a latency
    // as far as its client is concerned: it never got an answer within
    // the window. Every part carries its share of them.
    let unplaced = (w.failures.total() - w.failures.releases) as usize;
    let mut latencies = parts(&placed.iter().map(|p| ms(p.latency())).collect::<Vec<_>>());
    for part in &mut latencies {
        part.extend(std::iter::repeat_n(wall * 1e3, unplaced.div_ceil(PARTS)));
    }
    let (p99, tail_q) = latencies
        .iter()
        .map(|part| tail(part, 0.99))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .unwrap_or((0.0, 0.0));
    // Departures are drawn, not dealt in blocks, so a part's releases
    // are whatever sizes it happened to draw: the whole window it is.
    let releases = sorted(release_latencies_ms(&w.log[w.window_start..w.window_end]));
    let whole = sorted(latencies.concat());

    let objectives: Vec<f64> = placed.iter().map(|p| p.objective).collect();
    let (committed, cold): (f64, f64) =
        c.oracle.iter().fold((0.0, 0.0), |(a, b), &(x, y)| (a + x, b + y));
    // Both sums are 0 only when every sampled tenant was packed onto
    // already-active hosts at no bandwidth cost: no gap.
    let oracle_gap = if cold == 0.0 && committed == 0.0 { 1.0 } else { ratio(committed, cold) };

    report.placed = placed.len();
    report.released = releases.len();
    report.metrics = vec![
        ("setup_s", median(setup_s)),
        ("placed_per_s", rates.iter().copied().max_by(f64::total_cmp).unwrap_or(0.0)),
        ("place_p50_ms", best(&latencies, |part| percentile(part, 0.50))),
        ("place_p99_ms", p99),
        ("release_p50_ms", percentile(&releases, 0.50)),
        ("objective_mean", mean(&objectives)),
        ("oracle_gap", oracle_gap),
        ("fleet_objective_end", c.fleet_objective_end),
        ("peak_heap_mb", c.peak_heap_mb),
    ];
    report.notes = vec![
        ("window_s".into(), wall),
        ("parts".into(), latencies.len() as f64),
        ("place_samples".into(), whole.len() as f64),
        ("place_tail_percentile".into(), tail_q * 100.0),
        ("placed_per_s_whole_window".into(), ratio(placed.len() as f64, wall)),
        ("place_p50_ms_whole_window".into(), percentile(&whole, 0.50)),
        ("place_p99_ms_whole_window".into(), tail(&whole, 0.99).0),
        ("release_samples".into(), report.released as f64),
        ("oracle_samples".into(), c.oracle.len() as f64),
        ("setup_rounds".into(), setup_s.len() as f64),
        // A millisecond-scale operation: its time moves by a third
        // from one process to the next here, so shown, not bounded.
        ("recover_s".into(), median(&c.recover_s)),
        ("recover_repeats".into(), c.recover_s.len() as f64),
        ("failed_share".into(), ratio(w.failures.total() as f64, w.attempted as f64)),
        // VmHWM: decided by arena fragmentation, so shown, not bounded.
        ("peak_rss_mb".into(), c.peak_rss_mb),
    ];
}

/// Counter deltas of the service over the window.
fn delta(start: &ServiceStats, end: &ServiceStats) -> ServiceStats {
    let mut d = end.clone();
    d.committed -= start.committed;
    d.released -= start.released;
    d.commit_conflicts -= start.commit_conflicts;
    d.stale_admissions -= start.stale_admissions;
    d.replans -= start.replans;
    d.serialized_fallbacks -= start.serialized_fallbacks;
    d.batches -= start.batches;
    for (n, before) in start.batch_sizes.iter().enumerate() {
        d.batch_sizes[n] -= before;
    }
    d.snapshots_published -= start.snapshots_published;
    d.wal_syncs -= start.wal_syncs;
    d.shed_queue_full -= start.shed_queue_full;
    d.shed_deadline -= start.shed_deadline;
    d.maintenance_migrations -= start.maintenance_migrations;
    d.maintenance_yields -= start.maintenance_yields;
    d
}

fn per_layer(spec: &Spec, c: &Measured, report: &mut RunReport) {
    let w = &c.window;
    let tracer = w.tracer.as_ref().expect("a traced window has a tracer");
    // Counters come from every request of the window; spans exist
    // for the traced cycles only.
    let window = &w.log[w.window_start..w.window_end];
    let placed = placements(window);
    let n = placed.len() as f64;
    let stats: Vec<&SearchStats> = placed.iter().filter_map(|p| p.stats.as_deref()).collect();
    let sum = |f: fn(&SearchStats) -> u64| stats.iter().fold(0.0, |sum, s| sum + f(s) as f64);
    let p50 = |values: &[f64]| percentile(&sorted(values.to_vec()), 0.50);
    let p99 = |values: &[f64]| tail(&sorted(values.to_vec()), 0.99).0;
    let us = |name: &str| tracer.durations_us(name);
    let span_ms = |name: &str| -> Vec<f64> { us(name).iter().map(|v| v / 1e3).collect() };

    // Stage shares: self time of each stage over all request time.
    let self_times = tracer.self_times();
    let self_sum = |name: &str| -> f64 {
        tracer
            .spans()
            .iter()
            .zip(&self_times)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |sum, (_, &t)| sum + t as f64)
    };
    let request_ns: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .fold(0.0, |sum, s| sum + s.duration_ns() as f64);

    // Stepwise runs time `plan` themselves; ticket runs only learn the
    // search time from the outcome.
    let search_ms: Vec<f64> = placed.iter().map(|p| ms(p.search)).collect();
    let plan_ms = if spec.closed_loop() { span_ms("service.plan") } else { search_ms.clone() };
    let plan_ns = if spec.closed_loop() { self_sum("service.plan") } else { self_sum("search") };

    let d = delta(&w.stats_start, &w.stats_end);
    let batched: u64 = d.batch_sizes.iter().enumerate().map(|(n, &k)| n as u64 * k).sum();
    let maintained: Vec<_> = window.iter().filter_map(Acked::maintained).collect();
    let ticks: Vec<f64> = maintained.iter().map(|m| ms(m.took)).collect();
    let transitions: usize = maintained.iter().map(|m| m.transitions).sum();
    // Means, not medians: both sets hold every shape equally often,
    // and a cycle's time spans two decades between shapes.
    let reference = mean(&w.cycle_reference.iter().map(|&d| ms(d)).collect::<Vec<_>>());
    let cycle = mean(&w.cycle_traced.iter().map(|&d| ms(d)).collect::<Vec<_>>());
    let cold_ms = p50(&c.window.probes.place_cold_us) / 1e3;
    let unsharded_ms = p50(&c.window.probes.unsharded_us) / 1e3;
    let probes = &w.probes;

    report.placed = placed.len();
    report.released = release_latencies_ms(window).len();
    report.metrics = vec![
        ("service.snapshot_us_p50", p50(&us("service.snapshot"))),
        ("service.plan_ms_p50", p50(&plan_ms)),
        ("service.plan_ms_p99", p99(&plan_ms)),
        ("service.plan_share", ratio(plan_ns, request_ns)),
        ("service.commit_us_p50", p50(&us("service.try_commit"))),
        ("service.commit_us_p99", p99(&us("service.try_commit"))),
        ("service.commit_share", ratio(self_sum("service.try_commit"), request_ns)),
        ("service.release_us_p50", p50(&us("service.release"))),
        ("service.wait_ms_p50", p50(&span_ms("service.wait"))),
        ("service.wait_ms_p99", p99(&span_ms("service.wait"))),
        ("service.batch_mean", ratio(batched as f64, d.batches as f64)),
        ("service.snapshots_per_commit", ratio(d.snapshots_published as f64, d.committed as f64)),
        ("service.stale_admission_share", ratio(d.stale_admissions as f64, d.committed as f64)),
        (
            "service.conflict_share",
            ratio(d.commit_conflicts as f64, (d.committed + d.commit_conflicts) as f64),
        ),
        ("service.replans_per_req", ratio(d.replans as f64, d.committed as f64)),
        ("service.serialized_fallbacks", d.serialized_fallbacks as f64),
        ("service.shed", (d.shed_queue_full + d.shed_deadline) as f64),
        ("search.elapsed_ms_p50", p50(&search_ms)),
        ("search.expanded_per_req", ratio(sum(|p| p.expanded), n)),
        ("search.generated_per_req", ratio(sum(|p| p.generated), n)),
        ("search.heuristic_evals_per_req", ratio(sum(|p| p.heuristic_evals), n)),
        ("search.pruned_by_bound_share", ratio(sum(|p| p.pruned_by_bound), sum(|p| p.generated))),
        ("search.eg_runs_per_req", ratio(sum(|p| p.eg_runs), n)),
        ("candidates.scanned_per_req", ratio(sum(|p| p.candidates_scanned), n)),
        (
            "candidates.pruned_share",
            ratio(sum(|p| p.candidates_pruned_simd), sum(|p| p.candidates_scanned)),
        ),
        ("candidates.scoring_round_us", c.scoring_round_us),
        (
            "heuristic.bound_cache_hit_share",
            ratio(sum(|p| p.bound_cache_hits), sum(|p| p.heuristic_evals)),
        ),
        (
            "session.cache_hit_share",
            ratio(
                sum(|p| p.session_cache_hits),
                sum(|p| p.session_cache_hits + p.session_cache_misses),
            ),
        ),
        ("session.dirty_hosts_per_req", ratio(sum(|p| p.session_dirty_hosts), n)),
        ("scheduler.place_cold_ms_p50", cold_ms),
        ("session.warm_speedup", ratio(cold_ms, p50(&plan_ms))),
        ("deadline.hit_share", ratio(sum(|p| u64::from(p.deadline_hit)), n)),
        ("deadline.pruned_prob_per_req", ratio(sum(|p| p.pruned_probabilistically), n)),
        ("shard.pods_scanned_per_req", ratio(sum(|p| p.pods_scanned), n)),
        ("shard.pods_pruned_share", ratio(sum(|p| p.pods_pruned), sum(|p| p.pods_scanned))),
        ("shard.fallback_share", ratio(sum(|p| p.shard_fallbacks), n)),
        ("shard.unsharded_ms_p50", unsharded_ms),
        ("shard.speedup", ratio(unsharded_ms, p50(&plan_ms))),
        ("datacenter.state_clone_us", p50(&probes.state_clone_us)),
        ("session.commit_us_p50", p50(&probes.session_commit_us)),
        ("session.release_us_p50", p50(&probes.session_release_us)),
        ("validate.verify_us_p50", p50(&probes.verify_us)),
        ("wal.append_us_p50", p50(&probes.wal_append_us)),
        ("wal.sync_us_p50", p50(&probes.wal_sync_us)),
        ("wal.sync_us_p99", p99(&probes.wal_sync_us)),
        ("wal.bytes_per_record", ratio(probes.wal_bytes as f64, probes.wal_records as f64)),
        ("wal.syncs_per_ack", ratio(d.wal_syncs as f64, (d.committed + d.released) as f64)),
        ("wal.compactions", c.compactions as f64),
        ("wal.checkpoint_ms", c.checkpoint_ms),
        ("wal.recover_ms", median(&c.recover_s) * 1e3),
        ("wal.records_replayed", c.records_replayed as f64),
        ("defrag.tick_ms_p50", p50(&ticks)),
        ("defrag.tick_ms_p99", p99(&ticks)),
        ("defrag.migrations", d.maintenance_migrations as f64),
        ("defrag.yields", d.maintenance_yields as f64),
        ("health.transitions", transitions as f64),
        ("trace.overhead_share", ratio(cycle - reference, reference)),
    ];
    let release_ns = self_sum("service.release");
    let tick_ns = self_sum("defrag.tick");
    report.notes = vec![
        ("window_placements".into(), n),
        ("request_time_ms".into(), request_ns / 1e6),
        ("release_time_ms".into(), release_ns / 1e6),
        ("maintenance_time_ms".into(), tick_ns / 1e6),
        // Commit, release and maintenance self time over everything
        // the client waited for: what `durable_churn` exists to stress.
        (
            "write_path_share".into(),
            ratio(
                self_sum("service.try_commit") + release_ns + tick_ns,
                request_ns + release_ns + tick_ns,
            ),
        ),
        ("probe_samples".into(), probes.place_cold_us.len() as f64),
        ("wal_sync_samples".into(), probes.wal_sync_us.len() as f64),
        ("maintenance_ticks".into(), ticks.len() as f64),
        ("stepwise_conflicts".into(), w.conflicts as f64),
        ("reference_cycles".into(), w.cycle_reference.len() as f64),
        ("traced_cycles".into(), w.cycle_traced.len() as f64),
        ("reference_cycle_ms".into(), reference),
        ("traced_cycle_ms".into(), cycle),
    ];
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where
/// `/proc` is not available.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where results, span files and journals go: inside the build
/// directory, so that nothing is written outside the checkout.
pub fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("e2e")
}

pub fn ensure_dir(dir: &Path) {
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_are_equal_and_never_small() {
        // Plenty of samples: four parts.
        assert_eq!(part_size(1_000), 250);
        // 400 samples: two parts of 200, not four of 100.
        assert_eq!(part_size(400), 200);
        assert_eq!(parts(&vec![1.0; 400]).iter().map(Vec::len).collect::<Vec<_>>(), [200, 200]);
        // Too few for two parts: the whole window is the one part.
        assert_eq!(part_size(300), 300);
        assert_eq!(part_size(0), 1);
        assert!(parts(&[]).is_empty());
    }

    #[test]
    fn best_takes_the_lowest_part_statistic() {
        let samples: Vec<f64> =
            (0..800).map(|i| if i < 200 { 9.0 } else { 3.0 + (i % 2) as f64 }).collect();
        let parts = parts(&samples);
        assert_eq!(parts.len(), 4);
        assert_eq!(best(&parts, |part| percentile(part, 0.50)), 3.0);
        assert_eq!(best(&[], |part| percentile(part, 0.50)), 0.0);
    }
}
