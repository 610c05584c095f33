//! The metric tables: what is reported, in which unit, which way is
//! better, how much worse an end-to-end metric may get before it
//! counts as a regression, and which end-to-end metric on which
//! workload each layer metric is expected to move. `BENCHMARK.json`
//! repeats the names, units, directions and bounds; a unit test keeps
//! the two in step.

use serde_json::{json, Value};

use Better::{Higher, Lower};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
    pub meaning: &'static str,
}

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics it should move.
    pub moves: &'static str,
    /// Workloads it should move them on.
    pub on: &'static str,
}

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        meaning: "fleet build + WAL open/checkpoint + service construction + warm-fill to R + half of R turned over; median of the run's three set-up rounds",
    },
    EndToEnd {
        name: "placed_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        meaning: "acknowledged placements per second (releases and maintenance ticks count against it); best of the window's (up to four) parts",
    },
    EndToEnd {
        name: "place_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        meaning: "pre-submit to delivered durable ack, placements only; a failed placement counts as the whole window; best part",
    },
    EndToEnd {
        name: "place_p99_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        meaning: "same, at the highest percentile <= 99 that keeps ten of the part's samples beyond it",
    },
    EndToEnd {
        name: "release_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        meaning: "pre-submit to delivered ack, releases, over the whole window (departures are drawn, not dealt in blocks)",
    },
    EndToEnd {
        name: "objective_mean",
        unit: "objective",
        better: Lower,
        bound: 0.10,
        meaning: "mean paper objective (theta_bw*u_bw + theta_c*u_c) of the placements committed in the window",
    },
    EndToEnd {
        name: "oracle_gap",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        meaning: "sum of committed objectives / sum of cold unsharded one-shot objectives on the books just before, over every 16th block of arrivals",
    },
    EndToEnd {
        name: "fleet_objective_end",
        unit: "objective",
        better: Lower,
        bound: 0.10,
        meaning: "FragStats::fleet_objective over the final books and resident ledger",
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
        meaning: "peak live heap bytes of the workload's process up to the end of the timed window, counted at the allocator",
    },
];

const SEARCH_E2E: &str = "place_p50_ms place_p99_ms placed_per_s";
const SEARCH_ON: &str = "steady_eg sharded_fleet astar_small";
const COMMIT_E2E: &str = "placed_per_s release_p50_ms";
const COMMIT_ON: &str = "durable_churn sharded_fleet";
const QUEUE_ON: &str = "backlog_p1 backlog_p2";
const WAL_E2E: &str = "placed_per_s release_p50_ms place_p99_ms";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> Layer {
    Layer { name, unit, better, moves, on }
}

pub const PER_LAYER: [Layer; 57] = [
    layer("service.snapshot_us_p50", "us", Lower, SEARCH_E2E, SEARCH_ON),
    layer("service.plan_ms_p50", "ms", Lower, SEARCH_E2E, SEARCH_ON),
    layer("service.plan_ms_p99", "ms", Lower, SEARCH_E2E, SEARCH_ON),
    layer("service.plan_share", "ratio", Lower, SEARCH_E2E, SEARCH_ON),
    layer("service.commit_us_p50", "us", Lower, COMMIT_E2E, COMMIT_ON),
    layer("service.commit_us_p99", "us", Lower, COMMIT_E2E, COMMIT_ON),
    layer("service.commit_share", "ratio", Lower, COMMIT_E2E, COMMIT_ON),
    layer("service.release_us_p50", "us", Lower, COMMIT_E2E, COMMIT_ON),
    layer("service.wait_ms_p50", "ms", Lower, SEARCH_E2E, QUEUE_ON),
    layer("service.wait_ms_p99", "ms", Lower, SEARCH_E2E, QUEUE_ON),
    layer("service.batch_mean", "count", Higher, SEARCH_E2E, QUEUE_ON),
    layer("service.snapshots_per_commit", "ratio", Lower, SEARCH_E2E, QUEUE_ON),
    layer(
        "service.stale_admission_share",
        "ratio",
        Lower,
        "placed_per_s place_p99_ms oracle_gap objective_mean",
        QUEUE_ON,
    ),
    layer("service.conflict_share", "ratio", Lower, "placed_per_s place_p99_ms", "backlog_p2"),
    layer("service.replans_per_req", "ratio", Lower, "placed_per_s place_p99_ms", "backlog_p2"),
    layer(
        "service.serialized_fallbacks",
        "count",
        Lower,
        "placed_per_s place_p99_ms",
        "backlog_p2",
    ),
    layer("service.shed", "count", Lower, "placed_per_s place_p99_ms", QUEUE_ON),
    layer(
        "search.elapsed_ms_p50",
        "ms",
        Lower,
        "place_p50_ms placed_per_s",
        "astar_small steady_eg",
    ),
    layer(
        "search.expanded_per_req",
        "count",
        Lower,
        "place_p50_ms placed_per_s objective_mean",
        "astar_small",
    ),
    layer(
        "search.generated_per_req",
        "count",
        Lower,
        "place_p50_ms placed_per_s objective_mean",
        "astar_small",
    ),
    layer(
        "search.heuristic_evals_per_req",
        "count",
        Lower,
        "place_p50_ms placed_per_s",
        "astar_small steady_eg",
    ),
    layer(
        "search.pruned_by_bound_share",
        "ratio",
        Higher,
        "place_p50_ms placed_per_s",
        "astar_small",
    ),
    layer("search.eg_runs_per_req", "count", Lower, "place_p50_ms placed_per_s", "astar_small"),
    layer(
        "candidates.scanned_per_req",
        "count",
        Lower,
        "place_p50_ms placed_per_s",
        "steady_eg sharded_fleet",
    ),
    layer(
        "candidates.pruned_share",
        "ratio",
        Higher,
        "place_p50_ms placed_per_s",
        "steady_eg sharded_fleet",
    ),
    layer(
        "candidates.scoring_round_us",
        "us",
        Lower,
        "place_p50_ms placed_per_s",
        "steady_eg sharded_fleet",
    ),
    layer(
        "heuristic.bound_cache_hit_share",
        "ratio",
        Higher,
        "place_p50_ms",
        "steady_eg astar_small",
    ),
    layer("session.cache_hit_share", "ratio", Higher, "place_p50_ms", "steady_eg astar_small"),
    layer("session.dirty_hosts_per_req", "count", Lower, "place_p50_ms", "steady_eg astar_small"),
    layer("scheduler.place_cold_ms_p50", "ms", Lower, "place_p50_ms", "steady_eg astar_small"),
    layer("session.warm_speedup", "ratio", Higher, "place_p50_ms", "steady_eg astar_small"),
    layer("deadline.hit_share", "ratio", Lower, "objective_mean place_p99_ms", "astar_small"),
    layer(
        "deadline.pruned_prob_per_req",
        "count",
        Lower,
        "objective_mean place_p99_ms",
        "astar_small",
    ),
    layer(
        "shard.pods_scanned_per_req",
        "count",
        Lower,
        "place_p50_ms placed_per_s oracle_gap",
        "sharded_fleet",
    ),
    layer(
        "shard.pods_pruned_share",
        "ratio",
        Higher,
        "place_p50_ms placed_per_s oracle_gap",
        "sharded_fleet",
    ),
    layer("shard.fallback_share", "ratio", Lower, "place_p50_ms placed_per_s", "sharded_fleet"),
    layer("shard.unsharded_ms_p50", "ms", Lower, "place_p50_ms placed_per_s", "sharded_fleet"),
    layer("shard.speedup", "ratio", Higher, "place_p50_ms placed_per_s", "sharded_fleet"),
    layer(
        "datacenter.state_clone_us",
        "us",
        Lower,
        "placed_per_s release_p50_ms peak_heap_mb",
        "sharded_fleet durable_churn",
    ),
    layer("session.commit_us_p50", "us", Lower, COMMIT_E2E, "sharded_fleet durable_churn"),
    layer("session.release_us_p50", "us", Lower, COMMIT_E2E, "sharded_fleet durable_churn"),
    layer("validate.verify_us_p50", "us", Lower, COMMIT_E2E, "sharded_fleet durable_churn"),
    layer("wal.append_us_p50", "us", Lower, WAL_E2E, "durable_churn"),
    layer("wal.sync_us_p50", "us", Lower, WAL_E2E, "durable_churn"),
    layer("wal.sync_us_p99", "us", Lower, WAL_E2E, "durable_churn"),
    layer("wal.bytes_per_record", "B", Lower, WAL_E2E, "durable_churn"),
    layer("wal.syncs_per_ack", "ratio", Lower, WAL_E2E, "durable_churn backlog_p1 backlog_p2"),
    layer("wal.compactions", "count", Lower, WAL_E2E, "durable_churn"),
    layer("wal.checkpoint_ms", "ms", Lower, "setup_s place_p99_ms", "sharded_fleet durable_churn"),
    layer("wal.recover_ms", "ms", Lower, "none: restart time, too short to bound here", "all"),
    layer("wal.records_replayed", "count", Lower, "none: the base of wal.recover_ms", "all"),
    layer(
        "defrag.tick_ms_p50",
        "ms",
        Lower,
        "place_p99_ms placed_per_s fleet_objective_end",
        "durable_churn",
    ),
    layer(
        "defrag.tick_ms_p99",
        "ms",
        Lower,
        "place_p99_ms placed_per_s fleet_objective_end",
        "durable_churn",
    ),
    layer(
        "defrag.migrations",
        "count",
        Higher,
        "fleet_objective_end placed_per_s",
        "durable_churn",
    ),
    layer("defrag.yields", "count", Lower, "fleet_objective_end", "durable_churn"),
    layer("health.transitions", "count", Lower, "place_p99_ms placed_per_s", "durable_churn"),
    layer(
        "trace.overhead_share",
        "ratio",
        Lower,
        "none: above 0.10 the layer numbers are not trusted",
        "all",
    ),
];

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// Both tables as they go into a result document, so that a result
/// file says what its numbers mean and are expected to move.
pub fn definitions() -> Value {
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| {
            json!({
                "name": (m.name),
                "unit": (m.unit),
                "better": (m.better.as_str()),
                "bound": (m.bound),
                "meaning": (m.meaning),
            })
        })
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| {
            json!({
                "name": (m.name),
                "unit": (m.unit),
                "better": (m.better.as_str()),
                "moves": (m.moves),
                "on": (m.on),
            })
        })
        .collect();
    json!({"end_to_end": end_to_end, "per_layer": per_layer})
}

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn layer_tags_name_real_metrics_and_workloads() {
        for m in PER_LAYER.iter().filter(|m| !m.moves.starts_with("none:")) {
            for moved in m.moves.split(' ') {
                assert!(end_to_end(moved).is_some(), "{}: unknown metric {moved}", m.name);
            }
            for on in m.on.split(' ') {
                assert!(
                    WORKLOADS.iter().any(|w| w.name == on),
                    "{}: unknown workload {on}",
                    m.name
                );
            }
        }
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; it must
    /// say what these tables say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        let workloads = doc["workloads"].as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, spec) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(entry["name"].as_str(), Some(spec.name));
            assert_eq!(entry["why"].as_str(), Some(spec.why));
        }
        let e2e = doc["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry["name"].as_str(), Some(m.name));
            assert_eq!(entry["unit"].as_str(), Some(m.unit));
            assert_eq!(entry["better"].as_str(), Some(m.better.as_str()));
            assert_eq!(entry["bound"].as_f64(), Some(m.bound), "{}", m.name);
        }
        let layers = doc["per_layer"].as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry["name"].as_str(), Some(m.name));
            assert_eq!(entry["unit"].as_str(), Some(m.unit));
            assert_eq!(entry["better"].as_str(), Some(m.better.as_str()));
        }
    }
}
