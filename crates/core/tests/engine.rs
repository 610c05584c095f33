//! Engine-level integration tests: search statistics, stats plumbing,
//! serde of outcomes, and knob behavior.

use ostro_core::{Algorithm, ObjectiveWeights, PlacementOutcome, PlacementRequest, Scheduler};
use ostro_datacenter::{CapacityState, Infrastructure, InfrastructureBuilder};
use ostro_model::{ApplicationTopology, Bandwidth, DiversityLevel, Resources, TopologyBuilder};
use std::time::Duration;

fn infra() -> Infrastructure {
    InfrastructureBuilder::flat(
        "dc",
        2,
        6,
        Resources::new(8, 16_384, 500),
        Bandwidth::from_gbps(10),
        Bandwidth::from_gbps(100),
    )
    .build()
    .unwrap()
}

/// A star with four interchangeable leaves (same zone, same size, same
/// links) — symmetry reduction has real work to do here.
fn symmetric_star() -> ApplicationTopology {
    let mut b = TopologyBuilder::new("star");
    let hub = b.vm("hub", 2, 2_048).unwrap();
    let mut leaves = Vec::new();
    for i in 0..4 {
        let leaf = b.vm(format!("leaf{i}"), 1, 1_024).unwrap();
        b.link(hub, leaf, Bandwidth::from_mbps(100)).unwrap();
        leaves.push(leaf);
    }
    b.diversity_zone("leaves", DiversityLevel::Host, &leaves).unwrap();
    b.build().unwrap()
}

#[test]
fn greedy_stats_count_one_expansion_per_node() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    let outcome = scheduler.place(&topo, &state, &PlacementRequest::default()).unwrap();
    assert_eq!(outcome.stats.expanded, topo.node_count() as u64);
    assert!(outcome.stats.generated >= outcome.stats.expanded);
    assert!(outcome.stats.heuristic_evals > 0);
    assert_eq!(outcome.stats.eg_runs, 0, "plain EG embeds no inner EG runs");
    assert!(!outcome.stats.deadline_hit);
}

#[test]
fn bastar_uses_symmetry_reduction_when_enabled() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    let on = PlacementRequest {
        algorithm: Algorithm::BoundedAStar,
        zone_symmetry: true,
        max_expansions: 300,
        ..PlacementRequest::default()
    };
    let off = PlacementRequest { zone_symmetry: false, ..on.clone() };
    let with_sym = scheduler.place(&topo, &state, &on).unwrap();
    let without_sym = scheduler.place(&topo, &state, &off).unwrap();
    assert!(with_sym.stats.symmetry_skipped > 0, "{:?}", with_sym.stats);
    assert_eq!(without_sym.stats.symmetry_skipped, 0);
    // Quality must be unaffected.
    assert!((with_sym.objective - without_sym.objective).abs() < 1e-9);
}

#[test]
fn bastar_counts_bound_pruning_and_inner_eg_runs() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    let request = PlacementRequest {
        algorithm: Algorithm::BoundedAStar,
        weights: ObjectiveWeights::BANDWIDTH_DOMINANT,
        ..PlacementRequest::default()
    };
    let outcome = scheduler.place(&topo, &state, &request).unwrap();
    assert!(outcome.stats.eg_runs >= 1, "initial bound always runs");
    assert!(outcome.stats.pruned_by_bound > 0, "{:?}", outcome.stats);
}

#[test]
fn max_expansions_one_equals_greedy_quality() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    let eg = scheduler
        .place(&topo, &state, &PlacementRequest::with_algorithm(Algorithm::Greedy))
        .unwrap();
    let capped = scheduler
        .place(
            &topo,
            &state,
            &PlacementRequest {
                algorithm: Algorithm::BoundedAStar,
                max_expansions: 1,
                ..PlacementRequest::default()
            },
        )
        .unwrap();
    // With one expansion BA* can only return its EG upper bound.
    assert!((capped.objective - eg.objective).abs() < 1e-9);
}

#[test]
fn outcome_serializes_and_round_trips() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    let outcome = scheduler.place(&topo, &state, &PlacementRequest::default()).unwrap();
    let json = serde_json::to_string(&outcome).unwrap();
    let back: PlacementOutcome = serde_json::from_str(&json).unwrap();
    assert_eq!(back, outcome);
}

#[test]
fn requests_serialize_with_algorithm_tags() {
    let request = PlacementRequest::with_algorithm(Algorithm::DeadlineBoundedAStar {
        deadline: Duration::from_millis(500),
    });
    let json = serde_json::to_string(&request).unwrap();
    let back: PlacementRequest = serde_json::from_str(&json).unwrap();
    assert_eq!(back, request);
    assert!(json.contains("DeadlineBoundedAStar"));
}

/// A mis-sized pin slice is a typed error, not a panic — sharded or
/// not (the length check runs before either path).
#[test]
fn pinned_slice_length_is_enforced() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    for request in [PlacementRequest::default(), PlacementRequest::default().shard(true)] {
        assert_eq!(
            scheduler.place_pinned(&topo, &state, &request, &[None]),
            Err(ostro_core::PlacementError::PriorLengthMismatch {
                expected: topo.node_count(),
                actual: 1
            })
        );
    }
}

#[test]
fn invalid_weights_are_rejected_before_searching() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    let request =
        PlacementRequest::default().weights(ObjectiveWeights { bandwidth: 0.9, hosts: 0.9 });
    assert!(matches!(
        scheduler.place(&topo, &state, &request),
        Err(ostro_core::PlacementError::InvalidWeights { .. })
    ));
}

/// Regression: a big-compute / tiny-NIC host must not become a trap.
/// Without promised-NIC reservations the greedy packs all five linked
/// VMs onto the 32-core host (co-location is free), and the sixth VM
/// — or a later neighbor — can no longer reach them through the
/// 150 Mbps NIC. With the screen the search spreads early and
/// completes.
#[test]
fn tiny_nic_honeypot_host_does_not_dead_end_the_search() {
    let mut b = InfrastructureBuilder::new();
    let site = b.site("s", Bandwidth::ZERO);
    let rack = b.rack(site, "r", Bandwidth::from_gbps(100)).unwrap();
    // The honeypot: lots of compute, almost no network.
    b.host(rack, "big", Resources::new(32, 65_536, 1_000), Bandwidth::from_mbps(150)).unwrap();
    for i in 0..6 {
        b.host(rack, format!("normal{i}"), Resources::new(4, 8_192, 500), Bandwidth::from_gbps(10))
            .unwrap();
    }
    let infra = b.build().unwrap();

    // A ring of six VMs, each edge demanding 100 Mbps.
    let mut t = TopologyBuilder::new("ring");
    let vms: Vec<_> = (0..6).map(|i| t.vm(format!("v{i}"), 2, 2_048).unwrap()).collect();
    for i in 0..6 {
        t.link(vms[i], vms[(i + 1) % 6], Bandwidth::from_mbps(100)).unwrap();
    }
    let topo = t.build().unwrap();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    for algorithm in [Algorithm::GreedyCompute, Algorithm::GreedyBandwidth, Algorithm::Greedy] {
        let request = PlacementRequest { algorithm, ..PlacementRequest::default() };
        let outcome = scheduler
            .place(&topo, &state, &request)
            .unwrap_or_else(|e| panic!("{algorithm:?} dead-ended: {e}"));
        assert!(ostro_core::verify_placement(&topo, &infra, &state, &outcome.placement)
            .unwrap()
            .is_empty());
    }
}

#[test]
fn estimate_ablation_changes_behavior_not_validity() {
    let infra = infra();
    let topo = symmetric_star();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    let with_est = scheduler.place(&topo, &state, &PlacementRequest::default()).unwrap();
    let without_est = scheduler
        .place(
            &topo,
            &state,
            &PlacementRequest { use_estimate: false, ..PlacementRequest::default() },
        )
        .unwrap();
    for outcome in [&with_est, &without_est] {
        assert!(ostro_core::verify_placement(&topo, &infra, &state, &outcome.placement)
            .unwrap()
            .is_empty());
    }
    // The estimate can only help (or tie) on the combined objective here.
    assert!(with_est.objective <= without_est.objective + 1e-9);
}

/// The parallel scoring pool must be a pure speedup: at any thread
/// count the scored candidate order — and therefore the placement —
/// matches the serial path exactly, for every algorithm.
#[test]
fn parallel_and_serial_placements_are_identical() {
    // Big enough that candidate sets cross the parallel threshold.
    let infra = InfrastructureBuilder::flat(
        "dc",
        8,
        16,
        Resources::new(8, 16_384, 500),
        Bandwidth::from_gbps(10),
        Bandwidth::from_gbps(100),
    )
    .build()
    .unwrap();
    let mut b = TopologyBuilder::new("chain");
    let ids: Vec<_> = (0..12).map(|i| b.vm(format!("v{i}"), 2, 2_048).unwrap()).collect();
    for w in ids.windows(2) {
        b.link(w[0], w[1], Bandwidth::from_mbps(80)).unwrap();
    }
    let topo = b.build().unwrap();
    let state = CapacityState::new(&infra);
    let scheduler = Scheduler::new(&infra);
    for algorithm in [Algorithm::Greedy, Algorithm::BoundedAStar] {
        let run = |parallel| {
            let request = PlacementRequest {
                algorithm,
                weights: ObjectiveWeights::SIMULATION,
                max_expansions: 400,
                parallel,
                ..PlacementRequest::default()
            };
            scheduler.place(&topo, &state, &request).unwrap()
        };
        let par = run(true);
        let ser = run(false);
        assert_eq!(
            par.placement, ser.placement,
            "{algorithm:?} diverged between parallel and serial scoring"
        );
        assert_eq!(par.objective.to_bits(), ser.objective.to_bits());
    }
}
