//! Timing-free regression gate for EG's scoring cost on the `steady_eg`
//! shape of the end-to-end benchmark: a 1 × 64 × 16 Table IV fleet and
//! the two multi-tier tenants of the stream catalog, EG at defaults.
//!
//! The §III-A2 bound is piecewise constant in a candidate's free
//! capacity, so a scoring round needs one evaluation per decision
//! region, not one per distinct availability. Table IV samples free
//! memory per MB, so nearly every loaded host is distinct: keying
//! evaluations on the exact availability evaluated 71 % of the
//! resolutions of the first tenant here; resolving them by region
//! evaluates 0.5–1 %.

use ostro::core::{PlacementOutcome, PlacementRequest, Scheduler, SchedulerSession};
use ostro::sim::scenarios::pod_fleet;
use ostro::sim::stream::shape_catalog;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn assert_few_evaluations(outcome: &PlacementOutcome, what: &str) {
    let stats = &outcome.stats;
    assert_eq!(
        stats.bound_cache_hits + stats.bound_cache_misses,
        stats.heuristic_evals,
        "{what}: every resolution is a region hit or an evaluation"
    );
    assert!(
        stats.bound_cache_misses * 20 <= stats.heuristic_evals,
        "{what}: {} evaluations for {} resolutions (more than 5 %)",
        stats.bound_cache_misses,
        stats.heuristic_evals
    );
}

#[test]
fn eg_evaluates_the_bound_once_per_region_on_the_steady_eg_shape() {
    let (infra, state) = pod_fleet(1, 64, 16, true, &mut SmallRng::seed_from_u64(1)).unwrap();
    let shapes = shape_catalog(1).unwrap();
    let scheduler = Scheduler::new(&infra);
    let mut session = SchedulerSession::with_state(&infra, state.clone());
    let request = PlacementRequest::default();
    let reference = PlacementRequest { memoize_bounds: false, ..PlacementRequest::default() };
    // `multi_tier(25)` and `multi_tier(50)`.
    for tenant in [&shapes[0], &shapes[2]] {
        let name = tenant.name();
        let cold = scheduler.place(tenant, session.state(), &request).unwrap();
        let warm = session.place(tenant, &request).unwrap();
        let per_host = scheduler.place(tenant, session.state(), &reference).unwrap();
        assert_few_evaluations(&cold, &format!("{name} cold"));
        assert_few_evaluations(&warm, &format!("{name} session"));
        assert_eq!(cold.placement, per_host.placement, "{name}: cold vs per-host bounds");
        assert_eq!(warm.placement, per_host.placement, "{name}: session vs per-host bounds");
        assert_eq!(cold.objective.to_bits(), per_host.objective.to_bits(), "{name}");
        assert_eq!(warm.objective.to_bits(), per_host.objective.to_bits(), "{name}");
        session.commit(tenant, &warm.placement).unwrap();
    }
}
