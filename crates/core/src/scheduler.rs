//! The public facade: one [`Scheduler`] per infrastructure, dispatching
//! placement requests to the five algorithms. Planning is a pure
//! function of the books it is handed; applying a decision is the
//! decision's effect list through the one apply in `effects.rs`.

use std::time::Instant;

use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::{ApplicationTopology, Bandwidth};

use crate::astar::run_bastar;
use crate::baselines::{run_egbw, run_egc};
use crate::deadline::run_dbastar;
use crate::effects;
use crate::error::PlacementError;
use crate::greedy::{pinned_root, run_eg};
use crate::placement::{Placement, PlacementOutcome, SearchStats};
use crate::request::{Algorithm, PlacementRequest};
use crate::search::{Ctx, Path};

/// The Ostro scheduler for one infrastructure.
///
/// Stateless apart from the infrastructure reference: capacity state is
/// passed per call, so one scheduler can serve many what-if scenarios
/// concurrently.
///
/// ```
/// use ostro_core::{PlacementRequest, Scheduler};
/// use ostro_datacenter::{CapacityState, InfrastructureBuilder};
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
/// let scheduler = Scheduler::new(&infra);
/// let mut state = CapacityState::new(&infra);
/// let outcome = scheduler.place(&topology, &state, &PlacementRequest::default())?;
/// scheduler.commit(&topology, &outcome.placement, &mut state)?;
/// assert_eq!(state.active_host_count(), outcome.hosts_used);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Scheduler<'a> {
    infra: &'a Infrastructure,
}

impl<'a> Scheduler<'a> {
    /// Creates a scheduler over `infra`.
    #[must_use]
    pub fn new(infra: &'a Infrastructure) -> Self {
        Scheduler { infra }
    }

    /// The infrastructure this scheduler places onto.
    #[must_use]
    pub fn infrastructure(&self) -> &'a Infrastructure {
        self.infra
    }

    /// Computes a holistic placement for `topology` on top of `state`.
    ///
    /// `state` is *not* modified — call [`commit`](Self::commit) to
    /// apply the returned decision.
    ///
    /// # Errors
    ///
    /// [`PlacementError::Infeasible`] / [`PlacementError::Exhausted`]
    /// when no valid placement exists (or none was found within the
    /// algorithm's bounds), [`PlacementError::InvalidWeights`] or
    /// [`PlacementError::ZeroDeadline`] on bad parameters.
    pub fn place(
        &self,
        topology: &ApplicationTopology,
        state: &CapacityState,
        request: &PlacementRequest,
    ) -> Result<PlacementOutcome, PlacementError> {
        self.place_pinned(topology, state, request, &vec![None; topology.node_count()])
    }

    /// Like [`place`](Self::place), but with some nodes pinned to fixed
    /// hosts (the online re-placement path, §IV-E).
    ///
    /// # Errors
    ///
    /// As [`place`](Self::place); additionally infeasible when a pinned
    /// host cannot accommodate its node, and
    /// [`PlacementError::PriorLengthMismatch`] when `pinned` does not
    /// hold one slot per node.
    pub fn place_pinned(
        &self,
        topology: &ApplicationTopology,
        state: &CapacityState,
        request: &PlacementRequest,
        pinned: &[Option<HostId>],
    ) -> Result<PlacementOutcome, PlacementError> {
        self.place_pinned_with(topology, state, request, pinned, None)
    }

    /// [`place_pinned`](Self::place_pinned) with optional session
    /// state attached: the search then sweeps candidates over a clone
    /// of the session's capacity table and scores them on its
    /// persistent pool. `state` must be
    /// the session's own state — the table mirrors it.
    pub(crate) fn place_pinned_with(
        &self,
        topology: &ApplicationTopology,
        state: &CapacityState,
        request: &PlacementRequest,
        pinned: &[Option<HostId>],
        session: Option<&crate::session::SessionShared>,
    ) -> Result<PlacementOutcome, PlacementError> {
        if pinned.len() != topology.node_count() {
            return Err(PlacementError::PriorLengthMismatch {
                expected: topology.node_count(),
                actual: pinned.len(),
            });
        }
        let started = Instant::now();
        if request.shard {
            return crate::shard::place_sharded(
                self.infra, topology, state, request, pinned, session, started,
            );
        }
        let ctx =
            Ctx::with_session(topology, self.infra, state, request, pinned.to_vec(), session)?;
        let mut stats = SearchStats::default();
        let path = run_algorithm(&ctx, request, &mut stats)?;
        drop(ctx);
        Self::outcome(path, stats, started)
    }

    pub(crate) fn outcome(
        path: Path<'_>,
        stats: SearchStats,
        started: Instant,
    ) -> Result<PlacementOutcome, PlacementError> {
        let assignments: Vec<HostId> = path
            .assignment
            .iter()
            .copied()
            .collect::<Option<_>>()
            .ok_or(PlacementError::IncompleteAssignment)?;
        let placement = Placement::new(assignments);
        Ok(PlacementOutcome {
            objective: path.u_star,
            reserved_bandwidth: Bandwidth::from_mbps(path.ubw_mbps),
            new_active_hosts: path.new_hosts(),
            hosts_used: placement.distinct_hosts(),
            elapsed: started.elapsed(),
            stats,
            placement,
        })
    }

    /// Applies a placement decision to live capacity state, reserving
    /// every node's resources and every link's bandwidth
    /// ([`commit_effects`](crate::wal::commit_effects)).
    ///
    /// All-or-nothing: on error the state is left untouched.
    ///
    /// # Errors
    ///
    /// [`PlacementError::SizeMismatch`] or a wrapped
    /// [`CapacityError`](ostro_datacenter::CapacityError) if anything
    /// does not fit.
    pub fn commit(
        &self,
        topology: &ApplicationTopology,
        placement: &Placement,
        state: &mut CapacityState,
    ) -> Result<(), PlacementError> {
        effects::covers(topology, placement.assignments().len())?;
        let commit = effects::commit_effects(topology, placement);
        Ok(effects::apply(self.infra, state, &mut [], &commit)?)
    }

    /// Releases a previously committed placement from live state
    /// ([`release_effects`](crate::wal::release_effects)).
    ///
    /// All-or-nothing: on error the state is left untouched.
    ///
    /// # Errors
    ///
    /// [`PlacementError::SizeMismatch`] or a wrapped
    /// [`CapacityError`](ostro_datacenter::CapacityError) on any
    /// release underflow (e.g. the placement was never committed).
    pub fn release(
        &self,
        topology: &ApplicationTopology,
        placement: &Placement,
        state: &mut CapacityState,
    ) -> Result<(), PlacementError> {
        effects::covers(topology, placement.assignments().len())?;
        let release = effects::release_effects(topology, placement);
        Ok(effects::apply(self.infra, state, &mut [], &release)?)
    }

    /// Releases the committed subset of a partial assignment: every
    /// node with a host, and every link whose endpoints both have one
    /// ([`release_partial_effects`](crate::wal::release_partial_effects)).
    ///
    /// All-or-nothing: on error the state is left untouched.
    ///
    /// # Errors
    ///
    /// [`PlacementError::SizeMismatch`] or a wrapped
    /// [`CapacityError`](ostro_datacenter::CapacityError) on any
    /// release underflow.
    pub fn release_partial(
        &self,
        topology: &ApplicationTopology,
        assignment: &[Option<HostId>],
        state: &mut CapacityState,
    ) -> Result<(), PlacementError> {
        effects::covers(topology, assignment.len())?;
        let release = effects::release_partial_effects(topology, assignment);
        Ok(effects::apply(self.infra, state, &mut [], &release)?)
    }
}

/// Dispatches `request.algorithm` over an already-built context — the
/// one search entry point shared by the unsharded path and the sharded
/// per-pod searches.
pub(crate) fn run_algorithm<'a>(
    ctx: &Ctx<'a>,
    request: &PlacementRequest,
    stats: &mut SearchStats,
) -> Result<Path<'a>, PlacementError> {
    match request.algorithm {
        Algorithm::GreedyCompute => {
            let root = pinned_root(ctx)?;
            run_egc(ctx, &root, stats)
        }
        Algorithm::GreedyBandwidth => {
            let root = pinned_root(ctx)?;
            run_egbw(ctx, &root, stats)
        }
        Algorithm::Greedy => {
            let root = pinned_root(ctx)?;
            run_eg(ctx, &root, stats)
        }
        Algorithm::BoundedAStar => run_bastar(ctx, stats, request.max_expansions),
        Algorithm::DeadlineBoundedAStar { deadline } => run_dbastar(
            ctx,
            stats,
            deadline,
            request.seed,
            request.max_expansions,
            request.virtual_tick_us,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::ObjectiveWeights;
    use crate::validate::verify_placement;
    use ostro_datacenter::InfrastructureBuilder;
    use ostro_model::{DiversityLevel, Resources, TopologyBuilder};
    use std::time::Duration;

    fn infra() -> Infrastructure {
        InfrastructureBuilder::flat(
            "dc",
            2,
            4,
            Resources::new(8, 16_384, 500),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap()
    }

    fn topology() -> ApplicationTopology {
        let mut b = TopologyBuilder::new("app");
        let web = b.vm("web", 2, 2_048).unwrap();
        let db = b.vm("db", 4, 8_192).unwrap();
        let vol = b.volume("vol", 100).unwrap();
        b.link(web, db, Bandwidth::from_mbps(100)).unwrap();
        b.link(db, vol, Bandwidth::from_mbps(200)).unwrap();
        b.diversity_zone("z", DiversityLevel::Host, &[web, db]).unwrap();
        b.build().unwrap()
    }

    fn all_algorithms() -> Vec<Algorithm> {
        vec![
            Algorithm::GreedyCompute,
            Algorithm::GreedyBandwidth,
            Algorithm::Greedy,
            Algorithm::BoundedAStar,
            Algorithm::DeadlineBoundedAStar { deadline: Duration::from_secs(5) },
        ]
    }

    #[test]
    fn every_algorithm_yields_a_valid_placement() {
        let inf = infra();
        let topo = topology();
        let state = CapacityState::new(&inf);
        let scheduler = Scheduler::new(&inf);
        for algorithm in all_algorithms() {
            let request = PlacementRequest { algorithm, ..PlacementRequest::default() };
            let outcome = scheduler.place(&topo, &state, &request).unwrap();
            let violations = verify_placement(&topo, &inf, &state, &outcome.placement).unwrap();
            assert!(violations.is_empty(), "{algorithm:?}: {violations:?}");
            assert!(outcome.hosts_used >= 2, "diversity zone forces >= 2 hosts");
        }
    }

    #[test]
    fn commit_then_release_restores_state() {
        let inf = infra();
        let topo = topology();
        let mut state = CapacityState::new(&inf);
        let snapshot = state.clone();
        let scheduler = Scheduler::new(&inf);
        let outcome = scheduler.place(&topo, &state, &PlacementRequest::default()).unwrap();
        scheduler.commit(&topo, &outcome.placement, &mut state).unwrap();
        assert!(state.active_host_count() > 0);
        assert_eq!(state.total_reserved_bandwidth(&inf), outcome.reserved_bandwidth);
        scheduler.release(&topo, &outcome.placement, &mut state).unwrap();
        assert_eq!(state, snapshot);
    }

    #[test]
    fn size_mismatch_detected_everywhere() {
        let inf = infra();
        let topo = topology();
        let mut state = CapacityState::new(&inf);
        let scheduler = Scheduler::new(&inf);
        let short = Placement::new(vec![HostId::from_index(0)]);
        assert!(matches!(
            scheduler.commit(&topo, &short, &mut state),
            Err(PlacementError::SizeMismatch { .. })
        ));
        assert!(matches!(
            scheduler.release(&topo, &short, &mut state),
            Err(PlacementError::SizeMismatch { .. })
        ));
    }

    /// The acceptance pin: parallel chunked dispatch plus the region
    /// memo picks placements bit-identical to the serial per-host
    /// engine, across every search algorithm.
    #[test]
    fn parallel_cached_scoring_is_bit_identical_to_serial_cold_cache() {
        // 128 hosts: enough feasible candidates that the parallel path
        // crosses its adaptive serial threshold at 4 participants.
        let inf = InfrastructureBuilder::flat(
            "dc",
            8,
            16,
            Resources::new(8, 16_384, 500),
            Bandwidth::from_gbps(10),
            Bandwidth::from_gbps(100),
        )
        .build()
        .unwrap();
        let mut b = TopologyBuilder::new("app");
        let hub = b.vm("hub", 4, 4_096).unwrap();
        let mut workers = Vec::new();
        for i in 0..4 {
            let w = b.vm(format!("w{i}"), 2, 2_048).unwrap();
            b.link(hub, w, Bandwidth::from_mbps(100 + 50 * i)).unwrap();
            workers.push(w);
        }
        let vol = b.volume("vol", 200).unwrap();
        b.link(hub, vol, Bandwidth::from_mbps(400)).unwrap();
        b.diversity_zone("z", DiversityLevel::Host, &workers[..2]).unwrap();
        let topo = b.build().unwrap();
        let state = CapacityState::new(&inf);
        let scheduler = Scheduler::new(&inf);
        for algorithm in [
            Algorithm::Greedy,
            Algorithm::BoundedAStar,
            Algorithm::DeadlineBoundedAStar { deadline: Duration::from_secs(5) },
        ] {
            let fast = PlacementRequest {
                algorithm,
                parallel: true,
                memoize_bounds: true,
                score_threads: 4,
                max_expansions: 2_000,
                ..PlacementRequest::default()
            };
            let slow = PlacementRequest {
                algorithm,
                parallel: false,
                memoize_bounds: false,
                score_threads: 1,
                ..fast.clone()
            };
            let a = scheduler.place(&topo, &state, &fast).unwrap();
            let b = scheduler.place(&topo, &state, &slow).unwrap();
            assert_eq!(a.placement, b.placement, "{algorithm:?}: placements diverged");
            assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{algorithm:?}: objective");
            assert_eq!(a.reserved_bandwidth, b.reserved_bandwidth, "{algorithm:?}: bandwidth");
            assert_eq!(a.hosts_used, b.hosts_used, "{algorithm:?}: hosts");
            assert_eq!(a.stats.heuristic_evals, b.stats.heuristic_evals, "{algorithm:?}: evals");
            assert!(a.stats.bound_cache_hits > 0, "{algorithm:?}: no region was shared");
            assert_eq!(b.stats.bound_cache_hits + b.stats.bound_cache_misses, 0);
        }
    }

    #[test]
    fn bandwidth_dominant_weights_colocate_linked_nodes() {
        let inf = infra();
        let mut b = TopologyBuilder::new("pair");
        let x = b.vm("x", 2, 2_048).unwrap();
        let y = b.vm("y", 2, 2_048).unwrap();
        b.link(x, y, Bandwidth::from_mbps(500)).unwrap();
        let topo = b.build().unwrap();
        let state = CapacityState::new(&inf);
        let scheduler = Scheduler::new(&inf);
        let request = PlacementRequest::default().weights(ObjectiveWeights::BANDWIDTH_DOMINANT);
        let outcome = scheduler.place(&topo, &state, &request).unwrap();
        assert_eq!(outcome.reserved_bandwidth, Bandwidth::ZERO);
        assert_eq!(outcome.hosts_used, 1);
        assert!(outcome.elapsed > Duration::ZERO);
    }
}
