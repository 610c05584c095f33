use std::collections::HashSet;
use std::time::Duration;

use ostro_datacenter::HostId;
use ostro_model::{Bandwidth, NodeId};
use serde::{Deserialize, Serialize};

/// A complete mapping of every topology node to a host.
///
/// Index `i` holds the host of the node with id `i`; placements are
/// only meaningful together with the topology they were computed for.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    assignments: Vec<HostId>,
}

impl Placement {
    /// Wraps a dense per-node host assignment.
    #[must_use]
    pub fn new(assignments: Vec<HostId>) -> Self {
        Placement { assignments }
    }

    /// The host assigned to `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range for this placement.
    #[must_use]
    pub fn host_of(&self, node: NodeId) -> HostId {
        self.assignments[node.index()]
    }

    /// The raw per-node assignment vector.
    #[must_use]
    pub fn assignments(&self) -> &[HostId] {
        &self.assignments
    }

    /// Iterates `(node, host)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, HostId)> + '_ {
        self.assignments.iter().enumerate().map(|(i, &h)| (NodeId::from_index(i as u32), h))
    }

    /// The number of distinct hosts this placement touches.
    #[must_use]
    pub fn distinct_hosts(&self) -> usize {
        self.assignments.iter().collect::<HashSet<_>>().len()
    }

    /// Nodes assigned to `host`.
    #[must_use]
    pub fn nodes_on(&self, host: HostId) -> Vec<NodeId> {
        self.iter().filter(|&(_, h)| h == host).map(|(n, _)| n).collect()
    }
}

/// Counters describing how hard the search worked; useful for the
/// paper's scalability analysis and for regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Search paths popped and expanded (A\* variants) or node steps
    /// taken (greedy variants).
    pub expanded: u64,
    /// Candidate paths generated.
    pub generated: u64,
    /// Paths discarded because their utility met or exceeded the
    /// current upper bound (Alg. 2, line 11).
    pub pruned_by_bound: u64,
    /// Paths discarded by DBA\*'s probabilistic pruning.
    pub pruned_probabilistically: u64,
    /// Paths skipped because an identical placement was already closed
    /// (Alg. 2, line 10).
    pub deduplicated: u64,
    /// Paths never generated thanks to diversity-zone symmetry
    /// reduction (§III-B3).
    pub symmetry_skipped: u64,
    /// How many times the embedded greedy search ran to (re)establish
    /// the upper bound (Alg. 2, lines 3 and 17).
    pub eg_runs: u64,
    /// Heuristic lower-bound resolutions requested (one per scored
    /// candidate host, however the bound was obtained).
    pub heuristic_evals: u64,
    /// Hosts examined by the candidate sweep, across every expansion
    /// (the denominator for the vectorized-filtering counters below).
    /// Absent in pre-SoA stats dumps.
    #[serde(default)]
    pub candidates_scanned: u64,
    /// Of those, hosts rejected by the branch-free capacity/NIC column
    /// sweep (the SIMD kernel when the `simd` feature is on, its scalar
    /// autovectorized fallback otherwise) before any per-host hash
    /// probing ran.
    #[serde(default)]
    pub candidates_pruned_simd: u64,
    /// Of those resolutions, the ones served by a region another
    /// candidate of the same scoring round had already evaluated (see
    /// the `heuristic` module). Zero with `memoize_bounds: false`.
    /// Absent in pre-memoization stats dumps.
    #[serde(default)]
    pub bound_cache_hits: u64,
    /// Of those resolutions, the ones that ran the §III-A2 evaluation.
    /// Zero with `memoize_bounds: false` (every resolution evaluates,
    /// uncounted).
    #[serde(default)]
    pub bound_cache_misses: u64,
    /// Retired with the cross-request bound cache: always zero, kept
    /// pending a `benchmark` issue because `e2e` still reads it.
    #[serde(default)]
    pub session_cache_hits: u64,
    /// Retired, always zero (see `session_cache_hits`).
    #[serde(default)]
    pub session_cache_misses: u64,
    /// Retired, always zero (see `session_cache_hits`).
    #[serde(default)]
    pub session_cache_evictions: u64,
    /// Session-mode only: hosts re-resolved from the dirty-host
    /// journal before this request solved (hosts touched by commits,
    /// releases, deploys, or evacuations since the previous request).
    #[serde(default)]
    pub session_dirty_hosts: u64,
    /// Session-mode only: cumulative orphaned reservations repaired by
    /// anti-entropy sweeps over the session's lifetime so far.
    #[serde(default)]
    pub reconcile_orphaned: u64,
    /// Session-mode only: cumulative leaked releases repaired.
    #[serde(default)]
    pub reconcile_leaked: u64,
    /// Session-mode only: cumulative stale-race ghosts repaired.
    #[serde(default)]
    pub reconcile_ghosts: u64,
    /// Session-mode only: cumulative atomic tenant migrations applied
    /// by the maintenance plane (defragmentation sweeps and proactive
    /// drains) over the session's lifetime so far.
    #[serde(default)]
    pub maintenance_migrations: u64,
    /// Service-mode only: optimistic commits of this request that
    /// failed validation (a concurrent commit touched a planned host
    /// between snapshot and commit, or saturated a shared link).
    #[serde(default)]
    pub commit_conflicts: u64,
    /// Service-mode only: how many times this request was re-planned
    /// against a fresh snapshot after losing a commit race (bounded by
    /// the service's retry budget; the last resort plans serialized
    /// under the commit lock and counts here too).
    #[serde(default)]
    pub replans: u64,
    /// Sharded mode only: pods scored by the coarse digest stage
    /// before exact search (the whole fleet, once per request).
    #[serde(default)]
    pub pods_scanned: u64,
    /// Sharded mode only: pods the coarse stage dropped before exact
    /// search (everything outside the top-K candidate set).
    #[serde(default)]
    pub pods_pruned: u64,
    /// Sharded mode only: how many times this request fell back to the
    /// plain unsharded search — pins present, K covering every pod, a
    /// fleet without a contiguous pod layout, or every candidate pod
    /// infeasible.
    #[serde(default)]
    pub shard_fallbacks: u64,
    /// `true` if a deadline-bounded run hit its deadline and returned
    /// the best bound found so far.
    pub deadline_hit: bool,
    /// Service-mode only: `true` if overload degraded this request down
    /// the engine ladder (a capped or greedy-floor search solved it
    /// instead of the algorithm the caller asked for).
    #[serde(default)]
    pub degraded: bool,
}

impl SearchStats {
    /// Folds the candidate-scoring effort of a nested search — an EG run
    /// embedded in BA\*/DBA\*, or one pod of a sharded request — into
    /// `self`, so the sweep and bound counters of a request share one
    /// denominator. `expanded` / `generated` are not effort in this
    /// sense (they count A\* expansions and steer DBA\*'s controller)
    /// and stay with the caller.
    pub(crate) fn fold_scoring_effort(&mut self, from: &SearchStats) {
        self.heuristic_evals += from.heuristic_evals;
        self.candidates_scanned += from.candidates_scanned;
        self.candidates_pruned_simd += from.candidates_pruned_simd;
        self.bound_cache_hits += from.bound_cache_hits;
        self.bound_cache_misses += from.bound_cache_misses;
    }
}

/// The result of one placement request: the decision plus the resource
/// and search metrics the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// The node → host decision.
    pub placement: Placement,
    /// Normalized objective value u ∈ [0, 1] (lower is better).
    pub objective: f64,
    /// Total bandwidth reserved across all physical links for this
    /// application (the tables' "Bandwidth" row).
    pub reserved_bandwidth: Bandwidth,
    /// Previously idle hosts activated by this placement (the tables'
    /// "New active hosts" row).
    pub new_active_hosts: usize,
    /// Distinct hosts the application occupies.
    pub hosts_used: usize,
    /// Wall-clock time the algorithm took.
    pub elapsed: Duration,
    /// Search-effort counters.
    pub stats: SearchStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(i: u32) -> HostId {
        HostId::from_index(i)
    }

    #[test]
    fn lookup_and_iteration() {
        let p = Placement::new(vec![h(3), h(1), h(3)]);
        assert_eq!(p.host_of(NodeId::from_index(0)), h(3));
        assert_eq!(p.assignments().len(), 3);
        assert_eq!(p.distinct_hosts(), 2);
        let pairs: Vec<_> = p.iter().collect();
        assert_eq!(pairs[1], (NodeId::from_index(1), h(1)));
        assert_eq!(p.nodes_on(h(3)), vec![NodeId::from_index(0), NodeId::from_index(2)]);
        assert!(p.nodes_on(h(9)).is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let p = Placement::new(vec![h(0), h(5)]);
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<Placement>(&json).unwrap(), p);
    }
}
