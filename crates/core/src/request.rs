use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::objective::ObjectiveWeights;

/// Which placement algorithm to run.
///
/// The five algorithms match the paper's evaluation head-to-head:
/// the two single-objective greedy baselines, the estimate-based
/// greedy, and the two A\*-based searches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Algorithm {
    /// `EGC` — compute bin-packing baseline: always picks the feasible
    /// host with the smallest remaining compute capacity, ignoring
    /// communication links.
    GreedyCompute,
    /// `EGBW` — bandwidth-only baseline: places linked nodes as close
    /// together as possible, preferring hosts with the most available
    /// bandwidth, ignoring host consolidation.
    GreedyBandwidth,
    /// `EG` — the estimate-based greedy search of Algorithm 1, guided
    /// by the admissible heuristic lower bound over both objectives.
    Greedy,
    /// `BA*` — the bounded A\* search of Algorithm 2: explores all
    /// branches, bounded by repeatedly running EG for an upper bound.
    BoundedAStar,
    /// `DBA*` — deadline-bounded A\* (§III-C): BA\* plus progressive
    /// probabilistic pruning so a decision is produced within the
    /// deadline.
    DeadlineBoundedAStar {
        /// The wall-clock budget T.
        deadline: Duration,
    },
}

impl Algorithm {
    /// The paper's abbreviation for this algorithm.
    #[must_use]
    pub const fn abbreviation(&self) -> &'static str {
        match self {
            Algorithm::GreedyCompute => "EGC",
            Algorithm::GreedyBandwidth => "EGBW",
            Algorithm::Greedy => "EG",
            Algorithm::BoundedAStar => "BA*",
            Algorithm::DeadlineBoundedAStar { .. } => "DBA*",
        }
    }
}

/// All knobs of one placement request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementRequest {
    /// The algorithm to run. Defaults to [`Algorithm::Greedy`].
    pub algorithm: Algorithm,
    /// Objective weights θbw/θc. Defaults to the paper's simulation
    /// setting (0.6/0.4).
    pub weights: ObjectiveWeights,
    /// Seed for DBA\*'s pruning randomness; fixed for reproducibility.
    pub seed: u64,
    /// Evaluate candidate hosts on multiple threads (the paper's EG
    /// "computes the utility in parallel").
    pub parallel: bool,
    /// Enable §III-B3's diversity-zone symmetry reduction: nodes that
    /// share a zone, have identical requirements, and have identical
    /// link fingerprints are treated as interchangeable.
    pub zone_symmetry: bool,
    /// Use the estimate-based heuristic lower bound when scoring
    /// candidates (§III-A2). Disabling it degrades EG to a myopic
    /// accumulated-utility greedy — the ablation of the paper's core
    /// idea.
    pub use_estimate: bool,
    /// Safety cap on A\* path expansions (0 = unlimited). BA\* on an
    /// adversarial instance is exponential; this turns a hang into a
    /// best-bound answer.
    pub max_expansions: u64,
    /// Candidate-scoring participants (worker threads + the calling
    /// thread) when [`parallel`](Self::parallel) is on. `0` (the
    /// default) resolves to `std::thread::available_parallelism`.
    #[serde(default)]
    pub score_threads: usize,
    /// Resolve each scoring round's heuristic lower bounds once per
    /// decision region (exact; see the `heuristic` module) instead of
    /// once per candidate host. Disabling evaluates every bound per
    /// host — the independent reference the region memo is tested
    /// against, and the kernel benchmark's baseline.
    #[serde(default = "default_memoize_bounds")]
    pub memoize_bounds: bool,
    /// Cache budget, in bytes, for one parallel-scoring chunk's working
    /// set; chunk length is capped to fit it. `0` (the default) uses a
    /// conservative L2-sized budget. Purely a locality lever — chunk
    /// geometry never changes results.
    #[serde(default)]
    pub chunk_bytes: usize,
    /// Virtual microseconds charged per deadline-clock poll in DBA\*.
    /// `0` (the default) reads the wall clock. Non-zero replaces it
    /// with a deterministic tick clock — the same simulated-tick idea
    /// as the deploy retry loop — so every deadline decision (stop,
    /// prune-rate growth, refresh budgeting) becomes a pure function
    /// of the request. Crash-replay bit-identity tests use this to
    /// cover DBA\*; production keeps the wall clock.
    #[serde(default)]
    pub virtual_tick_us: u64,
    /// Two-level sharded placement: score per-pod digests against the
    /// request's footprint, then run the exact search inside the top-K
    /// candidate pods only (in parallel when
    /// [`parallel`](Self::parallel) allows). Off by default — the
    /// unsharded search sweeps the whole fleet. Requests that cannot
    /// shard (pinned nodes, a single or non-contiguous pod layout, or
    /// K covering every pod) fall back to the unsharded search, which
    /// is bit-identical to `shard: false`.
    #[serde(default)]
    pub shard: bool,
    /// Candidate pods the coarse stage keeps for exact search when
    /// [`shard`](Self::shard) is on. `0` (the default) resolves to
    /// [`DEFAULT_PODS_CONSIDERED`]; any value covering every pod
    /// disables sharding for the request (trivially bit-identical).
    #[serde(default)]
    pub pods_considered: usize,
}

/// Candidate pods kept by the coarse stage when
/// [`PlacementRequest::pods_considered`] is 0.
pub const DEFAULT_PODS_CONSIDERED: usize = 4;

fn default_memoize_bounds() -> bool {
    true
}

impl Default for PlacementRequest {
    fn default() -> Self {
        PlacementRequest {
            algorithm: Algorithm::Greedy,
            weights: ObjectiveWeights::default(),
            seed: 0xB0DE,
            parallel: true,
            zone_symmetry: true,
            use_estimate: true,
            max_expansions: 0,
            score_threads: 0,
            memoize_bounds: true,
            chunk_bytes: 0,
            virtual_tick_us: 0,
            shard: false,
            pods_considered: 0,
        }
    }
}

impl PlacementRequest {
    /// A request running `algorithm` with otherwise default knobs.
    #[must_use]
    pub fn with_algorithm(algorithm: Algorithm) -> Self {
        PlacementRequest { algorithm, ..PlacementRequest::default() }
    }

    /// Sets the objective weights, builder-style.
    #[must_use]
    pub fn weights(mut self, weights: ObjectiveWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Sets the RNG seed, builder-style.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the scoring participant count, builder-style (0 = auto).
    #[must_use]
    pub fn score_threads(mut self, threads: usize) -> Self {
        self.score_threads = threads;
        self
    }

    /// Sets the per-chunk cache budget, builder-style (0 = default).
    #[must_use]
    pub fn chunk_bytes(mut self, bytes: usize) -> Self {
        self.chunk_bytes = bytes;
        self
    }

    /// Sets the virtual deadline-clock tick, builder-style (0 = wall
    /// clock).
    #[must_use]
    pub fn virtual_tick_us(mut self, us: u64) -> Self {
        self.virtual_tick_us = us;
        self
    }

    /// Enables or disables two-level sharded placement, builder-style.
    #[must_use]
    pub fn shard(mut self, shard: bool) -> Self {
        self.shard = shard;
        self
    }

    /// Sets how many candidate pods the coarse stage keeps,
    /// builder-style (0 = [`DEFAULT_PODS_CONSIDERED`]).
    #[must_use]
    pub fn pods_considered(mut self, pods: usize) -> Self {
        self.pods_considered = pods;
        self
    }

    /// First step down the engine ladder under overload: caps the A\*
    /// variants' expansion budget at `cap` (tightening an existing
    /// cap, never loosening one). The greedy engines are already the
    /// floor and are untouched. Returns whether anything changed.
    pub fn cap_search(&mut self, cap: u64) -> bool {
        if cap == 0 {
            return false;
        }
        match self.algorithm {
            Algorithm::BoundedAStar | Algorithm::DeadlineBoundedAStar { .. } => {
                let capped = match self.max_expansions {
                    0 => cap,
                    n => n.min(cap),
                };
                if capped == self.max_expansions {
                    return false;
                }
                self.max_expansions = capped;
                true
            }
            _ => false,
        }
    }

    /// Last step down the engine ladder: replaces the A\* variants with
    /// the greedy EG engine (the cheapest full-objective search — the
    /// single-objective baselines are evaluation-only, not a service
    /// tier). Returns whether anything changed.
    pub fn floor_search(&mut self) -> bool {
        match self.algorithm {
            Algorithm::BoundedAStar | Algorithm::DeadlineBoundedAStar { .. } => {
                self.algorithm = Algorithm::Greedy;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abbreviations_match_paper() {
        assert_eq!(Algorithm::GreedyCompute.abbreviation(), "EGC");
        assert_eq!(Algorithm::GreedyBandwidth.abbreviation(), "EGBW");
        assert_eq!(Algorithm::Greedy.abbreviation(), "EG");
        assert_eq!(Algorithm::BoundedAStar.abbreviation(), "BA*");
        assert_eq!(
            Algorithm::DeadlineBoundedAStar { deadline: Duration::from_millis(500) }.abbreviation(),
            "DBA*"
        );
    }

    #[test]
    fn builder_style_setters() {
        let r = PlacementRequest::with_algorithm(Algorithm::BoundedAStar)
            .weights(ObjectiveWeights::BANDWIDTH_DOMINANT)
            .seed(7);
        assert_eq!(r.algorithm, Algorithm::BoundedAStar);
        assert_eq!(r.weights, ObjectiveWeights::BANDWIDTH_DOMINANT);
        assert_eq!(r.seed, 7);
        assert!(r.parallel);
        assert_eq!(r.score_threads, 0, "0 = resolve from available_parallelism");
        assert!(r.memoize_bounds);
    }

    #[test]
    fn ladder_steps_only_touch_the_astar_tiers() {
        let mut r = PlacementRequest::with_algorithm(Algorithm::BoundedAStar);
        assert!(r.cap_search(4_096));
        assert_eq!(r.max_expansions, 4_096);
        assert!(!r.cap_search(8_192), "a cap never loosens an existing one");
        assert_eq!(r.max_expansions, 4_096);
        assert!(r.cap_search(1_024));
        assert_eq!(r.max_expansions, 1_024);
        assert!(r.floor_search());
        assert_eq!(r.algorithm, Algorithm::Greedy);
        assert!(!r.floor_search(), "the floor is idempotent");

        let mut greedy = PlacementRequest::default();
        assert!(!greedy.cap_search(64));
        assert!(!greedy.floor_search());
        assert_eq!(greedy.algorithm, Algorithm::Greedy);

        let mut dba = PlacementRequest::with_algorithm(Algorithm::DeadlineBoundedAStar {
            deadline: Duration::from_millis(100),
        });
        assert!(dba.cap_search(2_048));
        assert!(dba.floor_search());
        assert_eq!(dba.algorithm, Algorithm::Greedy);
    }

    #[test]
    fn requests_without_the_new_knobs_still_deserialize() {
        // A request serialized before score_threads/memoize_bounds
        // existed must round-trip onto the defaults.
        let legacy = r#"{
            "algorithm": "Greedy",
            "weights": { "bandwidth": 0.6, "hosts": 0.4 },
            "seed": 1,
            "parallel": true,
            "zone_symmetry": true,
            "use_estimate": true,
            "max_expansions": 0
        }"#;
        let r: PlacementRequest = serde_json::from_str(legacy).unwrap();
        assert_eq!(r.score_threads, 0);
        assert!(r.memoize_bounds);
        assert_eq!(r.chunk_bytes, 0, "0 = default cache budget");
        assert!(!r.shard, "pre-shard requests solve unsharded");
        assert_eq!(r.pods_considered, 0, "0 = DEFAULT_PODS_CONSIDERED");
    }

    #[test]
    fn shard_knobs_round_trip() {
        let r = PlacementRequest::default().shard(true).pods_considered(7);
        assert!(r.shard);
        assert_eq!(r.pods_considered, 7);
        let json = serde_json::to_string(&r).unwrap();
        let back: PlacementRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
