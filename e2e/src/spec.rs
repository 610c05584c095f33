//! The six named workloads. Names and sizes are final: later issues
//! quote them, so they change only in an issue about the benchmark.

use std::time::Duration;

use ostro_core::{Algorithm, PlacementRequest, ServiceConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Catalog {
    /// `ostro_sim::stream::shape_catalog`: multi-tier 25/50, mesh 3/5.
    Stream,
    /// 2-VM linked pair, `mesh(3)`, `multi_tier(5)`.
    Small,
    /// `multi_tier(10)`, `mesh(4)`, `mesh(5)`.
    SmallAstar,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One client; the next request leaves only when the previous ack
    /// arrived.
    ClosedLoop,
    /// This many arrivals submitted at once, the wave awaited, then as
    /// many releases submitted at once and awaited.
    Waves(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub pods: usize,
    pub racks_per_pod: usize,
    pub hosts_per_rack: usize,
    pub catalog: Catalog,
    pub algorithm: Algorithm,
    pub shard: bool,
    pub drive: Drive,
    pub planners: usize,
    /// Resident tenants the timed window holds the fleet at.
    pub resident: usize,
    /// Arrivals between maintenance ticks; 0 = no maintenance plane.
    pub maintain_every: usize,
    /// Every n-th commit is compared with a cold one-shot solve (the
    /// oracle) and, when traced, probed layer by layer.
    pub probe_every: usize,
}

const EG: Algorithm = Algorithm::Greedy;
const DBA: Algorithm = Algorithm::DeadlineBoundedAStar { deadline: Duration::from_millis(20) };

pub const WORKLOADS: [Spec; 6] = [
    Spec {
        name: "steady_eg",
        why: "Closed loop, no queue: EG search is nearly all of the latency; the floor every queueing number is read against.",
        pods: 1,
        racks_per_pod: 64,
        hosts_per_rack: 16,
        catalog: Catalog::Stream,
        algorithm: EG,
        shard: false,
        drive: Drive::ClosedLoop,
        planners: 1,
        resident: 60,
        maintain_every: 0,
        probe_every: 16,
    },
    Spec {
        name: "backlog_p1",
        why: "Same fleet and mix under 32-arrival waves, one planner: queue wait, admission batching, stale admission, WAL group commit.",
        pods: 1,
        racks_per_pod: 64,
        hosts_per_rack: 16,
        catalog: Catalog::Stream,
        algorithm: EG,
        shard: false,
        drive: Drive::Waves(32),
        planners: 1,
        resident: 60,
        maintain_every: 0,
        probe_every: 16,
    },
    Spec {
        name: "backlog_p2",
        why: "backlog_p1's inputs with two planners: the only regime where a second planner can help on 2 cores; conflicts and re-plans.",
        pods: 1,
        racks_per_pod: 64,
        hosts_per_rack: 16,
        catalog: Catalog::Stream,
        algorithm: EG,
        shard: false,
        drive: Drive::Waves(32),
        planners: 2,
        resident: 60,
        maintain_every: 0,
        probe_every: 16,
    },
    Spec {
        name: "sharded_fleet",
        why: "5,120 hosts in 16 pods, sharded EG: pod-digest screen, in-pod search and every O(fleet) cost; oracle_gap is not trivially 1.",
        pods: 16,
        racks_per_pod: 8,
        hosts_per_rack: 40,
        catalog: Catalog::Stream,
        algorithm: EG,
        shard: true,
        drive: Drive::ClosedLoop,
        planners: 1,
        resident: 120,
        maintain_every: 0,
        probe_every: 16,
    },
    Spec {
        name: "durable_churn",
        why: "Small tenants on 128 hosts with maintenance ticks: commit, snapshot publish, WAL fsync/compaction and releases dominate, search does not.",
        pods: 2,
        racks_per_pod: 4,
        hosts_per_rack: 16,
        catalog: Catalog::Small,
        algorithm: EG,
        shard: false,
        drive: Drive::ClosedLoop,
        planners: 1,
        resident: 24,
        maintain_every: 256,
        probe_every: 16,
    },
    Spec {
        name: "astar_small",
        why: "DBA* (20 ms on the tick clock) on 256 hosts: open/closed queues, rollback, bound memo, probabilistic pruning instead of one sweep per node.",
        pods: 4,
        racks_per_pod: 4,
        hosts_per_rack: 16,
        catalog: Catalog::SmallAstar,
        algorithm: DBA,
        shard: false,
        drive: Drive::ClosedLoop,
        planners: 1,
        resident: 24,
        maintain_every: 0,
        probe_every: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn hosts(&self) -> usize {
        self.pods * self.racks_per_pod * self.hosts_per_rack
    }

    pub fn closed_loop(&self) -> bool {
        self.drive == Drive::ClosedLoop
    }

    /// The same workload on at most 64 hosts, for `--smoke`: every
    /// code path and check runs, nothing is sized to be measured.
    pub fn smoke(&self) -> Spec {
        let pods = self.pods.min(4);
        Spec {
            pods,
            racks_per_pod: (8 / pods).min(self.racks_per_pod),
            hosts_per_rack: 8,
            resident: self.resident.min(4),
            // The small fleet has no room for a 32-wave on top of R.
            drive: match self.drive {
                Drive::ClosedLoop => Drive::ClosedLoop,
                Drive::Waves(n) => Drive::Waves(n.min(4)),
            },
            maintain_every: self.maintain_every.min(8),
            probe_every: 8,
            ..self.clone()
        }
    }

    pub fn request(&self) -> PlacementRequest {
        PlacementRequest {
            algorithm: self.algorithm,
            shard: self.shard,
            // DBA* polls a tick clock, so its decisions are a function
            // of the request alone and digests can be compared.
            virtual_tick_us: if self.algorithm == EG { 0 } else { 200 },
            ..PlacementRequest::default()
        }
    }

    /// Durable acks and admission control on, sized not to bite.
    pub fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            planners: self.planners,
            durable_acks: true,
            queue_depth: 256,
            deadline_ms: 5_000,
            ..ServiceConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_sizes_as_published() {
        let mut names: Vec<_> = WORKLOADS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert_eq!(find("sharded_fleet").unwrap().hosts(), 5_120);
        assert_eq!(find("durable_churn").unwrap().hosts(), 128);
        assert_eq!(find("astar_small").unwrap().hosts(), 256);
        assert!(find("nope").is_none());
    }

    #[test]
    fn smoke_variants_stay_small() {
        for spec in &WORKLOADS {
            let smoke = spec.smoke();
            assert!(smoke.hosts() <= 64, "{}: {} hosts", spec.name, smoke.hosts());
            assert!(smoke.resident <= 4);
            assert_eq!(smoke.closed_loop(), spec.closed_loop());
            assert_eq!(smoke.request(), spec.request());
        }
    }
}
