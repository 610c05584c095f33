//! Everything the engine is fed, generated inside the harness: the
//! fleet, the arrival and departure schedule and the heartbeat plan
//! from `--seed`, the tenant catalog from a constant. Same seed, same
//! inputs.
//!
//! The catalog does not follow the seed because search cost follows
//! the catalog: a mesh with two more group links, or a different
//! shuffle of VM sizes, moves every latency figure by tens of percent,
//! and the regression bounds are judged across seeds. What the seed
//! varies is where tenants can go and in which order they come.

use std::sync::Arc;

use ostro_datacenter::{CapacityState, Infrastructure};
use ostro_model::{ApplicationTopology, Bandwidth, ModelError, TopologyBuilder};
use ostro_sim::requirements::RequirementMix;
use ostro_sim::scenarios::pod_fleet;
use ostro_sim::stream::shape_catalog;
use ostro_sim::workloads::{mesh, multi_tier};
use ostro_sim::{HeartbeatConfig, HeartbeatPlan};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Catalog, Spec};

/// Maintenance ticks the heartbeat plan schedules its afflictions
/// over; the fail-stop host dies between a quarter and half of it.
pub const HEARTBEAT_HORIZON: usize = 24;

// One stream per input, so that drawing more of one (a longer run)
// never shifts another.
const FLEET: u64 = 0xF1EE_7000;
/// The one catalog seed every run uses.
const CATALOG: u64 = 0xCA7A_1060;
const ARRIVALS: u64 = 0xA221_7A15;
const DEPARTURES: u64 = 0xDE9A_2700;
const HEARTBEATS: u64 = 0xBEA7_0000;

fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// FNV-1a over 64-bit words: the digest of inputs and of decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

pub fn fleet(spec: &Spec, seed: u64) -> (Infrastructure, CapacityState) {
    pod_fleet(spec.pods, spec.racks_per_pod, spec.hosts_per_rack, true, &mut rng(seed, FLEET))
        .expect("workload fleets have non-zero dimensions")
}

fn linked_pair() -> Result<ApplicationTopology, ModelError> {
    let mut b = TopologyBuilder::new("pair");
    let x = b.vm("x", 2, 2_048)?;
    let y = b.vm("y", 2, 2_048)?;
    b.link(x, y, Bandwidth::from_mbps(100))?;
    b.build()
}

pub fn catalog(spec: &Spec) -> Vec<Arc<ApplicationTopology>> {
    let mix = RequirementMix::heterogeneous();
    let mut rng = SmallRng::seed_from_u64(CATALOG);
    let shapes = match spec.catalog {
        Catalog::Stream => shape_catalog(CATALOG),
        Catalog::Small => linked_pair().and_then(|pair| {
            Ok(vec![pair, mesh(3, &mix, &mut rng)?, multi_tier(5, &mix, &mut rng)?])
        }),
        Catalog::SmallAstar => multi_tier(10, &mix, &mut rng)
            .and_then(|tiers| Ok(vec![tiers, mesh(3, &mix, &mut rng)?, mesh(4, &mix, &mut rng)?])),
    };
    shapes.expect("catalog sizes are valid").into_iter().map(Arc::new).collect()
}

/// The unbounded arrival/departure schedule. A run draws as far as
/// its window reaches; a longer run only extends the same sequence.
///
/// Arrivals come in blocks holding every catalog shape once, in a
/// seeded order: whatever stretch a window covers has the same mix,
/// so a percentile does not move because one run happened to draw
/// more large tenants than another.
#[derive(Debug, Clone)]
pub struct Schedule {
    shapes: usize,
    block: Vec<usize>,
    arrivals: SmallRng,
    departures: SmallRng,
}

impl Schedule {
    pub fn new(seed: u64, shapes: usize) -> Self {
        Schedule {
            shapes,
            block: Vec::with_capacity(shapes),
            arrivals: rng(seed, ARRIVALS),
            departures: rng(seed, DEPARTURES),
        }
    }

    /// Catalog index of the next arrival.
    pub fn next_shape(&mut self) -> usize {
        if self.block.is_empty() {
            self.block.extend(0..self.shapes);
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.arrivals.gen_range(0..=i));
            }
        }
        self.block.pop().expect("a block was just dealt")
    }

    /// Which of `residents` tenants departs next.
    pub fn next_departure(&mut self, residents: usize) -> usize {
        self.departures.gen_range(0..residents)
    }
}

pub fn heartbeat_plan(seed: u64, hosts: usize) -> HeartbeatPlan {
    let config = HeartbeatConfig { seed: seed ^ HEARTBEATS, ..HeartbeatConfig::default() };
    HeartbeatPlan::generate(&config, hosts, HEARTBEAT_HORIZON)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;
    use ostro_datacenter::HostId;

    fn fleet_digest(infra: &Infrastructure, state: &CapacityState) -> Digest {
        let mut d = Digest::new();
        for i in 0..infra.host_count() {
            let host = HostId::from_index(i as u32);
            let free = state.available(host);
            d.word(u64::from(free.vcpus));
            d.word(free.memory_mb);
            d.word(state.nic_available(host).as_mbps());
        }
        d
    }

    fn schedule_prefix(seed: u64) -> Vec<usize> {
        let mut s = Schedule::new(seed, 4);
        (0..64).flat_map(|_| [s.next_shape(), s.next_departure(17)]).collect()
    }

    fn beats(seed: u64) -> Vec<Vec<HostId>> {
        let plan = heartbeat_plan(seed, 64);
        (0..40).map(|tick| plan.beats_at(tick)).collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in WORKLOADS.iter().map(Spec::smoke) {
            let digest = |seed| {
                let (infra, state) = fleet(&spec, seed);
                fleet_digest(&infra, &state)
            };
            assert_eq!(digest(1), digest(1), "{}", spec.name);
            assert_ne!(digest(1), digest(2), "{}", spec.name);
        }
        assert_eq!(schedule_prefix(1), schedule_prefix(1));
        assert_ne!(schedule_prefix(1), schedule_prefix(2));
        assert_eq!(heartbeat_plan(1, 64), heartbeat_plan(1, 64));
        assert_eq!(beats(1), beats(1));
        assert_ne!(beats(1), beats(2));
    }

    #[test]
    fn drawing_departures_does_not_shift_arrivals() {
        let mut a = Schedule::new(9, 4);
        let mut b = Schedule::new(9, 4);
        let plain: Vec<usize> = (0..32).map(|_| a.next_shape()).collect();
        let interleaved: Vec<usize> = (0..32)
            .map(|_| {
                b.next_departure(5);
                b.next_shape()
            })
            .collect();
        assert_eq!(plain, interleaved);
    }

    #[test]
    fn every_block_of_arrivals_holds_every_shape_once() {
        let mut s = Schedule::new(3, 4);
        let mut orders = Vec::new();
        for _ in 0..16 {
            let mut block: Vec<usize> = (0..4).map(|_| s.next_shape()).collect();
            orders.push(block.clone());
            block.sort_unstable();
            assert_eq!(block, [0, 1, 2, 3]);
        }
        orders.dedup();
        assert!(orders.len() > 1, "the order inside a block is drawn, not fixed");
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        let mut b = Digest::new();
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
    }
}
