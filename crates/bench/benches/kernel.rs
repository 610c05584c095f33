//! Search-kernel microbenchmarks: child-expansion throughput
//! (delta-undo place/undo cycles per second) and candidate-scoring
//! latency, on a flat and a 3-level data center of 1,024 hosts each.
//!
//! Besides the usual stdout report, writes `BENCH_kernel.json` at the
//! repository root with the derived per-cycle times.
//!
//! `--smoke` runs a fast 64-host variant (used by `scripts/verify.sh`)
//! and writes `target/BENCH_kernel_smoke.json` instead, leaving the
//! committed artifact untouched. Both artifacts carry a seeded
//! `decision_digest` folding every EG/BA*/DBA* assignment into one
//! hash — verify.sh diffs it between the `simd` and scalar builds to
//! pin that vectorized filtering never changes a placement decision.

use std::time::Duration;

use criterion::Criterion;
use ostro_core::bench_support as kernel;
use ostro_core::{Algorithm, PlacementRequest, Scheduler};
use ostro_datacenter::{CapacityState, HostId, Infrastructure, InfrastructureBuilder};
use ostro_model::{ApplicationTopology, Bandwidth, Resources, TopologyBuilder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Expansions per timed call; large enough to amortize harness setup.
const CYCLES: u64 = 2_048;
/// Nodes pre-placed before the measured expansions, so each cycle
/// runs against a realistically loaded search state.
const PREFIX: usize = 96;
/// Application size: a 128-VM chain with cross links.
const VMS: usize = 128;

/// The `--smoke` variant: 64 hosts, a 24-VM chain, and few enough
/// cycles that the whole bench finishes in seconds.
const SMOKE_CYCLES: u64 = 256;
const SMOKE_PREFIX: usize = 12;
const SMOKE_VMS: usize = 24;

/// One run's geometry, full-scale or smoke.
struct Scale {
    vms: usize,
    prefix: usize,
    cycles: u64,
    /// flat: racks x hosts-per-rack; three-level: racks-per-pod is
    /// derived so both data centers keep the same host count.
    racks: usize,
    hosts_per_rack: usize,
    min_hosts: usize,
}

const FULL: Scale = Scale {
    vms: VMS,
    prefix: PREFIX,
    cycles: CYCLES,
    racks: 32,
    hosts_per_rack: 32,
    min_hosts: 1_024,
};
const SMOKE: Scale = Scale {
    vms: SMOKE_VMS,
    prefix: SMOKE_PREFIX,
    cycles: SMOKE_CYCLES,
    racks: 8,
    hosts_per_rack: 8,
    min_hosts: 64,
};

fn app_topology(vms: usize) -> ApplicationTopology {
    let mut b = TopologyBuilder::new("kernel");
    let ids: Vec<_> = (0..vms).map(|i| b.vm(format!("vm{i}"), 1, 1_024).unwrap()).collect();
    for w in ids.windows(2) {
        b.link(w[0], w[1], Bandwidth::from_mbps(50)).unwrap();
    }
    for i in (0..vms.saturating_sub(5)).step_by(8) {
        b.link(ids[i], ids[i + 4], Bandwidth::from_mbps(25)).unwrap();
    }
    b.build().unwrap()
}

/// `racks` racks x `hosts_per_rack` hosts under one root switch
/// (transparent pod).
fn flat_infra(scale: &Scale) -> Infrastructure {
    InfrastructureBuilder::flat(
        "flat",
        scale.racks,
        scale.hosts_per_rack,
        Resources::new(64, 131_072, 4_000),
        Bandwidth::from_gbps(10),
        Bandwidth::from_gbps(100),
    )
    .build()
    .unwrap()
}

/// 2 sites x 4 pods x racks x hosts with a real pod-switch layer, so
/// routes span all three levels; host count matches the flat variant.
fn three_level_infra(scale: &Scale) -> Infrastructure {
    let racks_per_pod = (scale.racks * scale.hosts_per_rack) / (2 * 4 * 16);
    let (racks_per_pod, hosts_per_rack) = if racks_per_pod == 0 {
        (2, scale.racks * scale.hosts_per_rack / 16)
    } else {
        (racks_per_pod, 16)
    };
    let mut b = InfrastructureBuilder::new();
    for s in 0..2 {
        let site = b.site(format!("s{s}"), Bandwidth::from_gbps(400));
        for p in 0..4 {
            let pod = b.pod(site, format!("s{s}p{p}"), Bandwidth::from_gbps(200)).unwrap();
            for r in 0..racks_per_pod {
                let rack =
                    b.rack_in_pod(pod, format!("s{s}p{p}r{r}"), Bandwidth::from_gbps(100)).unwrap();
                for h in 0..hosts_per_rack {
                    b.host(
                        rack,
                        format!("s{s}p{p}r{r}h{h}"),
                        Resources::new(64, 131_072, 4_000),
                        Bandwidth::from_gbps(10),
                    )
                    .unwrap();
                }
            }
        }
    }
    b.build().unwrap()
}

fn bench_kernel(c: &mut Criterion, scale: &Scale) {
    let topo = app_topology(scale.vms);
    for (label, infra) in [("flat", flat_infra(scale)), ("three_level", three_level_infra(scale))] {
        assert!(infra.host_count() >= scale.min_hosts);
        let base = CapacityState::new(&infra);

        let mut group = c.benchmark_group(format!("child_expansion/{label}"));
        group.sample_size(20);
        // Harness construction alone, subtracted out when deriving
        // per-cycle figures.
        group.bench_function("setup_only", |b| {
            b.iter(|| kernel::expansion_cycles_delta(&topo, &infra, &base, scale.prefix, 0));
        });
        group.bench_function("delta_undo", |b| {
            b.iter(|| {
                kernel::expansion_cycles_delta(&topo, &infra, &base, scale.prefix, scale.cycles)
            });
        });
        group.finish();

        let mut group = c.benchmark_group(format!("candidate_scoring/{label}"));
        group.sample_size(10);
        // The per-host single-thread engine: one §III-A2 evaluation per
        // candidate, no dispatch — the reference the other rows are
        // read against.
        group.bench_function("serial", |b| {
            b.iter(|| kernel::scoring_round(&topo, &infra, &base, false, false, 1, scale.prefix));
        });
        // The engine's defaults: chunked dispatch plus the region memo
        // (one §III-A2 evaluation per decision region of the round;
        // every other untouched host takes the bound of the region its
        // free capacity falls in).
        group.bench_function("parallel", |b| {
            b.iter(|| kernel::scoring_round(&topo, &infra, &base, true, true, 0, scale.prefix));
        });
        // Chunked dispatch with per-host evaluation, isolating the
        // dispatch overhead from the region memo's win.
        group.bench_function("parallel_uncached", |b| {
            b.iter(|| kernel::scoring_round(&topo, &infra, &base, true, false, 0, scale.prefix));
        });
        group.finish();
    }
}

/// splitmix64 finalizer, used to fold placement decisions into the
/// digest below.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded topology family for the decision digest: chains with
/// cross links and varied per-VM demands.
fn digest_topology(seed: u64) -> ApplicationTopology {
    let mut rng = SmallRng::seed_from_u64(seed);
    let vms = rng.gen_range(6..=12);
    let mut b = TopologyBuilder::new(format!("digest{seed}"));
    let ids: Vec<_> = (0..vms)
        .map(|i| {
            b.vm(format!("vm{i}"), rng.gen_range(1..=4), 1_024 * rng.gen_range(1..=4)).unwrap()
        })
        .collect();
    for w in ids.windows(2) {
        b.link(w[0], w[1], Bandwidth::from_mbps(rng.gen_range(10..=200))).unwrap();
    }
    if vms > 4 {
        b.link(ids[0], ids[vms / 2], Bandwidth::from_mbps(rng.gen_range(10..=100))).unwrap();
    }
    b.build().unwrap()
}

/// Places a seeded scenario set through the public [`Scheduler`] API
/// with EG, BA*, and DBA* on both data-center shapes, folding every
/// (node, host) assignment into one hash. `scripts/verify.sh` diffs
/// this value between the `simd` and scalar builds: the vectorized
/// candidate sweep must never change a decision.
fn decision_digest() -> u64 {
    let algorithms = [
        Algorithm::Greedy,
        Algorithm::BoundedAStar,
        Algorithm::DeadlineBoundedAStar { deadline: Duration::from_secs(5) },
    ];
    let mut digest = 0u64;
    for (shape, infra) in [("flat", flat_infra(&SMOKE)), ("three_level", three_level_infra(&SMOKE))]
    {
        // Seeded background load so candidate masks have real structure.
        let mut rng = SmallRng::seed_from_u64(0x00D1_6E57 ^ shape.len() as u64);
        let mut base = CapacityState::new(&infra);
        for _ in 0..infra.host_count() / 2 {
            let host = HostId::from_index(rng.gen_range(0..infra.host_count() as u32));
            let res = Resources::new(rng.gen_range(1..8), 1_024 * rng.gen_range(1..16), 0);
            let _ = base.reserve_node(host, res);
        }
        let scheduler = Scheduler::new(&infra);
        for algorithm in algorithms {
            let request = PlacementRequest {
                algorithm,
                max_expansions: 50_000,
                ..PlacementRequest::default()
            };
            for seed in 0..4u64 {
                let topo = digest_topology(seed);
                digest = mix64(digest ^ mix64(seed ^ (shape.len() as u64) << 8));
                match scheduler.place(&topo, &base, &request) {
                    Ok(outcome) => {
                        for (node, host) in outcome.placement.iter() {
                            digest = mix64(
                                digest ^ (((node.index() as u64) << 32) | host.index() as u64),
                            );
                        }
                    }
                    Err(_) => digest = mix64(digest ^ 0xDEAD),
                }
            }
        }
    }
    digest
}

fn median_of(c: &Criterion, id: &str) -> Duration {
    c.measurements
        .iter()
        .find(|m| m.id == id)
        .unwrap_or_else(|| panic!("missing measurement {id}"))
        .median
}

/// Nanoseconds per expansion cycle, with harness setup subtracted.
fn per_cycle_ns(c: &Criterion, label: &str, which: &str, cycles: u64) -> f64 {
    let setup = median_of(c, &format!("child_expansion/{label}/setup_only"));
    let total = median_of(c, &format!("child_expansion/{label}/{which}"));
    let net = total.saturating_sub(setup).max(Duration::from_nanos(1));
    net.as_nanos() as f64 / cycles as f64
}

fn write_artifact(c: &Criterion, smoke: bool, digest: u64) {
    let cycles = if smoke { SMOKE_CYCLES } else { CYCLES };
    let mut sections = Vec::new();
    for label in ["flat", "three_level"] {
        let delta_ns = per_cycle_ns(c, label, "delta_undo", cycles);
        let scoring_serial = median_of(c, &format!("candidate_scoring/{label}/serial"));
        let scoring_parallel = median_of(c, &format!("candidate_scoring/{label}/parallel"));
        let scoring_uncached =
            median_of(c, &format!("candidate_scoring/{label}/parallel_uncached"));
        let scoring_speedup = scoring_serial.as_secs_f64() / scoring_parallel.as_secs_f64();
        sections.push(format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"delta_undo_ns_per_cycle\": {:.1},\n",
                "      \"delta_undo_cycles_per_sec\": {:.0},\n",
                "      \"scoring_serial_us\": {:.1},\n",
                "      \"scoring_parallel_us\": {:.1},\n",
                "      \"scoring_parallel_uncached_us\": {:.1},\n",
                "      \"scoring_speedup\": {:.2}\n",
                "    }}"
            ),
            label,
            delta_ns,
            1e9 / delta_ns,
            scoring_serial.as_secs_f64() * 1e6,
            scoring_parallel.as_secs_f64() * 1e6,
            scoring_uncached.as_secs_f64() * 1e6,
            scoring_speedup,
        ));
        println!("{label}: delta {delta_ns:.0} ns/cycle");
    }
    let scale = if smoke { &SMOKE } else { &FULL };
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"search-kernel child expansion and candidate scoring\",\n",
            "  \"hosts\": {},\n",
            "  \"vms\": {},\n",
            "  \"prefix_placed\": {},\n",
            "  \"cycles_per_call\": {},\n",
            "  \"simd\": {},\n",
            "  \"decision_digest\": \"{:016x}\",\n",
            "  \"topologies\": {{\n{}\n  }}\n",
            "}}\n"
        ),
        scale.racks * scale.hosts_per_rack,
        scale.vms,
        scale.prefix,
        cycles,
        cfg!(feature = "simd"),
        digest,
        sections.join(",\n"),
    );
    let path = if smoke {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_kernel_smoke.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json")
    };
    std::fs::write(path, json).expect("write kernel benchmark artifact");
    println!("decision digest: {digest:016x}");
    println!("wrote {path}");
}

fn main() {
    // The vendored criterion facade ignores argv; parse by hand so
    // `--smoke` composes with whatever the harness passes through.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let smoke = argv.iter().any(|a| a == "--smoke");
    let scale = if smoke { &SMOKE } else { &FULL };
    let mut criterion = Criterion::default().configure_from_args();
    bench_kernel(&mut criterion, scale);
    let digest = decision_digest();
    write_artifact(&criterion, smoke, digest);
}
