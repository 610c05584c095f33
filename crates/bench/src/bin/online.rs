//! Reproduces the **§IV-E online-adaptation** experiment: start from a
//! placed 200-VM multi-tier application, add 5/10/20% more small VMs
//! to its first two tiers, and incrementally re-place. The paper
//! reports the new optimization completing within 0.3 s and notes that
//! larger updates trigger repositioning of previously placed nodes.
//!
//! All three rows are served by **one** [`SchedulerSession`] — its
//! mirror of the books and its scoring pool are built once and every
//! row's re-placement rounds reuse them, the way a long-running
//! placement service would. A row that fails reports its error in the table and
//! the run continues; only setup failures abort.

use std::time::Duration;

use ostro_bench::{multi_tier_instance, Args};
use ostro_core::{Algorithm, ObjectiveWeights, PlacementRequest, SchedulerSession};
use ostro_model::{Bandwidth, TopologyDelta};
use ostro_sim::report::TextTable;

fn main() {
    let args = Args::from_env();
    if let Err(message) = run(&args) {
        eprintln!("online setup failed: {message}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let size = args.sizes.as_ref().and_then(|s| s.first().copied()).unwrap_or(200);
    let seed = args.seed;
    let (infra, state, topo) =
        multi_tier_instance(size, true, args, seed).map_err(|e| e.to_string())?;
    let weights = ObjectiveWeights { bandwidth: args.theta_bw, hosts: args.theta_c };
    let initial_req = PlacementRequest {
        algorithm: Algorithm::Greedy,
        weights,
        seed,
        score_threads: args.score_threads,
        chunk_bytes: args.chunk_bytes,
        ..PlacementRequest::default()
    };
    let online_req = PlacementRequest {
        algorithm: Algorithm::DeadlineBoundedAStar { deadline: Duration::from_millis(300) },
        weights,
        seed,
        score_threads: args.score_threads,
        chunk_bytes: args.chunk_bytes,
        ..PlacementRequest::default()
    };

    let mut session = SchedulerSession::with_state(&infra, state);
    let initial =
        session.place(&topo, &initial_req).map_err(|e| format!("initial placement: {e}"))?;
    session.commit(&topo, &initial.placement).map_err(|e| format!("initial commit: {e}"))?;

    let mut table = TextTable::new([
        "added VMs",
        "re-place time (s)",
        "repositioned",
        "unpin rounds",
        "added bw (Mbps)",
    ]);
    for percent in [5usize, 10, 20] {
        let added = (size * percent).div_ceil(100);
        let label = format!("{added} (+{percent}%)");
        match replace_row(&mut session, &topo, &initial, &online_req, size, added) {
            Ok(row) => table.row([
                label,
                format!("{:.3}", row.elapsed_secs),
                row.repositioned.to_string(),
                row.rounds.to_string(),
                row.added_bw_mbps.to_string(),
            ]),
            Err(message) => {
                table.row([label, "-".into(), "-".into(), "-".into(), message]);
            }
        }
        // Restore the baseline tenancy so the next row starts from the
        // same state (the journal invalidates only the touched hosts).
        session
            .commit(&topo, &initial.placement)
            .map_err(|e| format!("baseline re-commit: {e}"))?;
    }
    println!("Online adaptation (sec IV-E): multi-tier {size} VMs, add small VMs to tiers 0-1");
    println!("{}", table.render());
    Ok(())
}

struct Row {
    elapsed_secs: f64,
    repositioned: usize,
    rounds: u32,
    added_bw_mbps: i64,
}

/// Grows the application by `added` small VMs and incrementally
/// re-places it on the warm session. On return (Ok or Err) the session
/// state has the initial application fully released — the caller
/// restores the baseline by re-committing the initial placement.
fn replace_row(
    session: &mut SchedulerSession,
    topo: &ostro_model::ApplicationTopology,
    initial: &ostro_core::PlacementOutcome,
    online_req: &PlacementRequest,
    size: usize,
    added: usize,
) -> Result<Row, String> {
    // Release the old app first, so every exit path (including errors)
    // leaves the state in the same released shape for the caller's
    // baseline re-commit.
    session.release(topo, &initial.placement).map_err(|e| format!("release: {e}"))?;

    // Add small VMs across tiers 0 and 1, each linked to an existing
    // tier VM.
    let mut delta = TopologyDelta::new();
    for i in 0..added {
        let vm = delta.add_vm(format!("extra{i}"), 1, 1_024);
        let tier = i % 2;
        let name = format!("tier{tier}-vm{}", i % (size / 5));
        let target = topo.node_by_name(&name).ok_or_else(|| format!("no node `{name}`"))?.id();
        delta.add_link(target, vm, Bandwidth::from_mbps(50));
    }
    let (topo2, mapping) = delta.apply(topo).map_err(|e| format!("delta: {e}"))?;

    // Pin survivors, re-place incrementally.
    let mut prior = vec![None; topo2.node_count()];
    for (old, new) in mapping.surviving() {
        prior[new.index()] = Some(initial.placement.host_of(old));
    }
    let started = std::time::Instant::now();
    let result = session
        .replace_online(&topo2, online_req, &prior, 4)
        .map_err(|e| format!("failed: {e}"))?;
    Ok(Row {
        elapsed_secs: started.elapsed().as_secs_f64(),
        repositioned: result.repositioned.len(),
        rounds: result.rounds,
        added_bw_mbps: result.outcome.reserved_bandwidth.as_mbps() as i64
            - initial.reserved_bandwidth.as_mbps() as i64,
    })
}
