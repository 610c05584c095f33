//! Output checks and the post-run measurements that share their
//! replay: commit-order replay ≡ final books, `verify_placement` on
//! every committed placement, the cold-solve oracle, and crash
//! recovery ≡ live. All of it runs after the timed window.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ostro_core::{
    verify_placement, wal, PlacementRequest, Scheduler, SchedulerSession, TenantRecord,
};
use ostro_datacenter::{CapacityState, HostId, Infrastructure};
use ostro_model::ApplicationTopology;

use crate::drive::Acked;

/// Times the recovery is repeated; it only reads, so repeats are
/// independent.
pub const RECOVERY_REPEATS: usize = 25;

#[derive(Debug, Default)]
pub struct Replay {
    /// Why the outputs are wrong; empty when every check passed.
    pub errors: Vec<String>,
    pub commits: usize,
    /// Sampled commits: (committed objective, oracle objective).
    pub oracle: Vec<(f64, f64)>,
}

/// Replays the acknowledged mutations in commit-sequence order over
/// `base` on a journal-less session — the session, not the raw books,
/// because quarantines re-freeze hosts on release exactly as the live
/// one did — and checks each committed placement against the books
/// just before it. With `oracle_every` (0 = never), every
/// `oracle_every`-th block of arrivals — a block holds each catalog
/// shape once, so every sample set has the same mix — is also solved
/// cold and unsharded on those books.
pub fn replay(
    infra: &Infrastructure,
    base: &CapacityState,
    catalog: &[Arc<ApplicationTopology>],
    log: &[Acked],
    live: &CapacityState,
    request: &PlacementRequest,
    oracle_every: usize,
) -> Replay {
    let mut out = Replay::default();
    let mut order: Vec<&Acked> = log.iter().collect();
    order.sort_by_key(|a| a.seq());
    let scheduler = Scheduler::new(infra);
    let oracle_request = PlacementRequest { shard: false, ..request.clone() };
    let mut session = SchedulerSession::with_state(infra, base.clone());
    let mut last = 0;
    for acked in order {
        let seq = acked.seq();
        match acked {
            Acked::Placed(p) => {
                let topology = &catalog[p.shape];
                match verify_placement(topology, infra, session.state(), &p.placement) {
                    Ok(violations) if violations.is_empty() => {}
                    Ok(violations) => out.errors.push(format!(
                        "seq {seq}: committed placement violates {} constraint(s), first: {}",
                        violations.len(),
                        violations[0]
                    )),
                    Err(e) => out.errors.push(format!("seq {seq}: verify_placement: {e}")),
                }
                let block = out.commits / catalog.len();
                out.commits += 1;
                if oracle_every > 0 && block.is_multiple_of(oracle_every) {
                    match scheduler.place(topology, session.state(), &oracle_request) {
                        Ok(cold) => out.oracle.push((p.objective, cold.objective)),
                        Err(e) => out.errors.push(format!("seq {seq}: oracle solve failed: {e}")),
                    }
                }
                if let Err(e) = session.commit(topology, &p.placement) {
                    out.errors.push(format!("seq {seq}: acked commit does not replay: {e}"));
                }
            }
            Acked::Released(r) => {
                if let Err(e) = session.release(&catalog[r.shape], &r.placement) {
                    out.errors.push(format!("seq {seq}: acked release does not replay: {e}"));
                }
            }
            Acked::Maintained(m) => {
                for &host in &m.quarantined {
                    session.quarantine_host(host);
                }
                let drains = m.moves.iter().filter(|mv| mv.drain);
                let sweeps = m.moves.iter().filter(|mv| !mv.drain);
                for mv in drains {
                    if let Err(e) = session.migrate(&catalog[mv.shape], &mv.from, &mv.to) {
                        out.errors.push(format!("seq {seq}: drain move does not replay: {e}"));
                    }
                }
                for (shape, placement) in &m.abandoned {
                    if let Err(e) = session.release(&catalog[*shape], placement) {
                        out.errors.push(format!("seq {seq}: abandonment does not replay: {e}"));
                    }
                }
                for mv in sweeps {
                    if let Err(e) = session.migrate(&catalog[mv.shape], &mv.from, &mv.to) {
                        out.errors.push(format!("seq {seq}: defrag move does not replay: {e}"));
                    }
                }
                // A tick that touched nothing takes no sequence number.
                if m.quarantined.is_empty() && m.moves.is_empty() && m.abandoned.is_empty() {
                    continue;
                }
            }
        }
        if seq <= last {
            out.errors.push(format!("seq {seq} acknowledged twice or out of order (after {last})"));
        }
        last = seq;
    }
    if session.state() != live {
        out.errors.push("commit-order replay diverged from the service's final books".to_string());
    }
    out
}

#[derive(Debug)]
pub struct Recovered {
    pub errors: Vec<String>,
    /// Seconds per repeat of `wal::recover` + `with_recovery`.
    pub seconds: Vec<f64>,
    pub records_replayed: u64,
}

/// The crash drill: the service was dropped with no final checkpoint,
/// so the journal directory is all that survives. Recovery must
/// reproduce the live books and quarantine set.
pub fn recover(
    dir: &Path,
    infra: &Infrastructure,
    live: &CapacityState,
    quarantined: &[HostId],
) -> Recovered {
    let mut out = Recovered { errors: Vec::new(), seconds: Vec::new(), records_replayed: 0 };
    for _ in 0..RECOVERY_REPEATS {
        let started = Instant::now();
        let recovery = match wal::recover(dir, infra) {
            Ok(recovery) => recovery,
            Err(e) => {
                out.errors.push(format!("recovery failed: {e}"));
                return out;
            }
        };
        let session = SchedulerSession::with_recovery(infra, &recovery);
        out.seconds.push(started.elapsed().as_secs_f64());
        out.records_replayed = recovery.records_replayed;
        if session.state() != live {
            out.errors.push("recovered books differ from the live books".to_string());
            return out;
        }
        if session.quarantined_hosts() != quarantined {
            out.errors.push("recovered quarantine set differs from the live one".to_string());
            return out;
        }
    }
    out
}

/// The resident ledger must describe the final books too: releasing
/// every resident tenant brings the books back to the base state
/// (quarantines aside), so a leaked or double-counted tenant shows.
pub fn ledger_balances(
    infra: &Infrastructure,
    base: &CapacityState,
    live: &CapacityState,
    ledger: &[TenantRecord],
    quarantined: &[HostId],
) -> Result<(), String> {
    if !quarantined.is_empty() {
        // Frozen hosts no longer round-trip through release.
        return Ok(());
    }
    let scheduler = Scheduler::new(infra);
    let mut state = live.clone();
    for tenant in ledger {
        scheduler
            .release(&tenant.topology, &tenant.placement, &mut state)
            .map_err(|e| format!("resident tenant {} does not release: {e}", tenant.id))?;
    }
    if &state == base {
        Ok(())
    } else {
        Err("releasing every resident tenant does not restore the base books".to_string())
    }
}
