//! A7 (ablation) — crash-during-recovery torture: nested crash chains
//! scheduled inside recovery itself (depth 1–3), against plain NVM, NVM +
//! shadow WAL, and a media-fault composition. Per class the harness
//! records convergence (every chain must land in the single-crash
//! oracle's logical state), the deepest recovery-attempt number the
//! progress word reached, the worst and mean time-to-recovered of the
//! terminal power cycle, and the recovery-time persist traffic
//! (stores/flushes/fences) reported per phase by `RecoveryReport`.
//!
//! Invariants enforced (non-zero exit on violation): every chain
//! converges to its oracle, terminal integrity is clean, and no recovery
//! panics.
//!
//! Run: `cargo run --release -p hyrise-nv-bench --bin a7_recovery_torture`
//! (`--quick` shrinks the sweep for CI).

use std::time::Instant;

use benchkit::{print_table, write_json, Row};
use hyrise_nv::torture::{engine_state, setup_tables, Oracle};
use hyrise_nv::{Database, DurabilityConfig, PersistStats, TableId};
use nvm::{
    CrashPoint, CrashSchedule, FaultClass, FaultSpec, LatencyModel, TraceConfig, CACHE_LINE,
};
use storage::Value;
use util::rng::{Rng, SmallRng};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Plain,
    WithWal,
    MediaFault,
}

fn fresh_db(class: Class) -> (Database, TableId) {
    let cfg = match class {
        Class::Plain => DurabilityConfig::nvm(16 << 20, LatencyModel::zero()),
        _ => DurabilityConfig::nvm_with_wal(16 << 20, LatencyModel::zero()),
    };
    let mut db = Database::create(cfg).unwrap();
    let t = setup_tables(&mut db).unwrap();
    (db, t)
}

/// Committed workload (returns the final oracle): seeded inserts/updates
/// over a modest key space, plus — for the media-fault class — a merged
/// main partition built before tracing starts.
fn populate(db: &mut Database, t: TableId, seed: u64, class: Class) {
    if class == Class::MediaFault {
        for batch in 0..4i64 {
            let mut tx = db.begin();
            for k in 0..16i64 {
                db.insert(
                    &mut tx,
                    t,
                    &[Value::Int(2000 + batch * 16 + k), Value::Int(1)],
                )
                .unwrap();
            }
            db.commit(&mut tx).unwrap();
        }
        db.merge(t).unwrap();
    }
    let _ = seed;
}

fn traced_workload(db: &mut Database, t: TableId, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..12 {
        let mut tx = db.begin();
        for _ in 0..5 {
            let key = rng.gen_range_i64(0, 800);
            let hits = db.scan_eq(&tx, t, 0, &Value::Int(key)).unwrap();
            match hits.first() {
                None => {
                    db.insert(&mut tx, t, &[Value::Int(key), Value::Int(0)])
                        .unwrap();
                }
                Some(hit) => {
                    db.update(&mut tx, t, hit.row, &[Value::Int(key), Value::Int(7)])
                        .unwrap();
                }
            }
        }
        if rng.gen_bool(0.85) {
            db.commit(&mut tx).unwrap();
        } else {
            db.abort(&mut tx).unwrap();
        }
    }
}

fn pick_fault(db: &Database, t: TableId, seed: u64) -> FaultSpec {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA01_7A6E);
    let extents: Vec<_> = db
        .media_extents(t)
        .unwrap()
        .into_iter()
        .filter(|e| e.checksummed && e.len >= 3 * CACHE_LINE)
        .collect();
    let e = extents[rng.gen_range_usize(0, extents.len())];
    let lo = e.offset + CACHE_LINE;
    let hi = e.offset + e.len - CACHE_LINE;
    let offset = lo + rng.gen_range_u64(0, hi - lo);
    let room = (e.offset + e.len - CACHE_LINE).saturating_sub(offset);
    FaultSpec {
        class: FaultClass::ScribbledBlock {
            len: 96.min(room.max(8)),
        },
        offset,
        seed,
    }
}

struct ChainStats {
    state: Oracle,
    last_cts: u64,
    attempt: u64,
    terminal_wall_s: f64,
    recovery_persist: PersistStats,
    lint_reads: usize,
}

/// One chain: workload crashed at `p0`, one power cycle per nested point,
/// then a timed terminal recovery.
fn run_chain(class: Class, seed: u64, p0: CrashPoint, nested: &[CrashPoint]) -> ChainStats {
    let (mut db, t) = fresh_db(class);
    populate(&mut db, t, seed, class);
    let region = db.nv_backend().unwrap().region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    region.arm_crash(p0).unwrap();
    traced_workload(&mut db, t, seed);
    if class == Class::MediaFault {
        let spec = pick_fault(&db, t, seed);
        region.inject_fault(&spec).unwrap();
    }

    let mut lint_reads = 0usize;
    for p in nested {
        let rep = db
            .restart_scheduled_traced(Some(*p))
            .unwrap_or_else(|e| panic!("seed {seed:#x}: nested recovery failed: {e}"));
        lint_reads += rep.lint_findings.len();
    }
    let t0 = Instant::now();
    let report = db
        .restart_scheduled()
        .unwrap_or_else(|e| panic!("seed {seed:#x}: terminal recovery failed: {e}"));
    let terminal_wall_s = t0.elapsed().as_secs_f64();
    lint_reads += report.lint_findings.len();

    let mut persist = PersistStats::default();
    for phase in &report.phases {
        persist.bytes_written += phase.persist.bytes_written;
        persist.flushes += phase.persist.flushes;
        persist.lines_flushed += phase.persist.lines_flushed;
        persist.fences += phase.persist.fences;
    }
    let integrity = db.verify_integrity().unwrap();
    assert!(
        integrity.is_clean() && integrity.heap_limbo_blocks == 0,
        "seed {seed:#x}: {}",
        integrity.render()
    );
    ChainStats {
        state: engine_state(&mut db, t).unwrap(),
        last_cts: report.last_cts,
        attempt: report.attempt,
        terminal_wall_s,
        recovery_persist: persist,
        lint_reads,
    }
}

fn class_name(class: Class) -> &'static str {
    match class {
        Class::Plain => "nvm-plain",
        Class::WithWal => "nvm+shadow-wal",
        Class::MediaFault => "media-fault",
    }
}

fn run_class(class: Class, chains: usize, seed_base: u64) -> (Vec<Row>, u64) {
    let mut rows = Vec::new();
    let mut failures = 0u64;
    for depth in 1usize..=3 {
        let mut converged = 0usize;
        let mut max_attempt = 0u64;
        let mut worst_s = 0f64;
        let mut sum_s = 0f64;
        let mut fences = 0u64;
        let mut flushes = 0u64;
        let mut lints = 0usize;
        for c in 0..chains {
            let seed = seed_base.wrapping_add((depth as u64) << 32 | c as u64);
            // Fence budgets from reference runs of this seed.
            let f_work = {
                let (mut db, t) = fresh_db(class);
                populate(&mut db, t, seed, class);
                let region = db.nv_backend().unwrap().region().clone();
                region.trace_start(TraceConfig { keep_events: false });
                traced_workload(&mut db, t, seed);
                region.trace_stop().unwrap().fences.max(1)
            };
            let p0 = CrashSchedule::sample(f_work, 1, seed ^ 0xA4)[0];
            let nested = if depth > 1 {
                // Recovery fence budgets are small; sample low fences so
                // most nested points land inside the re-entered recovery.
                CrashSchedule::sample(8, depth - 1, seed ^ 0xB7)
            } else {
                Vec::new()
            };

            let oracle = run_chain(class, seed, p0, &[]);
            let chain = run_chain(class, seed, p0, &nested);
            if chain.state == oracle.state && chain.last_cts == oracle.last_cts {
                converged += 1;
            } else {
                failures += 1;
                eprintln!(
                    "DIVERGENCE: class {} depth {depth} seed {seed:#x} {p0:?} + {nested:?}",
                    class_name(class)
                );
            }
            max_attempt = max_attempt.max(chain.attempt);
            worst_s = worst_s.max(chain.terminal_wall_s);
            sum_s += chain.terminal_wall_s;
            fences += chain.recovery_persist.fences;
            flushes += chain.recovery_persist.flushes;
            lints += chain.lint_reads;
        }
        rows.push(
            Row::new()
                .with("class", class_name(class))
                .with("depth", depth)
                .with("chains", chains)
                .with("converged", converged)
                .with("max_attempt", max_attempt)
                .with("worst_recover_ms", format!("{:.3}", worst_s * 1e3))
                .with(
                    "mean_recover_ms",
                    format!("{:.3}", sum_s * 1e3 / chains as f64),
                )
                .with("recovery_fences_per_chain", fences / chains as u64)
                .with("recovery_flushes_per_chain", flushes / chains as u64)
                .with("lint_reads", lints),
        );
    }
    (rows, failures)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let chains = if quick { 4 } else { 25 };

    let mut all = Vec::new();
    let mut failures = 0u64;
    for (class, base) in [
        (Class::Plain, 0xA7_1001u64),
        (Class::WithWal, 0xA7_1002u64),
        (Class::MediaFault, 0xA7_1003u64),
    ] {
        let (rows, f) = run_class(class, chains, base);
        all.extend(rows);
        failures += f;
    }
    print_table(
        "A7: nested-crash recovery torture (convergence, re-entrant attempts, time-to-recovered)",
        &all,
    );
    write_json("a7_recovery_torture", &all);

    if failures > 0 {
        eprintln!("{failures} chains diverged from their single-crash oracle");
        std::process::exit(1);
    }
    println!("\nall chains converged to their single-crash oracles; recovery is re-entrant");
}
