//! A4 (ablation) — crash matrix: sweep deterministic crash points across a
//! transactional workload and report, per crash class, how recovery held
//! up: invariant verdicts, recovered-commit watermarks, lost cache lines,
//! and restart cost.
//!
//! Crash classes:
//! * `at-fence`    — power fails exactly at a fence boundary.
//! * `mid-none`    — mid-epoch, no in-flight write-back completed.
//! * `mid-all`     — mid-epoch, every in-flight write-back completed.
//! * `mid-random`  — mid-epoch, adversarial random surviving-line subsets.
//!
//! Every point recovers through the persist-trace scheduler and is checked
//! for committed-prefix durability against an oracle ledger plus the
//! structural invariants of [`hyrise_nv::Database::verify_integrity`].
//!
//! Run: `cargo run --release -p hyrise-nv-bench --bin a4_crash_matrix`
//! (`--quick` shrinks the sweep for CI).

use std::time::Instant;

use benchkit::{print_table, write_json, Row};
use hyrise_nv::torture::{engine_state, schema, Oracle};
use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId};
use nvm::{CrashPoint, CrashSchedule, LatencyModel, MidEpochSurvival, TraceConfig};
use storage::Value;
use util::rng::{Rng, SmallRng};

fn fresh_db() -> (Database, TableId) {
    let mut db = Database::create(DurabilityConfig::Nvm {
        capacity: 16 << 20,
        latency: LatencyModel::zero(),
    })
    .unwrap();
    let t = db.create_table("t", schema()).unwrap();
    db.create_index(t, 0, IndexKind::Hash).unwrap();
    (db, t)
}

/// Deterministic insert/update/delete workload; records the oracle state
/// after every commit.
fn run_workload(db: &mut Database, t: TableId, seed: u64, txns: usize) -> Vec<(u64, Oracle)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut snaps: Vec<(u64, Oracle)> = vec![(0, Oracle::new())];
    let mut oracle = Oracle::new();
    for _ in 0..txns {
        let mut shadow = oracle.clone();
        let mut tx = db.begin();
        for _ in 0..rng.gen_range_usize(1, 5) {
            let key = rng.gen_range_i64(0, 800);
            match rng.gen_range_u64(0, 3) {
                0 => {
                    if let std::collections::btree_map::Entry::Vacant(e) = shadow.entry(key) {
                        db.insert(&mut tx, t, &[Value::Int(key), Value::Int(0)])
                            .unwrap();
                        e.insert(0);
                    }
                }
                1 => {
                    let hits = db.scan_eq(&tx, t, 0, &Value::Int(key)).unwrap();
                    if let Some(hit) = hits.first() {
                        let ver = rng.next_u64() as i64 & 0xFFFF;
                        db.update(&mut tx, t, hit.row, &[Value::Int(key), Value::Int(ver)])
                            .unwrap();
                        shadow.insert(key, ver);
                    }
                }
                _ => {
                    let hits = db.scan_eq(&tx, t, 0, &Value::Int(key)).unwrap();
                    if let Some(hit) = hits.first() {
                        db.delete(&mut tx, t, hit.row).unwrap();
                        shadow.remove(&key);
                    }
                }
            }
        }
        if rng.gen_bool(0.85) {
            let cts = db.commit(&mut tx).unwrap();
            oracle = shadow;
            snaps.push((cts, oracle.clone()));
        } else {
            db.abort(&mut tx).unwrap();
        }
    }
    snaps
}

#[derive(Default)]
struct ClassStats {
    points: u64,
    violations: u64,
    lost_lines_total: u64,
    lint_reads: u64,
    recovery_wall_ns: u128,
    min_cts: u64,
    max_cts: u64,
}

fn crash_once(seed: u64, txns: usize, point: CrashPoint, stats: &mut ClassStats) {
    let (mut db, t) = fresh_db();
    let region = db.nv_backend().unwrap().region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    region.arm_crash(point).unwrap();
    let snaps = run_workload(&mut db, t, seed, txns);

    let t0 = Instant::now();
    let report = db.restart_scheduled().unwrap();
    stats.recovery_wall_ns += t0.elapsed().as_nanos();

    let outcome = report.scheduled.unwrap();
    stats.points += 1;
    stats.lost_lines_total += outcome.lost_lines;
    stats.lint_reads += report.lint_findings.len() as u64;
    stats.min_cts = stats.min_cts.min(report.last_cts);
    stats.max_cts = stats.max_cts.max(report.last_cts);

    let expected = snaps
        .iter()
        .rev()
        .find(|(cts, _)| *cts <= report.last_cts)
        .map(|(_, o)| o.clone())
        .unwrap_or_default();
    let got = engine_state(&mut db, t).unwrap();
    let integrity = db.verify_integrity().unwrap();
    if got != expected || !integrity.is_clean() {
        stats.violations += 1;
        eprintln!("VIOLATION at {point:?}: {}", integrity.render());
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (txns, per_class) = if quick { (10, 8) } else { (24, 40) };
    let seed = 0xA4_C0DE;

    // Reference run: fence count of the workload.
    let total_fences = {
        let (mut db, t) = fresh_db();
        let region = db.nv_backend().unwrap().region().clone();
        region.trace_start(TraceConfig { keep_events: false });
        run_workload(&mut db, t, seed, txns);
        region.trace_stop().unwrap().fences
    };
    println!("workload: {txns} txns, {total_fences} fences; {per_class} points/class");

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFACE);
    let mut fence_at = |i: usize| {
        // Spread points evenly, jittered, across the whole run.
        let stride = total_fences.max(1) / per_class as u64;
        (i as u64 * stride + rng.gen_range_u64(0, stride.max(1)) + 1).min(total_fences)
    };
    let classes: Vec<(&str, Vec<CrashPoint>)> = vec![
        (
            "at-fence",
            (0..per_class)
                .map(|i| CrashPoint::AtFence { fence: fence_at(i) })
                .collect(),
        ),
        (
            "mid-none",
            (0..per_class)
                .map(|i| CrashPoint::MidEpoch {
                    epoch: fence_at(i) - 1,
                    survival: MidEpochSurvival::None,
                })
                .collect(),
        ),
        (
            "mid-all",
            (0..per_class)
                .map(|i| CrashPoint::MidEpoch {
                    epoch: fence_at(i) - 1,
                    survival: MidEpochSurvival::All,
                })
                .collect(),
        ),
        (
            "mid-random",
            CrashSchedule::sample(total_fences, per_class, seed ^ 0xD1CE)
                .into_iter()
                .map(|p| match p {
                    CrashPoint::AtFence { fence } => CrashPoint::MidEpoch {
                        epoch: fence - 1,
                        survival: MidEpochSurvival::Random {
                            p: 0.5,
                            seed: fence,
                        },
                    },
                    mid => mid,
                })
                .collect(),
        ),
    ];

    let mut rows = Vec::new();
    for (name, points) in classes {
        let mut stats = ClassStats {
            min_cts: u64::MAX,
            ..Default::default()
        };
        for point in points {
            crash_once(seed, txns, point, &mut stats);
        }
        rows.push(
            Row::new()
                .with("class", name)
                .with("points", stats.points)
                .with("violations", stats.violations)
                .with(
                    "avg_lost_lines",
                    format!("{:.1}", stats.lost_lines_total as f64 / stats.points as f64),
                )
                .with("lint_reads", stats.lint_reads)
                .with("cts_min", stats.min_cts)
                .with("cts_max", stats.max_cts)
                .with(
                    "avg_recovery_us",
                    format!(
                        "{:.1}",
                        stats.recovery_wall_ns as f64 / stats.points as f64 / 1e3
                    ),
                ),
        );
    }

    print_table("A4: crash matrix (scheduled crash points per class)", &rows);
    write_json("a4_crash_matrix", &rows);

    let violations: u64 = rows
        .iter()
        .map(|r| r.cells["violations"].parse::<u64>().unwrap())
        .sum();
    if violations > 0 {
        eprintln!("{violations} invariant violations — see output above");
        std::process::exit(1);
    }
    println!("all crash points recovered with invariants intact");
}
