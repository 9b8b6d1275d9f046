//! A6 (ablation) — capacity exhaustion: drive a clamped NVM device through
//! the full degradation ladder and record the throughput timeline, window
//! by window: organic fill until the heap runs dry, watermark backpressure,
//! read-only mode (writes refused, reads still flowing), emergency
//! reclamation, and the recovered steady state. A second sweep measures
//! retry goodput under probabilistic allocation faults.
//!
//! Invariants enforced (non-zero exit on violation): no panic anywhere on
//! the path, every refusal is a typed capacity/admission error, reads are
//! served in ReadOnly, reclamation returns the engine to `Normal`, and the
//! four-invariant integrity checker stays clean throughout.
//!
//! Run: `cargo run --release -p hyrise-nv-bench --bin a6_exhaustion`
//! (`--quick` shrinks the sweep for CI).

use std::time::Instant;

use benchkit::{print_table, write_json, Row};
use hyrise_nv::torture::schema;
use hyrise_nv::{retry_write, Database, DurabilityConfig, EngineError, HealthState, TableId};
use nvm::{AllocFaultClass, AllocFaultSpec, LatencyModel};
use storage::Value;

fn fresh_db() -> (Database, TableId) {
    let mut db = Database::create(DurabilityConfig::nvm_with_wal(
        16 << 20,
        LatencyModel::zero(),
    ))
    .unwrap();
    let t = db.create_table("t", schema()).unwrap();
    (db, t)
}

/// Outcome of one write window: `txns` attempted transactions of
/// `rows_per_txn` inserts each, counting committed rows and typed
/// refusals. Panics (via the harness) on any untyped failure.
struct WriteWindow {
    committed_rows: u64,
    rejected_txns: u64,
    wall_s: f64,
}

fn write_window(
    db: &mut Database,
    t: TableId,
    next_key: &mut i64,
    txns: u64,
    rows_per_txn: u64,
) -> WriteWindow {
    let t0 = Instant::now();
    let mut committed_rows = 0u64;
    let mut rejected_txns = 0u64;
    for _ in 0..txns {
        let mut tx = db.begin();
        let mut failed = false;
        for _ in 0..rows_per_txn {
            match db.insert(&mut tx, t, &[Value::Int(*next_key), Value::Int(1)]) {
                Ok(_) => *next_key += 1,
                Err(e) => {
                    assert_typed_refusal(&e);
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            db.abort(&mut tx).unwrap();
            rejected_txns += 1;
            continue;
        }
        match db.commit(&mut tx) {
            Ok(_) => committed_rows += rows_per_txn,
            Err(e) => {
                assert_typed_refusal(&e);
                rejected_txns += 1;
            }
        }
    }
    WriteWindow {
        committed_rows,
        rejected_txns,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Every refusal on the exhaustion path must be a typed capacity or
/// admission error — anything else is a harness failure.
fn assert_typed_refusal(e: &EngineError) {
    assert!(
        e.is_capacity()
            || matches!(
                e,
                EngineError::Backpressure { .. } | EngineError::ReadOnly { .. }
            ),
        "untyped failure on the exhaustion path: {e}"
    );
}

/// One read window: `scans` full scans, returning rows read per second.
fn read_window(db: &mut Database, t: TableId, scans: u64) -> (u64, f64) {
    let t0 = Instant::now();
    let mut rows = 0u64;
    for _ in 0..scans {
        let tx = db.begin();
        rows += db.scan_all(&tx, t).unwrap().len() as u64;
    }
    (rows, t0.elapsed().as_secs_f64())
}

fn timeline_row(
    window: u64,
    phase: &str,
    db: &mut Database,
    w: &WriteWindow,
    reads_per_s: f64,
) -> Row {
    let h = db.health();
    Row::new()
        .with("window", window)
        .with("phase", phase)
        .with("state", format!("{:?}", h.state))
        .with("util_pct", format!("{:.1}", h.utilization * 100.0))
        .with("committed_rows", w.committed_rows)
        .with("rejected_txns", w.rejected_txns)
        .with(
            "write_rows_per_s",
            format!("{:.0}", w.committed_rows as f64 / w.wall_s.max(1e-9)),
        )
        .with("read_rows_per_s", format!("{:.0}", reads_per_s))
}

/// The degradation/recovery timeline on one clamped device.
fn run_timeline(quick: bool) -> (Vec<Row>, u64) {
    let txns_per_window: u64 = if quick { 10 } else { 25 };
    let rows_per_txn: u64 = 8;
    let scans_per_window: u64 = if quick { 4 } else { 16 };
    let mut failures = 0u64;
    let mut rows = Vec::new();
    let mut window = 0u64;

    let (mut db, t) = fresh_db();
    let mut next_key = 0i64;

    // Seed, then clamp the device so the footprint sits at ~55%.
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    assert_eq!(w.rejected_txns, 0);
    let s = db.heap_stats().unwrap();
    db.set_capacity_clamp(Some((s.high_water - s.free_bytes) * 100 / 55))
        .unwrap();
    rows.push(timeline_row(window, "seed", &mut db, &w, 0.0));

    // Fill until the first window with refusals: organic exhaustion.
    for _ in 0..64 {
        window += 1;
        let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
        let rejected = w.rejected_txns;
        rows.push(timeline_row(window, "fill", &mut db, &w, 0.0));
        if rejected > 0 {
            break;
        }
    }

    // Pin the footprint over the backpressure watermark: admission control
    // refuses whole windows with retryable errors.
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 100 / 88)).unwrap();
    if db.health().state != HealthState::Backpressure {
        eprintln!("expected Backpressure under the 88% clamp");
        failures += 1;
    }
    window += 1;
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    if w.committed_rows != 0 {
        eprintln!("writes admitted under Backpressure");
        failures += 1;
    }
    rows.push(timeline_row(window, "backpressure", &mut db, &w, 0.0));

    // Past the read-only watermark: writes refused, reads still flowing.
    db.set_capacity_clamp(Some(live + live / 50)).unwrap();
    if db.health().state != HealthState::ReadOnly {
        eprintln!("expected ReadOnly under the tightened clamp");
        failures += 1;
    }
    window += 1;
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    let (rd_rows, rd_s) = read_window(&mut db, t, scans_per_window);
    if w.committed_rows != 0 || rd_rows == 0 {
        eprintln!("ReadOnly must refuse writes yet serve reads");
        failures += 1;
    }
    rows.push(timeline_row(
        window,
        "read-only",
        &mut db,
        &w,
        rd_rows as f64 / rd_s.max(1e-9),
    ));

    // Operator response: drop the clamp, retire 3/4 of the rows in small
    // transactions, re-shrink, and run the emergency reclamation.
    db.set_capacity_clamp(None).unwrap();
    let mut doomed = (0..next_key).filter(|k| k % 4 != 0).peekable();
    while doomed.peek().is_some() {
        let mut tx = db.begin();
        for key in doomed.by_ref().take(8) {
            let hits = db.scan_eq(&tx, t, 0, &Value::Int(key)).unwrap();
            if let Some(hit) = hits.first() {
                db.delete(&mut tx, t, hit.row).unwrap();
            }
        }
        db.commit(&mut tx).unwrap();
    }
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 100 / 88)).unwrap();
    let t0 = Instant::now();
    let rep = db.reclaim().unwrap();
    let reclaim_ms = t0.elapsed().as_secs_f64() * 1e3;
    if rep.tables_merged < 1 || rep.state_after != HealthState::Normal {
        eprintln!("reclamation failed to restore Normal: {rep:?}");
        failures += 1;
    }
    window += 1;
    rows.push(
        Row::new()
            .with("window", window)
            .with("phase", "reclaim")
            .with("state", format!("{:?}", rep.state_after))
            .with("util_pct", format!("{:.1}", rep.utilization_after * 100.0))
            .with("committed_rows", 0u64)
            .with("rejected_txns", 0u64)
            .with("write_rows_per_s", format!("{:.0}", 0.0))
            .with("read_rows_per_s", format!("{:.0}", 0.0))
            .with("tables_merged", rep.tables_merged)
            .with(
                "util_before_pct",
                format!("{:.1}", rep.utilization_before * 100.0),
            )
            .with("reclaim_ms", format!("{:.2}", reclaim_ms)),
    );

    // Recovered steady state on the still-shrunken device.
    window += 1;
    let w = write_window(&mut db, t, &mut next_key, txns_per_window, rows_per_txn);
    if w.committed_rows == 0 {
        eprintln!("no writes landed after reclamation");
        failures += 1;
    }
    rows.push(timeline_row(window, "recovered", &mut db, &w, 0.0));

    if !db.verify_integrity().unwrap().is_clean() {
        eprintln!("integrity violated at the end of the timeline");
        failures += 1;
    }
    (rows, failures)
}

/// Retry goodput under probabilistic allocation faults: each insert rides
/// `retry_write` (bounded retry + reclamation between attempts).
fn run_fault_sweep(quick: bool) -> (Vec<Row>, u64) {
    let txns: u64 = if quick { 30 } else { 120 };
    let probabilities: &[f64] = if quick {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.01, 0.05, 0.10]
    };
    let mut rows = Vec::new();
    let mut failures = 0u64;
    for &p in probabilities {
        let (mut db, t) = fresh_db();
        if p > 0.0 {
            db.arm_alloc_fault(AllocFaultSpec {
                class: AllocFaultClass::FailProbabilistic { p },
                seed: 0xA6_0000 ^ (p * 1e4) as u64,
            })
            .unwrap();
        }
        let t0 = Instant::now();
        let mut committed = 0u64;
        let mut failed = 0u64;
        let mut next_key = 0i64;
        for _ in 0..txns {
            let mut tx = db.begin();
            let r = retry_write(&mut db, |db| {
                db.insert(&mut tx, t, &[Value::Int(next_key), Value::Int(1)])
            });
            match r {
                Ok(_) => match db.commit(&mut tx) {
                    Ok(_) => {
                        committed += 1;
                        next_key += 1;
                    }
                    Err(e) => {
                        assert_typed_refusal(&e);
                        failed += 1;
                    }
                },
                Err(e) => {
                    assert_typed_refusal(&e);
                    db.abort(&mut tx).unwrap();
                    failed += 1;
                }
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        if let Some(b) = db.nv_backend() {
            b.region().clear_alloc_fault();
        }
        let clean = db.verify_integrity().unwrap().is_clean();
        if !clean {
            eprintln!("integrity violated after fault sweep p={p}");
            failures += 1;
        }
        if p == 0.0 && failed != 0 {
            eprintln!("fault-free run lost {failed} transactions");
            failures += 1;
        }
        let h = db.health();
        rows.push(
            Row::new()
                .with("fault_p", format!("{p:.2}"))
                .with("txns", txns)
                .with("committed", committed)
                .with("failed", failed)
                .with(
                    "goodput_pct",
                    format!("{:.1}", 100.0 * committed as f64 / txns as f64),
                )
                .with(
                    "txns_per_s",
                    format!("{:.0}", txns as f64 / wall_s.max(1e-9)),
                )
                .with("capacity_aborts", h.capacity_aborts)
                .with("reclaims", h.reclaims)
                .with("integrity", if clean { "clean" } else { "VIOLATED" }),
        );
    }
    (rows, failures)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (timeline, f1) = run_timeline(quick);
    print_table(
        "A6: exhaustion timeline (per-window throughput across the degradation ladder)",
        &timeline,
    );
    write_json("a6_exhaustion", &timeline);

    let (sweep, f2) = run_fault_sweep(quick);
    print_table(
        "A6: retry goodput under probabilistic allocation faults",
        &sweep,
    );
    write_json("a6_exhaustion", &sweep);

    let failures = f1 + f2;
    if failures > 0 {
        eprintln!("{failures} exhaustion-bench failures — see output above");
        std::process::exit(1);
    }
    println!("\ndegradation ladder walked and recovered; no panics, typed refusals only");
}
