//! Capacity-exhaustion torture harness: drive the NVM-with-shadow-WAL
//! backend into allocation failure, log ENOSPC, and crash-at-exhaustion,
//! and verify the no-panic engine guarantee:
//!
//! 1. **Exhaustion-safe aborts** — every allocation failure inside
//!    commit/merge/DDL unwinds to a clean abort: the image passes the
//!    four-invariant integrity check, the committed oracle state is
//!    untouched, and the engine keeps serving afterwards. The nth-attempt
//!    sweep samples *every* allocation site of a reference workload.
//! 2. **Graceful degradation** — the watermark state machine walks
//!    Normal → Backpressure → ReadOnly as utilization climbs, reads stay
//!    served in ReadOnly, rejected writes carry typed retryable errors,
//!    and reclamation (or more capacity) brings writes back.
//! 3. **Crash-at-exhaustion** — a scheduled crash while the engine is
//!    rejecting and aborting at the brim recovers to exactly a committed
//!    prefix, clean under integrity verification, and the recovered
//!    engine can reclaim its way back to writability.
//!
//! Scenario counts scale with `EXHAUSTION_TORTURE_SCENARIOS` (default 100
//! for the sweep; the other suites derive from it) so CI can run a quick
//! smoke while local runs go deeper. Failures append a repro line with
//! the exact seed/nth under `results/`.

use std::path::PathBuf;

use hyrise_nv::torture::{engine_state, env_usize, schema, Oracle};
use hyrise_nv::{
    retry_write, Database, DurabilityConfig, EngineError, HealthState, IndexKind, TableId,
};
use nvm::{AllocFaultClass, AllocFaultSpec, CrashPoint, LatencyModel, TraceConfig};
use storage::Value;
use util::rng::{Rng, SmallRng};
use wal::{WalFaultClass, WalFaultSpec};

fn fresh_db() -> Database {
    Database::create(DurabilityConfig::nvm_with_wal(
        16 << 20,
        LatencyModel::zero(),
    ))
    .unwrap()
}

fn results_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../../results");
    let _ = std::fs::create_dir_all(&p);
    p.push(name);
    p
}

fn write_repro(suite: &str, seed: u64, detail: &[(&str, &str)]) {
    let name = format!("exhaustion_torture_repro_{suite}.jsonl");
    util::repro::write(&results_path(&name), suite, seed, detail.iter().copied());
}

/// A rejected or failed write must carry a typed capacity/admission error —
/// anything else (and any panic) is a harness failure.
fn assert_capacity_class(e: &EngineError, ctx: &str) {
    assert!(
        e.is_capacity()
            || matches!(
                e,
                EngineError::Backpressure { .. } | EngineError::ReadOnly { .. }
            ),
        "{ctx}: expected a typed capacity/admission error, got: {e}"
    );
}

// ---------------------------------------------------------------------
// 1. nth-allocation-failure sweep: every allocation site aborts cleanly
// ---------------------------------------------------------------------

/// The canonical workload every sweep scenario replays: DDL (table + both
/// index kinds), interleaved insert/delete transactions, and a merge —
/// covering every allocation site reachable from commit, merge, and DDL.
/// Each operation that fails must fail with a typed error; the transaction
/// is then aborted and the workload continues.
fn sweep_scenario(nth: Option<u64>, seed: u64) -> u64 {
    let mut db = fresh_db();
    let base_attempts = db.alloc_attempts();
    if let Some(nth) = nth {
        db.arm_alloc_fault(AllocFaultSpec {
            class: AllocFaultClass::FailNth { nth },
            seed,
        })
        .unwrap();
    }
    let ctx = format!("seed {seed:#x} nth {nth:?}");

    let mut typed_failures = 0u32;
    let t = match db.create_table("t", schema()) {
        Ok(t) => t,
        Err(e) => {
            // DDL failure at attempt 0..k: the engine has no table, but the
            // image must still be clean and the engine alive.
            assert_capacity_class(&e, &ctx);
            let rep = db.verify_integrity().unwrap();
            assert!(rep.is_clean(), "{ctx}: {}", rep.render());
            let t2 = db.create_table("t2", schema()).unwrap();
            let mut tx = db.begin();
            db.insert(&mut tx, t2, &[Value::Int(1), Value::Int(1)])
                .unwrap();
            db.commit(&mut tx).unwrap();
            return db.alloc_attempts() - base_attempts;
        }
    };
    for (col, kind) in [(0, IndexKind::Hash), (1, IndexKind::Ordered)] {
        if let Err(e) = db.create_index(t, col, kind) {
            assert_capacity_class(&e, &ctx);
            typed_failures += 1;
        }
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::new();
    for _ in 0..6 {
        let mut tx = db.begin();
        let mut shadow = oracle.clone();
        let mut poisoned = false;
        for _ in 0..8 {
            let key = rng.gen_range_i64(0, 4000);
            let ver = rng.next_u64() as i64 & 0xFFFF;
            if shadow.contains_key(&key) {
                continue;
            }
            match db.insert(&mut tx, t, &[Value::Int(key), Value::Int(ver)]) {
                Ok(_) => {
                    shadow.insert(key, ver);
                }
                Err(e) => {
                    assert_capacity_class(&e, &ctx);
                    typed_failures += 1;
                    poisoned = true;
                    break;
                }
            }
        }
        if !poisoned && rng.next_u64() & 3 == 0 {
            // Delete a key committed by an earlier transaction.
            if let Some(&key) = oracle.keys().next() {
                let hits = db.scan_eq(&tx, t, 0, &Value::Int(key)).unwrap();
                if let Some(hit) = hits.first() {
                    match db.delete(&mut tx, t, hit.row) {
                        Ok(()) => {
                            shadow.remove(&key);
                        }
                        Err(e) => {
                            assert_capacity_class(&e, &ctx);
                            typed_failures += 1;
                            poisoned = true;
                        }
                    }
                }
            }
        }
        if poisoned {
            db.abort(&mut tx).unwrap();
            continue;
        }
        match db.commit(&mut tx) {
            Ok(_) => oracle = shadow,
            Err(e) => {
                assert_capacity_class(&e, &ctx);
                typed_failures += 1;
                // A failed publish leaves the transaction active; abort
                // must fully undo the commit stamps.
                db.abort(&mut tx).unwrap();
            }
        }
    }
    if let Err(e) = db.merge(t) {
        assert_capacity_class(&e, &ctx);
        typed_failures += 1;
    }
    let attempts = db.alloc_attempts() - base_attempts;

    // Invariants after the storm: clean image, oracle intact.
    let rep = db.verify_integrity().unwrap();
    assert!(rep.is_clean(), "{ctx}: {}", rep.render());
    assert_eq!(
        engine_state(&mut db, t).unwrap(),
        oracle,
        "{ctx}: committed state diverged after {typed_failures} typed aborts"
    );

    // The engine keeps working: the one-shot fault has fired (or never
    // will), so a fresh transaction must land.
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(9_999_999), Value::Int(7)])
        .unwrap();
    db.commit(&mut tx).unwrap();
    oracle.insert(9_999_999, 7);

    // And the image survives a restart bit-for-bit.
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.mode, "nvm+wal", "{ctx}");
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle, "{ctx}");
    assert!(db.verify_integrity().unwrap().is_clean(), "{ctx}");
    attempts
}

/// Sweep a deterministic one-shot allocation fault across every allocation
/// site of the reference workload (sampled evenly when the site count
/// exceeds the scenario budget).
#[test]
fn alloc_fault_sweep_every_site_aborts_cleanly() {
    let budget = env_usize("EXHAUSTION_TORTURE_SCENARIOS", 100);
    let seed = 0xA6_0001u64;
    let total = sweep_scenario(None, seed);
    assert!(
        total > 40,
        "reference workload has {total} allocation sites"
    );

    let step = (total as usize).div_ceil(budget).max(1);
    let mut ran = 0usize;
    for nth in (0..total).step_by(step) {
        let out = std::panic::catch_unwind(|| sweep_scenario(Some(nth), seed));
        if let Err(payload) = out {
            write_repro(
                "alloc_sweep",
                seed,
                &[
                    ("nth", &nth.to_string()),
                    ("total_sites", &total.to_string()),
                ],
            );
            std::panic::resume_unwind(payload);
        }
        ran += 1;
    }
    eprintln!("alloc sweep: {ran} of {total} sites sampled (step {step}), all aborted cleanly");
}

/// Probabilistic allocation faults: every attempt fails with p = 5%, for
/// many seeds. No panic, no corruption, oracle intact, engine recoverable
/// after the fault clears.
#[test]
fn probabilistic_alloc_faults_never_panic() {
    let scenarios = env_usize("EXHAUSTION_TORTURE_SCENARIOS", 100)
        .div_ceil(4)
        .max(4);
    for i in 0..scenarios {
        let seed = 0xA6_0002u64.wrapping_add(i as u64 * 0x9E37_79B9);
        let out = std::panic::catch_unwind(|| {
            let mut db = fresh_db();
            let t = db.create_table("t", schema()).unwrap();
            db.create_index(t, 0, IndexKind::Hash).unwrap();
            db.arm_alloc_fault(AllocFaultSpec {
                class: AllocFaultClass::FailProbabilistic { p: 0.05 },
                seed,
            })
            .unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut oracle = Oracle::new();
            for _ in 0..10 {
                let mut tx = db.begin();
                let mut shadow = oracle.clone();
                let mut poisoned = false;
                for _ in 0..6 {
                    let key = rng.gen_range_i64(0, 4000);
                    if shadow.contains_key(&key) {
                        continue;
                    }
                    match db.insert(&mut tx, t, &[Value::Int(key), Value::Int(1)]) {
                        Ok(_) => {
                            shadow.insert(key, 1);
                        }
                        Err(e) => {
                            assert_capacity_class(&e, &format!("seed {seed:#x}"));
                            poisoned = true;
                            break;
                        }
                    }
                }
                if poisoned {
                    db.abort(&mut tx).unwrap();
                    continue;
                }
                match db.commit(&mut tx) {
                    Ok(_) => oracle = shadow,
                    Err(e) => {
                        assert_capacity_class(&e, &format!("seed {seed:#x}"));
                        db.abort(&mut tx).unwrap();
                    }
                }
            }
            db.nv_backend().unwrap().region().clear_alloc_fault();
            let rep = db.verify_integrity().unwrap();
            assert!(rep.is_clean(), "seed {seed:#x}: {}", rep.render());
            assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
            // Typed aborts may have orphaned reservations; reclamation
            // sweeps them and the engine takes writes again.
            db.reclaim().unwrap();
            let mut tx = db.begin();
            db.insert(&mut tx, t, &[Value::Int(-1), Value::Int(0)])
                .unwrap();
            db.commit(&mut tx).unwrap();
            oracle.insert(-1, 0);
            db.restart_after_crash().unwrap();
            assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
        });
        if let Err(payload) = out {
            write_repro("alloc_probabilistic", seed, &[("p", "0.05")]);
            std::panic::resume_unwind(payload);
        }
    }
}

// ---------------------------------------------------------------------
// 2. Watermark-driven degradation through the public API
// ---------------------------------------------------------------------

/// Commit `batches` insert batches of 8 fresh keys each; every operation
/// must succeed (capacity is known-ample when this is called).
fn fill_batches(db: &mut Database, t: TableId, next_key: &mut i64, batches: usize) {
    for _ in 0..batches {
        let mut tx = db.begin();
        for _ in 0..8 {
            let key = *next_key;
            *next_key += 1;
            db.insert(&mut tx, t, &[Value::Int(key), Value::Int(0)])
                .unwrap();
        }
        db.commit(&mut tx).unwrap();
    }
}

/// Keep committing insert batches until admission control (or exhaustion)
/// rejects one; returns the first typed error.
fn fill_to_reject(db: &mut Database, t: TableId, next_key: &mut i64) -> EngineError {
    for _ in 0..10_000 {
        let mut tx = db.begin();
        for _ in 0..8 {
            let key = *next_key;
            *next_key += 1;
            match db.insert(&mut tx, t, &[Value::Int(key), Value::Int(0)]) {
                Ok(_) => {}
                Err(e) => {
                    db.abort(&mut tx).unwrap();
                    return e;
                }
            }
        }
        if let Err(e) = db.commit(&mut tx) {
            db.abort(&mut tx).unwrap();
            return e;
        }
    }
    panic!("batch budget exhausted before any rejection");
}

/// Drive Normal → Backpressure → ReadOnly → Backpressure → Normal through
/// the public API with a capacity clamp, checking admission at each stop:
/// reads always served, writes rejected while degraded with typed
/// retryable errors, and rejected writes succeeding once capacity returns.
#[test]
fn watermark_state_machine_walks_through_public_api() {
    let mut db = fresh_db();
    let t = db.create_table("t", schema()).unwrap();
    let mut next_key = 0i64;

    // Seed some committed state, then clamp so the live footprint sits at
    // ~60% of effective capacity — comfortably Normal.
    fill_batches(&mut db, t, &mut next_key, 50);
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 10 / 6)).unwrap();
    assert_eq!(db.health().state, HealthState::Normal);

    // Climb until the engine turns a writer away. Admission control fires
    // once utilization crosses the backpressure mark; a single large delta
    // growth can instead jump the band and exhaust outright — either way
    // the rejection is typed and retryable, never a panic.
    let e = fill_to_reject(&mut db, t, &mut next_key);
    assert!(
        e.is_retryable() || matches!(e, EngineError::ReadOnly { .. }),
        "expected a retryable capacity rejection, got: {e}"
    );
    assert_capacity_class(&e, "organic climb");
    let h = db.health();
    assert!(h.capacity_aborts + h.writes_rejected >= 1, "{h:?}");

    // Pin utilization into the backpressure band: writes are turned away
    // with the typed retryable error, DDL is still admitted.
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 100 / 88)).unwrap();
    let h = db.health();
    assert_eq!(h.state, HealthState::Backpressure);
    assert!(h.utilization >= h.watermarks.backpressure);
    let mut tx = db.begin();
    let e = db
        .insert(&mut tx, t, &[Value::Int(-3), Value::Int(0)])
        .unwrap_err();
    assert!(matches!(e, EngineError::Backpressure { .. }), "got: {e}");
    assert!(e.is_retryable());
    db.abort(&mut tx).unwrap();
    assert!(db.health().writes_rejected > 0);
    // DDL is still admitted in Backpressure: it may genuinely run out of
    // heap (the organic climb above parked the frontier at the clamp), but
    // it must never bounce off the admission gate.
    if let Err(e) = db.create_table("side", schema()) {
        assert!(
            matches!(e, EngineError::CapacityExhausted { .. }),
            "DDL must be admitted in Backpressure, got: {e}"
        );
    }

    // Tighten the clamp until the same live footprint reads ≥ read_only:
    // the machine must jump to ReadOnly without any new writes landing.
    let committed = engine_state(&mut db, t).unwrap();
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live + live / 50)).unwrap();
    let h = db.health();
    assert_eq!(h.state, HealthState::ReadOnly);

    // Reads are served in ReadOnly; writes and DDL carry typed errors.
    assert_eq!(engine_state(&mut db, t).unwrap(), committed);
    let mut tx = db.begin();
    let e = db
        .insert(&mut tx, t, &[Value::Int(-7), Value::Int(0)])
        .unwrap_err();
    assert!(matches!(e, EngineError::ReadOnly { .. }), "got: {e}");
    assert!(!e.is_retryable());
    db.abort(&mut tx).unwrap();
    let e = db.create_table("blocked", schema()).unwrap_err();
    assert!(matches!(e, EngineError::ReadOnly { .. }), "got: {e}");

    // Hysteresis: capacity between resume and read_only relaxes the state
    // only to Backpressure, not to Normal.
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 100 / 90)).unwrap();
    assert_eq!(db.health().state, HealthState::Backpressure);

    // Plenty of capacity again: Normal, and the rejected write lands.
    db.set_capacity_clamp(None).unwrap();
    assert_eq!(db.health().state, HealthState::Normal);
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(-7), Value::Int(0)])
        .unwrap();
    db.commit(&mut tx).unwrap();
    assert!(db.verify_integrity().unwrap().is_clean());
}

/// `retry_write` turns a one-shot allocation failure into a success: the
/// capacity error is retryable, reclamation runs between attempts, and the
/// second attempt lands.
#[test]
fn retry_write_recovers_from_transient_exhaustion() {
    let mut db = fresh_db();
    let t = db.create_table("t", schema()).unwrap();
    db.arm_alloc_fault(AllocFaultSpec {
        class: AllocFaultClass::FailNth { nth: 0 },
        seed: 0,
    })
    .unwrap();
    let mut tx = db.begin();
    let row = retry_write(&mut db, |db| {
        db.insert(&mut tx, t, &[Value::Int(1), Value::Int(1)])
    })
    .unwrap();
    db.commit(&mut tx).unwrap();
    assert_eq!(row, 0);
    let h = db.health();
    assert_eq!(h.capacity_aborts, 1);
    assert!(h.reclaims >= 1);
    assert_eq!(engine_state(&mut db, t).unwrap().len(), 1);
}

/// Reclamation at the brim: merges retire dead versions and reservation
/// sweeps return orphans, dropping utilization enough to resume writes
/// without touching the clamp.
#[test]
fn reclaim_frees_capacity_at_the_brim() {
    let mut db = fresh_db();
    let t = db.create_table("t", schema()).unwrap();
    let mut next_key = 0i64;
    fill_batches(&mut db, t, &mut next_key, 100);
    // Delete most rows (their versions stay until a merge retires them).
    let committed = engine_state(&mut db, t).unwrap();
    let mut tx = db.begin();
    for (i, (&key, _)) in committed.iter().enumerate() {
        if i % 8 != 0 {
            let hits = db.scan_eq(&tx, t, 0, &Value::Int(key)).unwrap();
            db.delete(&mut tx, t, hits[0].row).unwrap();
        }
    }
    db.commit(&mut tx).unwrap();

    // Clamp so the pre-merge footprint is over the backpressure mark.
    let s = db.heap_stats().unwrap();
    let live = s.high_water - s.free_bytes;
    db.set_capacity_clamp(Some(live * 100 / 88)).unwrap();
    assert_eq!(db.health().state, HealthState::Backpressure);

    let rep = db.reclaim().unwrap();
    assert!(rep.tables_merged >= 1, "emergency merge skipped: {rep:?}");
    assert!(
        rep.utilization_after < rep.utilization_before,
        "merge must retire the deleted versions: {rep:?}"
    );
    assert_eq!(rep.state_after, HealthState::Normal);
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(-1), Value::Int(0)])
        .unwrap();
    db.commit(&mut tx).unwrap();
    assert!(db.verify_integrity().unwrap().is_clean());
}

// ---------------------------------------------------------------------
// 3. Shadow-log out-of-space: wedge, read-only, reclaim, recover
// ---------------------------------------------------------------------

/// One WAL-fault scenario: arm the class at the nth operation, run commits
/// until the failure surfaces, then check the wedge → ReadOnly → reclaim →
/// Normal arc and full recovery across a restart.
fn wal_fault_scenario(class: WalFaultClass, nth: u64, seed: u64) {
    let ctx = format!("{class:?} nth {nth} seed {seed:#x}");
    let mut db = fresh_db();
    let t = db.create_table("t", schema()).unwrap();
    db.create_index(t, 0, IndexKind::Hash).unwrap();
    db.arm_wal_fault(WalFaultSpec { class, nth }).unwrap();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::new();
    let mut wedged_seen = false;
    for _ in 0..40 {
        let mut tx = db.begin();
        let mut shadow = oracle.clone();
        let mut poisoned = false;
        for _ in 0..5 {
            let key = rng.gen_range_i64(0, 4000);
            if shadow.contains_key(&key) {
                continue;
            }
            match db.insert(&mut tx, t, &[Value::Int(key), Value::Int(2)]) {
                Ok(_) => {
                    shadow.insert(key, 2);
                }
                Err(e) => {
                    assert_capacity_class(&e, &ctx);
                    poisoned = true;
                    break;
                }
            }
        }
        if poisoned {
            db.abort(&mut tx).unwrap();
        } else {
            match db.commit(&mut tx) {
                Ok(_) => oracle = shadow,
                Err(e) => {
                    assert_capacity_class(&e, &ctx);
                    db.abort(&mut tx).unwrap();
                }
            }
        }
        if db.wal_wedged() {
            wedged_seen = true;
            break;
        }
    }
    assert!(
        wedged_seen,
        "{ctx}: the armed fault never wedged the writer"
    );

    // A wedged log forces ReadOnly regardless of utilization; reads work.
    assert_eq!(db.health().state, HealthState::ReadOnly);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle, "{ctx}");
    let mut tx = db.begin();
    let e = db
        .insert(&mut tx, t, &[Value::Int(-9), Value::Int(0)])
        .unwrap_err();
    assert!(matches!(e, EngineError::ReadOnly { .. }), "{ctx}: {e}");
    db.abort(&mut tx).unwrap();
    assert!(db.verify_integrity().unwrap().is_clean(), "{ctx}");

    // Reclaim recreates the log and re-baselines its checkpoint.
    let rep = db.reclaim().unwrap();
    assert!(rep.wal_recreated, "{ctx}");
    assert!(!db.wal_wedged());
    assert_eq!(db.health().state, HealthState::Normal);
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(-9), Value::Int(9)])
        .unwrap();
    db.commit(&mut tx).unwrap();
    oracle.insert(-9, 9);

    // The recreated log's checkpoint must cover the published state: a
    // restart replays to exactly the oracle.
    db.restart_after_crash()
        .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle, "{ctx}");
    assert!(db.verify_integrity().unwrap().is_clean(), "{ctx}");
}

#[test]
fn wal_enospc_wedges_then_reclaim_recovers() {
    let classes = [
        WalFaultClass::AppendEnospc,
        WalFaultClass::AppendShortWrite,
        WalFaultClass::SyncEnospc,
    ];
    let per_class = env_usize("EXHAUSTION_TORTURE_SCENARIOS", 100)
        .div_ceil(16)
        .max(3);
    for class in classes {
        for i in 0..per_class {
            // Appends run several per transaction; syncs once per commit —
            // keep sync targets within the workload's ~40 commits.
            let nth = match class {
                WalFaultClass::SyncEnospc => (i as u64) * 3,
                _ => (i as u64) * 7 + 1,
            };
            let seed = 0xA6_0003u64 ^ ((i as u64) << 16);
            let out = std::panic::catch_unwind(|| wal_fault_scenario(class, nth, seed));
            if let Err(payload) = out {
                write_repro(
                    "wal_fault",
                    seed,
                    &[("class", class.name()), ("nth", &nth.to_string())],
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
}

// ---------------------------------------------------------------------
// 4. Crash at exhaustion: scheduled crash while aborting at the brim
// ---------------------------------------------------------------------

/// The deterministic brim workload: seed committed state, clamp near the
/// brim, then keep writing — commits land until admission/exhaustion
/// rejects them. Returns the commit ledger (cts → oracle).
fn brim_workload(db: &mut Database, t: TableId, seed: u64) -> Vec<(u64, Oracle)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut snaps: Vec<(u64, Oracle)> = vec![(0, Oracle::new())];
    let mut oracle = Oracle::new();
    for batch in 0..30 {
        if batch == 10 {
            let s = db.heap_stats().unwrap();
            let live = s.high_water - s.free_bytes;
            db.set_capacity_clamp(Some(live + 48 * 1024)).unwrap();
        }
        let mut tx = db.begin();
        let mut shadow = oracle.clone();
        let mut poisoned = false;
        for _ in 0..6 {
            let key = rng.gen_range_i64(0, 100_000);
            if shadow.contains_key(&key) {
                continue;
            }
            match db.insert(&mut tx, t, &[Value::Int(key), Value::Int(3)]) {
                Ok(_) => {
                    shadow.insert(key, 3);
                }
                Err(e) => {
                    assert_capacity_class(&e, &format!("seed {seed:#x} batch {batch}"));
                    poisoned = true;
                    break;
                }
            }
        }
        if poisoned {
            db.abort(&mut tx).unwrap();
            continue;
        }
        match db.commit(&mut tx) {
            Ok(cts) => {
                oracle = shadow;
                snaps.push((cts, oracle.clone()));
            }
            Err(e) => {
                assert_capacity_class(&e, &format!("seed {seed:#x} batch {batch}"));
                db.abort(&mut tx).unwrap();
            }
        }
    }
    snaps
}

/// One crash-at-exhaustion scenario: replay the brim workload with a crash
/// scheduled at `fence`, recover, and check the recovered image is a clean
/// committed prefix — then reclaim back to writability.
fn crash_at_exhaustion_scenario(seed: u64, fence: u64) {
    let ctx = format!("seed {seed:#x} fence {fence}");
    let mut db = fresh_db();
    let t = db.create_table("t", schema()).unwrap();
    let region = db.nv_backend().unwrap().region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    region.arm_crash(CrashPoint::AtFence { fence }).unwrap();

    let snaps = brim_workload(&mut db, t, seed);

    let report = db
        .restart_scheduled()
        .unwrap_or_else(|e| panic!("{ctx}: recovery at the brim failed: {e}"));
    assert!(
        report.lint_findings.is_empty(),
        "{ctx}: persist-trace lint: {:?}",
        report.lint_findings
    );
    let expected = snaps
        .iter()
        .rev()
        .find(|(cts, _)| *cts <= report.last_cts)
        .map(|(_, o)| o.clone())
        .unwrap_or_else(|| {
            panic!(
                "{ctx}: last_cts {} matches no ledger entry",
                report.last_cts
            )
        });
    assert_eq!(
        engine_state(&mut db, t).unwrap(),
        expected,
        "{ctx}: recovered state is not the committed prefix at cts {}",
        report.last_cts
    );
    let rep = db.verify_integrity().unwrap();
    assert!(rep.is_clean(), "{ctx}: {}", rep.render());

    // Recovery at the brim may come back degraded — reclamation plus a
    // lifted clamp must restore writability.
    db.reclaim().unwrap();
    db.set_capacity_clamp(None).unwrap();
    assert_eq!(db.health().state, HealthState::Normal, "{ctx}");
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(-42), Value::Int(1)])
        .unwrap();
    db.commit(&mut tx).unwrap();
}

#[test]
fn crash_at_exhaustion_recovers_a_clean_committed_prefix() {
    let scenarios = env_usize("EXHAUSTION_TORTURE_SCENARIOS", 100)
        .div_ceil(5)
        .max(4);
    for i in 0..scenarios {
        let seed = 0xA6_0004u64.wrapping_add(i as u64 * 0x9E37_79B9);
        // Reference run: learn the fence budget of this seed's workload.
        let total_fences = {
            let mut db = fresh_db();
            let t = db.create_table("t", schema()).unwrap();
            let region = db.nv_backend().unwrap().region().clone();
            region.trace_start(TraceConfig { keep_events: false });
            brim_workload(&mut db, t, seed);
            region.trace_stop().unwrap().fences
        };
        assert!(total_fences > 0);
        // Crash points spread across the run, biased into the brim phase.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xC4A5);
        for _ in 0..2 {
            let fence = 1 + rng.gen_range_u64(total_fences / 2, total_fences);
            let out = std::panic::catch_unwind(|| crash_at_exhaustion_scenario(seed, fence));
            if let Err(payload) = out {
                write_repro(
                    "crash_at_exhaustion",
                    seed,
                    &[
                        ("fence", &fence.to_string()),
                        ("total_fences", &total_fences.to_string()),
                    ],
                );
                std::panic::resume_unwind(payload);
            }
        }
    }
}
