//! Media-fault torture harness: hammer the NVM-with-shadow-WAL backend with
//! seeded media faults (bit flips, torn lines, scribbled blocks, poisoned
//! lines) aimed at checksummed table extents and verify two properties
//! after every injection:
//!
//! 1. **No silent corruption** — with a fault planted in a checksummed
//!    extent, every read either returns the oracle value or a typed error,
//!    and media verification either passes with the data still correct or
//!    fails with a typed error. Valid-looking wrong bytes never escape.
//! 2. **Self-healing recovery** — a restart after the fault climbs the
//!    recovery ladder (rung 1: bounded poison retries and index rebuilds;
//!    rung 2: per-table shadow-WAL replay) and restores exactly the
//!    committed oracle state, with media verification and the structural
//!    integrity checks clean afterwards.
//!
//! Scenario counts scale with `FAULT_TORTURE_SCENARIOS` (default 100 per
//! fault class) so CI can run a quick smoke while local runs go deeper.
//! Every class run writes a summary artifact under `results/` whose
//! filename and body carry the seed base, fault class, and fault rate;
//! failures append a repro line with the exact seed and target offset.

use std::path::PathBuf;

use hyrise_nv::torture::{engine_state, env_usize, load_unique_keys, setup_tables, Oracle};
use hyrise_nv::{Database, DurabilityConfig, TableId};
use nvm::{FaultClass, FaultSpec, LatencyModel, CACHE_LINE};
use storage::Value;
use util::rng::{Rng, SmallRng};

/// Build a database in NVM+shadow-WAL mode with a deterministic committed
/// workload: a merged main partition (when `merge`), a populated delta, and
/// both index kinds. Returns the committed-state oracle.
fn build_db(seed: u64, merge: bool) -> (Database, TableId, Oracle) {
    let mut db = Database::create(DurabilityConfig::nvm_with_wal(
        16 << 20,
        LatencyModel::zero(),
    ))
    .unwrap();
    let t = setup_tables(&mut db).unwrap();

    let oracle = load_unique_keys(&mut db, t, seed, merge).unwrap();
    (db, t, oracle)
}

/// Pick a fault target strictly inside a checksummed extent: interior cache
/// lines only, so line-granular damage (bit flips, torn lines) cannot spill
/// into a neighbouring structure that shares the extent's edge lines.
fn pick_target(db: &Database, t: TableId, rng: &mut SmallRng) -> (String, u64, u64) {
    let extents: Vec<_> = db
        .media_extents(t)
        .unwrap()
        .into_iter()
        .filter(|e| e.checksummed && e.len >= 3 * CACHE_LINE)
        .collect();
    assert!(
        !extents.is_empty(),
        "workload must produce checksummed extents spanning ≥3 cache lines"
    );
    let e = extents[rng.gen_range_usize(0, extents.len())];
    let lo = e.offset + CACHE_LINE;
    let hi = e.offset + e.len - CACHE_LINE;
    let offset = lo + rng.gen_range_u64(0, hi - lo);
    // Budget for ScribbledBlock: bytes remaining inside the extent.
    let scribble_room = (e.offset + e.len - CACHE_LINE).saturating_sub(offset);
    (e.what.to_string(), offset, scribble_room)
}

struct Outcome {
    detected: bool,
    rung: u8,
}

/// One seeded scenario: build, inject, check no-silent-corruption, recover,
/// check the oracle state came back exactly.
fn run_scenario(class: FaultClass, seed: u64) -> Outcome {
    let merge = seed & 1 == 0;
    let (mut db, t, oracle) = build_db(seed, merge);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA01_7A6E);
    let (what, offset, room) = pick_target(&db, t, &mut rng);
    let class = match class {
        // Keep scribbles inside the chosen extent.
        FaultClass::ScribbledBlock { len } => FaultClass::ScribbledBlock {
            len: len.min(room.max(8)),
        },
        c => c,
    };
    let spec = FaultSpec {
        class,
        offset,
        seed,
    };
    db.nv_backend()
        .unwrap()
        .region()
        .inject_fault(&spec)
        .unwrap();

    // Property 1: no silent corruption. Verification first (it is the
    // detection point), then a full read-back. If verification passes AND
    // the read-back succeeds, the data must be byte-for-byte the oracle.
    let verified = db.verify_media();
    let detected = verified.is_err();
    match engine_state(&mut db, t) {
        Ok(state) => {
            if state != oracle && !detected {
                panic!(
                    "SILENT CORRUPTION: seed {seed:#x} {spec} in {what:?}: reads returned \
                     wrong data and media verification reported clean"
                );
            }
        }
        Err(_) => { /* typed error is an acceptable read outcome */ }
    }

    // Property 2: self-healing recovery.
    let report = db
        .restart_after_crash()
        .unwrap_or_else(|e| panic!("seed {seed:#x} {spec} in {what:?}: recovery failed: {e}"));
    let after = engine_state(&mut db, t)
        .unwrap_or_else(|e| panic!("seed {seed:#x} {spec}: post-recovery read failed: {e}"));
    assert_eq!(
        after, oracle,
        "seed {seed:#x} {spec} in {what:?}: recovered state diverges from oracle (rung {})",
        report.rung
    );
    let n = db
        .verify_media()
        .unwrap_or_else(|e| panic!("seed {seed:#x} {spec}: post-recovery media check: {e}"));
    assert!(n > 0);
    let integrity = db.verify_integrity().unwrap();
    assert!(
        integrity.is_clean(),
        "seed {seed:#x} {spec}: {}",
        integrity.render()
    );
    Outcome {
        detected,
        rung: report.rung,
    }
}

fn results_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../../results");
    let _ = std::fs::create_dir_all(&p);
    p.push(name);
    p
}

/// Per-class summary artifact: seed base, fault class, and fault rate are
/// in both the filename and the JSON body.
fn write_class_artifact(
    class: &FaultClass,
    seed_base: u64,
    scenarios: usize,
    detected: usize,
    rungs: &[usize; 3],
) {
    // One fault per scenario — the "rate" the torture matrix runs at.
    let name = format!(
        "fault_torture_{}_seed{seed_base:#x}_rate1.json",
        class.name()
    );
    let seed_s = format!("{seed_base:#x}");
    let scenarios_s = scenarios.to_string();
    let detected_s = detected.to_string();
    let class_s = format!("{class}");
    let rungs_s = format!("{}/{}/{}", rungs[0], rungs[1], rungs[2]);
    let body = util::json::object([
        ("suite", "fault_torture"),
        ("fault_class", class.name()),
        ("fault_class_detail", class_s.as_str()),
        ("seed_base", seed_s.as_str()),
        ("faults_per_scenario", "1"),
        ("scenarios", scenarios_s.as_str()),
        ("detected", detected_s.as_str()),
        ("rungs_0_1_2", rungs_s.as_str()),
        ("silent_corruption", "0"),
    ]);
    let _ = std::fs::write(results_path(&name), body + "\n");
}

/// The torture matrix: every fault class × N seeded scenarios, each aimed
/// at a random interior slice of a random checksummed extent.
#[test]
fn torture_media_faults_no_silent_corruption() {
    let scenarios = env_usize("FAULT_TORTURE_SCENARIOS", 100);
    let classes = [
        FaultClass::BitFlip { bits: 3 },
        FaultClass::TornLine,
        FaultClass::ScribbledBlock { len: 256 },
        FaultClass::PoisonTransient { failures: 3 },
        FaultClass::PoisonPermanent,
    ];
    for class in classes {
        let seed_base = 0xFA_0700u64 ^ ((class.name().len() as u64) << 32);
        let mut detected = 0usize;
        let mut rungs = [0usize; 3];
        for i in 0..scenarios {
            let seed = seed_base.wrapping_add(i as u64 * 0x9E37_79B9);
            let out = std::panic::catch_unwind(|| run_scenario(class, seed));
            match out {
                Ok(o) => {
                    detected += o.detected as usize;
                    rungs[o.rung.min(2) as usize] += 1;
                }
                Err(payload) => {
                    // Repro artifact (deduped by suite+seed, bounded), then
                    // re-raise.
                    let name = format!("fault_torture_repro_{}.jsonl", class.name());
                    let suite = format!("fault_torture/{}", class.name());
                    let class_s = format!("{class}");
                    util::repro::write(
                        &results_path(&name),
                        &suite,
                        seed,
                        [
                            ("fault_class", class.name()),
                            ("fault_class_detail", class_s.as_str()),
                            ("faults_per_scenario", "1"),
                        ],
                    );
                    std::panic::resume_unwind(payload);
                }
            }
        }
        write_class_artifact(&class, seed_base, scenarios, detected, &rungs);
        eprintln!(
            "{}: {scenarios} scenarios, {detected} detected pre-restart, rungs 0/1/2 = \
             {}/{}/{}",
            class.name(),
            rungs[0],
            rungs[1],
            rungs[2]
        );
        // Content-destroying classes must never sneak past verification:
        // every scenario is either detected before restart or (for poison)
        // surfaces as a typed read error during recovery — witnessed by the
        // ladder climbing past rung 0.
        match class {
            FaultClass::ScribbledBlock { .. } | FaultClass::PoisonPermanent => {
                assert_eq!(
                    rungs[2],
                    scenarios,
                    "{}: every scenario must reach rung 2",
                    class.name()
                );
            }
            _ => {}
        }
    }
}

/// Deterministic rung-2 demonstration: scribble a merged table's main
/// dictionary and watch the shadow-WAL fallback rebuild the table.
#[test]
fn scribbled_table_recovers_via_wal_rung2() {
    let (mut db, t, oracle) = build_db(0xBEEF, true);
    let extents = db.media_extents(t).unwrap();
    let e = extents
        .iter()
        .find(|e| e.what == "main-dict")
        .expect("merged table has a main dictionary");
    db.nv_backend()
        .unwrap()
        .region()
        .inject_fault(&FaultSpec {
            class: FaultClass::ScribbledBlock {
                len: e.len.min(512),
            },
            offset: e.offset,
            seed: 7,
        })
        .unwrap();
    assert!(db.verify_media().is_err(), "scribble must be detected");

    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rung, 2, "table damage must climb to the WAL rung");
    assert!(report.structures_rebuilt >= 1);
    assert!(report.blocks_quarantined >= 1);
    assert!(report.log_records_replayed > 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    assert!(db.verify_media().is_ok());
    assert!(db.verify_integrity().unwrap().is_clean());
}

/// A transiently poisoned line is repaired in place by bounded retries —
/// no rebuild, no quarantine, rung ≤ 1.
#[test]
fn transient_poison_repairs_at_rung1() {
    let (mut db, t, oracle) = build_db(0xCAFE, true);
    let extents = db.media_extents(t).unwrap();
    let e = extents
        .iter()
        .find(|e| e.checksummed && e.len >= 3 * CACHE_LINE)
        .unwrap();
    db.nv_backend()
        .unwrap()
        .region()
        .inject_fault(&FaultSpec {
            class: FaultClass::PoisonTransient { failures: 2 },
            offset: e.offset + CACHE_LINE,
            seed: 9,
        })
        .unwrap();

    let report = db.restart_after_crash().unwrap();
    assert!(
        report.rung <= 1,
        "transient poison must not need the WAL rung"
    );
    assert_eq!(report.structures_rebuilt, 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    assert!(db.verify_media().is_ok());
}

/// Clean restarts in NVM+WAL mode stay on rung 0: media verification runs,
/// nothing is rebuilt, and the shadow log's existence does not disturb the
/// committed state.
#[test]
fn nvm_with_wal_clean_restart_is_rung0() {
    let (mut db, t, oracle) = build_db(0xD00D, true);
    assert!(db.wal_stats().records > 0, "shadow log must see traffic");
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rung, 0);
    assert_eq!(report.structures_rebuilt, 0);
    assert_eq!(report.blocks_quarantined, 0);
    assert!(report.media_structures_verified > 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);

    // And the mode keeps working after recovery: new commits land in both
    // the NVM image and the re-baselined shadow log, surviving a second
    // (faulty) restart.
    let mut tx = db.begin();
    db.insert(&mut tx, t, &[Value::Int(9_999_999), Value::Int(1)])
        .unwrap();
    db.commit(&mut tx).unwrap();
    let extents = db.media_extents(t).unwrap();
    let e = extents.iter().find(|e| e.checksummed).unwrap();
    db.nv_backend()
        .unwrap()
        .region()
        .inject_fault(&FaultSpec {
            class: FaultClass::ScribbledBlock { len: 64 },
            offset: e.offset,
            seed: 3,
        })
        .unwrap();
    let report = db.restart_after_crash().unwrap();
    assert_eq!(report.rung, 2);
    let mut expected = oracle;
    expected.insert(9_999_999, 1);
    assert_eq!(engine_state(&mut db, t).unwrap(), expected);
}
