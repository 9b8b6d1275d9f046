//! A5 (ablation) — fault ladder: sweep media-fault classes × fault rates
//! over the NVM+shadow-WAL backend and report, per cell, how the recovery
//! ladder held up: detection rate at the media-verification gate, repair
//! rate after recovery, the rung distribution, and per-rung recovery cost.
//!
//! Fault classes (see `nvm::FaultClass`):
//! * `bitflip`          — random bit upsets inside a cache line.
//! * `tornline`         — a partially written-back line.
//! * `scribble`         — a misdirected multi-byte write.
//! * `poison-transient` — a line that fails reads a bounded number of times.
//! * `poison-permanent` — a line that fails every read.
//!
//! Faults are aimed at checksummed table extents (`Database::media_extents`),
//! so every content-destroying hit **must** be detected; the harness exits
//! non-zero on any silent corruption or failed repair. A scripted rung-2
//! demonstration at the end scribbles a merged table's main dictionary and
//! prints the phase breakdown of the shadow-WAL fallback that rebuilds it.
//!
//! Run: `cargo run --release -p hyrise-nv-bench --bin a5_fault_ladder`
//! (`--quick` shrinks the sweep for CI).

use std::time::Instant;

use benchkit::{print_table, write_json, Row};
use hyrise_nv::torture::{engine_state, load_unique_keys, setup_tables, Oracle};
use hyrise_nv::{Database, DurabilityConfig, TableId};
use nvm::{FaultClass, FaultSpec, LatencyModel, CACHE_LINE};
use util::rng::{Rng, SmallRng};

/// Build a committed NVM+shadow-WAL database: merged main + populated
/// delta + both index kinds. Returns the committed-state oracle.
fn build_db(seed: u64) -> (Database, TableId, Oracle) {
    let mut db = Database::create(DurabilityConfig::nvm_with_wal(
        16 << 20,
        LatencyModel::zero(),
    ))
    .unwrap();
    let t = setup_tables(&mut db).unwrap();
    let oracle = load_unique_keys(&mut db, t, seed, true).unwrap();
    (db, t, oracle)
}

/// A fault target strictly inside a checksummed extent (interior lines, so
/// line-granular damage stays inside the checksummed span).
fn pick_target(db: &Database, t: TableId, rng: &mut SmallRng) -> (u64, u64) {
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
    (
        (e.offset + e.len - CACHE_LINE).saturating_sub(offset),
        offset,
    )
}

#[derive(Default)]
struct CellStats {
    scenarios: u64,
    detected: u64,
    repaired: u64,
    failures: u64,
    rungs: [u64; 3],
    recovery_wall_ns_by_rung: [u128; 3],
    recovery_sim_ns_by_rung: [u128; 3],
    retries: u64,
    rebuilt: u64,
}

fn run_cell(class: FaultClass, rate: u32, scenarios: u64, seed_base: u64) -> CellStats {
    let mut stats = CellStats {
        scenarios,
        ..Default::default()
    };
    for i in 0..scenarios {
        let seed = seed_base.wrapping_add(i * 0x9E37_79B9);
        let (mut db, t, oracle) = build_db(seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5_1ADD);
        for _ in 0..rate {
            let (room, offset) = pick_target(&db, t, &mut rng);
            let class = match class {
                FaultClass::ScribbledBlock { len } => FaultClass::ScribbledBlock {
                    len: len.min(room.max(8)),
                },
                c => c,
            };
            db.nv_backend()
                .unwrap()
                .region()
                .inject_fault(&FaultSpec {
                    class,
                    offset,
                    seed,
                })
                .unwrap();
        }

        // Detection gate: either verification trips, or the data still
        // reads back exactly as committed (fault landed on dead bytes).
        let detected = db.verify_media().is_err();
        if !detected {
            match engine_state(&mut db, t) {
                Ok(state) if state != oracle => {
                    eprintln!(
                        "SILENT CORRUPTION: class {class} rate {rate} seed {seed:#x}: wrong \
                         data with clean verification"
                    );
                    stats.failures += 1;
                    continue;
                }
                _ => {}
            }
        }
        stats.detected += detected as u64;

        // Repair: recovery must restore the oracle exactly.
        let t0 = Instant::now();
        let report = match db.restart_after_crash() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("REPAIR FAILED: class {class} rate {rate} seed {seed:#x}: {e}");
                stats.failures += 1;
                continue;
            }
        };
        let wall = t0.elapsed().as_nanos();
        let rung = report.rung.min(2) as usize;
        stats.rungs[rung] += 1;
        stats.recovery_wall_ns_by_rung[rung] += wall;
        stats.recovery_sim_ns_by_rung[rung] += report.total_simulated_ns() as u128;
        stats.retries += report.poison_retries;
        stats.rebuilt += report.structures_rebuilt;

        let healthy = engine_state(&mut db, t)
            .map(|s| s == oracle)
            .unwrap_or(false)
            && db.verify_media().is_ok()
            && db.verify_integrity().map(|i| i.is_clean()).unwrap_or(false);
        if healthy {
            stats.repaired += 1;
        } else {
            eprintln!("REPAIR DIVERGED: class {class} rate {rate} seed {seed:#x} (rung {rung})");
            stats.failures += 1;
        }
    }
    stats
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scenarios: u64 = if quick { 4 } else { 25 };
    let rates: &[u32] = if quick { &[1] } else { &[1, 2, 4] };
    let classes = [
        FaultClass::BitFlip { bits: 3 },
        FaultClass::TornLine,
        FaultClass::ScribbledBlock { len: 256 },
        FaultClass::PoisonTransient { failures: 3 },
        FaultClass::PoisonPermanent,
    ];

    let mut rows = Vec::new();
    let mut failures = 0u64;
    for class in classes {
        for &rate in rates {
            let seed_base =
                0xA5_0500u64 ^ ((class.name().len() as u64) << 32) ^ ((rate as u64) << 16);
            let stats = run_cell(class, rate, scenarios, seed_base);
            failures += stats.failures;
            let avg_us = |idx: usize| {
                if stats.rungs[idx] == 0 {
                    "-".to_string()
                } else {
                    format!(
                        "{:.1}",
                        stats.recovery_wall_ns_by_rung[idx] as f64 / stats.rungs[idx] as f64 / 1e3
                    )
                }
            };
            rows.push(
                Row::new()
                    .with("class", class.name())
                    .with("rate", rate)
                    .with("scenarios", stats.scenarios)
                    .with(
                        "detect_pct",
                        format!(
                            "{:.0}",
                            100.0 * stats.detected as f64 / stats.scenarios as f64
                        ),
                    )
                    .with(
                        "repair_pct",
                        format!(
                            "{:.0}",
                            100.0 * stats.repaired as f64 / stats.scenarios as f64
                        ),
                    )
                    .with(
                        "rungs_0/1/2",
                        format!("{}/{}/{}", stats.rungs[0], stats.rungs[1], stats.rungs[2]),
                    )
                    .with("retries", stats.retries)
                    .with("rebuilt", stats.rebuilt)
                    .with("rung0_us", avg_us(0))
                    .with("rung1_us", avg_us(1))
                    .with("rung2_us", avg_us(2)),
            );
        }
    }

    print_table(
        "A5: fault ladder (detection/repair per fault class × rate; avg recovery wall µs by rung)",
        &rows,
    );
    write_json("a5_fault_ladder", &rows);

    // Scripted rung-2 demonstration: scribble a merged table's main
    // dictionary, then show the ladder rebuilding it from the shadow WAL.
    println!("\n== A5: rung-2 walkthrough (scribbled main dictionary) ==");
    let (mut db, t, oracle) = build_db(0xA5_DE30);
    let e = db
        .media_extents(t)
        .unwrap()
        .into_iter()
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
            seed: 0xA5,
        })
        .unwrap();
    println!(
        "scribbled {} bytes into {:?} @ {:#x}; verification: {}",
        e.len.min(512),
        e.what,
        e.offset,
        match db.verify_media() {
            Ok(_) => "CLEAN (unexpected)".to_string(),
            Err(err) => format!("detected — {err}"),
        }
    );
    let report = db.restart_after_crash().unwrap();
    print!("{}", report.render());
    let recovered = engine_state(&mut db, t).unwrap() == oracle
        && db.verify_media().is_ok()
        && report.rung == 2;
    println!(
        "rung-2 fallback {}: {} rows match the committed oracle",
        if recovered { "succeeded" } else { "FAILED" },
        oracle.len()
    );
    if !recovered {
        failures += 1;
    }

    if failures > 0 {
        eprintln!("{failures} fault-ladder failures — see output above");
        std::process::exit(1);
    }
    println!("\nall faults detected or harmless; every scenario repaired to the committed state");
}
