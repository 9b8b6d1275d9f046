//! Media faults on the *real* file-backed backend: corrupt bytes in the
//! closed image file with plain `std::fs` between runs — no simulator
//! fault hooks involved — and verify the recovery ladder repairs the damage
//! on reopen exactly as it does for simulated faults:
//!
//! - index-extent damage climbs to **rung 1** (bounded retries + index
//!   rebuild from the intact base table);
//! - table-payload damage climbs to **rung 2** (per-table shadow-WAL
//!   replay);
//! - an undamaged file reopens at **rung 0** with media verification
//!   passing.
//!
//! This is the end-to-end proof that the checksummed-extent registry and
//! the ladder work against bytes that really came back from disk, not just
//! against the simulator's in-process images.

use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use hyrise_nv::torture::{engine_state, load_unique_keys, setup_tables, Oracle};
use hyrise_nv::{Database, DurabilityConfig, TableId, WalConfig};
use nvm::{LatencyModel, CACHE_LINE};
use util::rng::{Rng, SmallRng};

const CAPACITY: u64 = 16 << 20;

fn paths(tag: &str) -> (PathBuf, WalConfig) {
    let base = std::env::temp_dir().join(format!("real-media-{}-{tag}", std::process::id()));
    let img = base.with_extension("img");
    let _ = std::fs::remove_file(&img);
    let wal = WalConfig {
        dir: base.with_extension("wal"),
        sync_latency_ns: 0,
        sync_every_n_commits: 1,
    };
    let _ = std::fs::remove_dir_all(&wal.dir);
    (img, wal)
}

fn config(img: &Path, wal: &WalConfig) -> DurabilityConfig {
    DurabilityConfig::NvmFile {
        path: img.to_path_buf(),
        capacity: CAPACITY,
        latency: LatencyModel::zero(),
        wal: Some(wal.clone()),
    }
}

/// An extent recorded before shutdown: where it lives in the file.
#[derive(Debug, Clone)]
struct Target {
    what: String,
    offset: u64,
    len: u64,
}

/// Create, populate (with a merge so a checksummed main partition exists),
/// record extents of interest, shut down cleanly. Returns the oracle and
/// the extent list.
fn build_closed_image(img: &Path, wal: &WalConfig, seed: u64) -> (Oracle, Vec<Target>) {
    let mut db = Database::create(config(img, wal)).unwrap();
    let t = setup_tables(&mut db).unwrap();
    let oracle = load_unique_keys(&mut db, t, seed, true).unwrap();
    let mut targets: Vec<Target> = db
        .media_extents(t)
        .unwrap()
        .into_iter()
        .filter(|e| e.checksummed && e.len >= 3 * CACHE_LINE)
        .map(|e| Target {
            what: e.what.to_string(),
            offset: e.offset,
            len: e.len,
        })
        .collect();
    targets.extend(
        db.index_media_extents(t)
            .unwrap()
            .into_iter()
            .map(|e| Target {
                what: e.what.to_string(),
                offset: e.offset,
                len: e.len,
            }),
    );
    db.shutdown().unwrap();
    (oracle, targets)
}

/// Overwrite `len` bytes at `offset` in the closed file with a seeded
/// garbage pattern — the "disk came back wrong" event.
fn corrupt_file(img: &Path, offset: u64, len: u64, seed: u64) {
    let mut f = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(img)
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8 | 1).collect();
    f.seek(SeekFrom::Start(offset)).unwrap();
    f.write_all(&garbage).unwrap();
    f.sync_all().unwrap();
}

fn reopen(img: &Path, wal: &WalConfig) -> (Database, hyrise_nv::RecoveryReport, TableId) {
    let (mut db, report) = Database::open(config(img, wal)).unwrap();
    let t = db.table_id("t").expect("table survives");
    let _ = &mut db;
    (db, report, t)
}

fn cleanup(img: &Path, wal: &WalConfig) {
    let _ = std::fs::remove_file(img);
    let _ = std::fs::remove_dir_all(&wal.dir);
}

/// Undamaged file: clean reopen stays on rung 0 and verifies all media.
#[test]
fn intact_file_reopens_at_rung0() {
    let (img, wal) = paths("intact");
    let (oracle, _) = build_closed_image(&img, &wal, 0x11AD);
    let (mut db, report, t) = reopen(&img, &wal);
    assert!(report.clean_shutdown);
    assert_eq!(report.rung, 0);
    assert_eq!(report.structures_rebuilt, 0);
    assert!(report.media_structures_verified > 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    assert!(db.verify_media().is_ok());
    assert!(db.verify_integrity().unwrap().is_clean());
    cleanup(&img, &wal);
}

/// Corrupting a persistent index extent in the closed file forces an index
/// rebuild on reopen — rung 1, base table untouched, no WAL replay.
#[test]
fn corrupt_index_extent_repairs_at_rung1() {
    let (img, wal) = paths("rung1");
    let (oracle, targets) = build_closed_image(&img, &wal, 0x12AD);
    let idx = targets
        .iter()
        .find(|t| t.what.contains("index"))
        .expect("index extents must be registered");
    // Scribble the node's payload words; the per-node checksum seal turns
    // this into a typed mismatch at attach time.
    corrupt_file(&img, idx.offset + 8, (idx.len - 8).min(16), 0xBAD1);

    let (mut db, report, t) = reopen(&img, &wal);
    assert_eq!(
        report.rung,
        1,
        "index damage must repair at rung 1 (report: {})",
        report.render()
    );
    assert!(report.indexes_rebuilt >= 1);
    assert_eq!(
        report.log_records_replayed, 0,
        "no WAL replay for index damage"
    );
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    assert!(db.verify_media().is_ok());
    assert!(db.verify_integrity().unwrap().is_clean());
    cleanup(&img, &wal);
}

/// Corrupting a table-payload extent (main dictionary) forces shadow-WAL
/// replay on reopen — rung 2 — and the committed state still comes back
/// byte-for-byte.
#[test]
fn corrupt_table_extent_repairs_at_rung2() {
    let (img, wal) = paths("rung2");
    let (oracle, targets) = build_closed_image(&img, &wal, 0x13AD);
    let dict = targets
        .iter()
        .find(|t| t.what == "main-dict")
        .expect("merged table has a main dictionary");
    corrupt_file(&img, dict.offset, dict.len.min(512), 0xBAD2);

    let (mut db, report, t) = reopen(&img, &wal);
    assert_eq!(
        report.rung,
        2,
        "table damage must climb to the WAL rung (report: {})",
        report.render()
    );
    assert!(report.structures_rebuilt >= 1);
    assert!(report.log_records_replayed > 0);
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    assert!(db.verify_media().is_ok());
    assert!(db.verify_integrity().unwrap().is_clean());

    // The repaired image is durable: a second reopen needs no ladder.
    db.shutdown().unwrap();
    let (mut db, report, t) = reopen(&img, &wal);
    assert_eq!(
        report.rung,
        0,
        "repair must persist (report: {})",
        report.render()
    );
    assert_eq!(engine_state(&mut db, t).unwrap(), oracle);
    cleanup(&img, &wal);
}
