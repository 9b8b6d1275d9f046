//! Cross-crate integration tests: the `Database` façade over all three
//! durability backends.

use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId};
use storage::{ColumnDef, DataType, Schema, Value};

fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("id", DataType::Int),
        ColumnDef::new("name", DataType::Text),
        ColumnDef::new("balance", DataType::Double),
    ])
}

fn row(id: i64, name: &str, balance: f64) -> Vec<Value> {
    vec![Value::Int(id), name.into(), Value::Double(balance)]
}

fn all_configs() -> Vec<DurabilityConfig> {
    vec![
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
        DurabilityConfig::Volatile,
    ]
}

fn setup(config: DurabilityConfig) -> (Database, TableId) {
    let mut db = Database::create(config).unwrap();
    let t = db.create_table("accounts", schema()).unwrap();
    (db, t)
}

#[test]
fn crud_roundtrip_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);

        // Insert + commit.
        let mut tx = db.begin();
        let r1 = db.insert(&mut tx, t, &row(1, "alice", 100.0)).unwrap();
        db.insert(&mut tx, t, &row(2, "bob", 50.0)).unwrap();
        db.commit(&mut tx).unwrap();

        let tx = db.begin();
        let all = db.scan_all(&tx, t).unwrap();
        assert_eq!(all.len(), 2, "{mode}");

        // Update.
        let mut tx = db.begin();
        db.update(&mut tx, t, r1, &row(1, "alice", 175.0)).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        let alice = db.scan_eq(&tx, t, 0, &Value::Int(1)).unwrap();
        assert_eq!(alice.len(), 1, "{mode}");
        assert_eq!(alice[0].values[2], Value::Double(175.0), "{mode}");

        // Delete.
        let mut tx = db.begin();
        let bob_row = db.scan_eq(&tx, t, 0, &Value::Int(2)).unwrap()[0].row;
        db.delete(&mut tx, t, bob_row).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, t).unwrap().len(), 1, "{mode}");
    }
}

#[test]
fn snapshot_isolation_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let mut tx1 = db.begin();
        db.insert(&mut tx1, t, &row(1, "x", 0.0)).unwrap();
        // Reader with an older snapshot.
        let reader = db.begin();
        assert!(db.scan_all(&reader, t).unwrap().is_empty(), "{mode}");
        db.commit(&mut tx1).unwrap();
        // Old snapshot still empty; new snapshot sees the row.
        assert!(db.scan_all(&reader, t).unwrap().is_empty(), "{mode}");
        let fresh = db.begin();
        assert_eq!(db.scan_all(&fresh, t).unwrap().len(), 1, "{mode}");
    }
}

#[test]
fn abort_rolls_back_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let mut tx = db.begin();
        let r = db.insert(&mut tx, t, &row(1, "seed", 10.0)).unwrap();
        db.commit(&mut tx).unwrap();

        let mut tx = db.begin();
        db.update(&mut tx, t, r, &row(1, "mutated", 99.0)).unwrap();
        db.insert(&mut tx, t, &row(2, "extra", 0.0)).unwrap();
        db.abort(&mut tx).unwrap();

        let tx = db.begin();
        let all = db.scan_all(&tx, t).unwrap();
        assert_eq!(all.len(), 1, "{mode}");
        assert_eq!(all[0].values[1], Value::Text("seed".into()), "{mode}");
    }
}

#[test]
fn write_conflicts_surface_on_every_backend() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let mut tx = db.begin();
        let r = db.insert(&mut tx, t, &row(1, "c", 0.0)).unwrap();
        db.commit(&mut tx).unwrap();

        let mut a = db.begin();
        let mut b = db.begin();
        db.delete(&mut a, t, r).unwrap();
        let err = db.delete(&mut b, t, r).unwrap_err();
        assert!(hyrise_nv::is_conflict(&err), "{mode}: {err}");
        db.abort(&mut b).unwrap();
        db.commit(&mut a).unwrap();
    }
}

#[test]
fn merge_compacts_and_preserves_scans() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        for i in 0..30i64 {
            let mut tx = db.begin();
            db.insert(&mut tx, t, &row(i, &format!("n{}", i % 4), i as f64))
                .unwrap();
            db.commit(&mut tx).unwrap();
        }
        // Delete a third.
        let mut tx = db.begin();
        let victims: Vec<u64> = db
            .scan_range(&tx, t, 0, Some(&Value::Int(0)), Some(&Value::Int(10)))
            .unwrap()
            .iter()
            .map(|s| s.row)
            .collect();
        for v in victims {
            db.delete(&mut tx, t, v).unwrap();
        }
        db.commit(&mut tx).unwrap();

        let stats = db.merge(t).unwrap();
        assert_eq!(stats.rows_merged, 20, "{mode}");
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, t).unwrap().len(), 20, "{mode}");
        let hits = db
            .scan_range(&tx, t, 0, Some(&Value::Int(15)), Some(&Value::Int(20)))
            .unwrap();
        assert_eq!(hits.len(), 5, "{mode}");

        // Post-merge writes still work.
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(99, "post", 1.0)).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, t).unwrap().len(), 21, "{mode}");
    }
}

#[test]
fn index_lookup_agrees_with_scan() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        db.create_index(t, 0, IndexKind::Hash).unwrap();
        db.create_index(t, 2, IndexKind::Ordered).unwrap();
        for i in 0..50i64 {
            let mut tx = db.begin();
            db.insert(&mut tx, t, &row(i % 10, &format!("u{i}"), (i % 7) as f64))
                .unwrap();
            db.commit(&mut tx).unwrap();
        }
        let tx = db.begin();
        for k in 0..11i64 {
            let via_idx = db.index_lookup(&tx, t, 0, &Value::Int(k)).unwrap();
            let via_scan = db.scan_eq(&tx, t, 0, &Value::Int(k)).unwrap();
            assert_eq!(via_idx.len(), via_scan.len(), "{mode} key {k}");
        }
        let via_idx = db
            .index_range_lookup(
                &tx,
                t,
                2,
                Some(&Value::Double(2.0)),
                Some(&Value::Double(5.0)),
            )
            .unwrap();
        let via_scan = db
            .scan_range(
                &tx,
                t,
                2,
                Some(&Value::Double(2.0)),
                Some(&Value::Double(5.0)),
            )
            .unwrap();
        assert_eq!(via_idx.len(), via_scan.len(), "{mode} range");
    }
}

#[test]
fn index_survives_merge() {
    for config in all_configs() {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        db.create_index(t, 0, IndexKind::Hash).unwrap();
        for i in 0..20i64 {
            let mut tx = db.begin();
            db.insert(&mut tx, t, &row(i % 5, "m", 0.0)).unwrap();
            db.commit(&mut tx).unwrap();
        }
        db.merge(t).unwrap();
        let tx = db.begin();
        let hits = db.index_lookup(&tx, t, 0, &Value::Int(3)).unwrap();
        assert_eq!(hits.len(), 4, "{mode}");
    }
}

#[test]
fn catalog_duplicate_and_unknown_errors() {
    let (mut db, t) = setup(DurabilityConfig::nvm_default());
    assert!(db.create_table("accounts", schema()).is_err());
    assert_eq!(db.table_id("accounts"), Some(t));
    assert_eq!(db.table_id("nope"), None);
    let tx = db.begin();
    assert!(db.scan_all(&tx, TableId(9)).is_err());
}

/// Out-of-range index columns, the table and index limits and duplicate
/// table names are rejected with the same typed catalogue error on every
/// backend, and a rejected `create_index` leaves the table writable.
#[test]
fn ddl_limits_rejected_alike_on_every_backend() {
    use hyrise_nv::{EngineError, MAX_INDEXES_PER_TABLE, MAX_TABLES};
    let image = std::env::temp_dir().join(format!("ddl-limits-{}.img", std::process::id()));
    let mut configs = all_configs();
    configs.push(DurabilityConfig::nvm_file(
        &image,
        64 << 20,
        nvm::LatencyModel::zero(),
    ));
    for config in configs {
        let mode = config.mode_name();
        let (mut db, t) = setup(config);
        let catalog = |r: hyrise_nv::Result<()>, what: &str| {
            assert!(
                matches!(r, Err(EngineError::Catalog(_))),
                "{mode}: {what} must be a catalogue error, got {r:?}"
            );
        };

        catalog(
            db.create_index(t, 3, IndexKind::Hash),
            "column past the schema",
        );
        catalog(
            db.create_index(t, 99, IndexKind::Ordered),
            "column past the schema",
        );
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(1, "after-rejected-index", 1.0))
            .unwrap();
        db.commit(&mut tx).unwrap();

        for i in 0..MAX_INDEXES_PER_TABLE {
            let kind = [IndexKind::Hash, IndexKind::Ordered][i % 2];
            db.create_index(t, i % 3, kind).unwrap();
        }
        catalog(
            db.create_index(t, 0, IndexKind::Hash),
            "index past the limit",
        );
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(2, "after-index-limit", 2.0))
            .unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.index_lookup(&tx, t, 0, &Value::Int(2)).unwrap().len(), 1);

        catalog(
            db.create_table("accounts", schema()).map(|_| ()),
            "duplicate name",
        );
        for i in 1..MAX_TABLES {
            db.create_table(&format!("t{i}"), schema()).unwrap();
        }
        catalog(
            db.create_table("one-too-many", schema()).map(|_| ()),
            "table past the limit",
        );
        assert_eq!(db.table_count(), MAX_TABLES, "{mode}");
    }
    let _ = std::fs::remove_file(&image);
}

#[test]
fn multi_table_transactions() {
    for config in all_configs() {
        let mode = config.mode_name();
        let mut db = Database::create(config).unwrap();
        let a = db.create_table("a", schema()).unwrap();
        let b = db.create_table("b", schema()).unwrap();
        let mut tx = db.begin();
        db.insert(&mut tx, a, &row(1, "in-a", 0.0)).unwrap();
        db.insert(&mut tx, b, &row(2, "in-b", 0.0)).unwrap();
        db.commit(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, a).unwrap().len(), 1, "{mode}");
        assert_eq!(db.scan_all(&tx, b).unwrap().len(), 1, "{mode}");

        // A multi-table abort rolls back both.
        let mut tx = db.begin();
        db.insert(&mut tx, a, &row(3, "x", 0.0)).unwrap();
        db.insert(&mut tx, b, &row(4, "y", 0.0)).unwrap();
        db.abort(&mut tx).unwrap();
        let tx = db.begin();
        assert_eq!(db.scan_all(&tx, a).unwrap().len(), 1, "{mode}");
        assert_eq!(db.scan_all(&tx, b).unwrap().len(), 1, "{mode}");
    }
}

#[test]
fn nvm_flush_accounting_visible() {
    let (mut db, t) = setup(DurabilityConfig::nvm_default());
    let before = db.nvm_stats();
    let mut tx = db.begin();
    db.insert(&mut tx, t, &row(1, "f", 0.0)).unwrap();
    db.commit(&mut tx).unwrap();
    let after = db.nvm_stats();
    let delta = after.since(&before);
    assert!(delta.flush_calls > 0, "inserts must flush");
    assert!(delta.fences > 0, "commits must fence");
    assert!(db.simulated_ns() > 0, "latency ledger charged");
}

#[test]
fn wal_group_commit_batches_syncs() {
    let mut cfg = hyrise_nv::WalConfig::temp();
    cfg.sync_every_n_commits = 8;
    let mut db = Database::create(DurabilityConfig::Wal(cfg)).unwrap();
    let t = db.create_table("t", schema()).unwrap();
    let s0 = db.wal_stats().syncs;
    for i in 0..16i64 {
        let mut tx = db.begin();
        db.insert(&mut tx, t, &row(i, "g", 0.0)).unwrap();
        db.commit(&mut tx).unwrap();
    }
    let s1 = db.wal_stats().syncs;
    assert_eq!(s1 - s0, 2, "16 commits / window 8 = 2 syncs");
}
