//! Workload-level integration: YCSB and TPC-C generators driven through
//! the engine, with invariants checked across backends and restarts.

use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId};
use storage::Value;
use workload::{Op, TpccGenerator, TpccTables, TpccTxn, YcsbConfig, YcsbGenerator, YcsbMix};

fn ycsb_db(config: DurabilityConfig, records: u64) -> (Database, TableId, YcsbGenerator) {
    let mut db = Database::create(config).unwrap();
    let t = db
        .create_table("usertable", YcsbGenerator::schema())
        .unwrap();
    db.create_index(t, 0, IndexKind::Hash).unwrap();
    db.create_index(t, 0, IndexKind::Ordered).unwrap();
    let cfg = YcsbConfig {
        record_count: records,
        mix: YcsbMix::A,
        zipf_theta: Some(0.9),
        value_len: 16,
        seed: 7,
    };
    let generator = YcsbGenerator::new(cfg);
    let rows: Vec<_> = generator.load_rows().collect();
    for chunk in rows.chunks(128) {
        let mut tx = db.begin();
        for row in chunk {
            db.insert(&mut tx, t, row).unwrap();
        }
        db.commit(&mut tx).unwrap();
    }
    (db, t, generator)
}

fn apply_op(db: &mut Database, t: TableId, op: &Op) {
    match op {
        Op::Read { key } => {
            let tx = db.begin();
            let _ = db.index_lookup(&tx, t, 0, &Value::Int(*key)).unwrap();
        }
        Op::Update { key, value } => {
            let mut tx = db.begin();
            let hits = db.index_lookup(&tx, t, 0, &Value::Int(*key)).unwrap();
            if let Some(hit) = hits.first() {
                let row = hit.row;
                db.update(
                    &mut tx,
                    t,
                    row,
                    &[Value::Int(*key), Value::Text(value.clone())],
                )
                .unwrap();
                db.commit(&mut tx).unwrap();
            } else {
                db.abort(&mut tx).unwrap();
            }
        }
        Op::Insert { key, value } => {
            let mut tx = db.begin();
            db.insert(&mut tx, t, &[Value::Int(*key), Value::Text(value.clone())])
                .unwrap();
            db.commit(&mut tx).unwrap();
        }
        Op::Scan { key, len } => {
            let tx = db.begin();
            let hi = Value::Int(key + *len as i64);
            let _ = db
                .index_range_lookup(&tx, t, 0, Some(&Value::Int(*key)), Some(&hi))
                .unwrap();
        }
    }
}

#[test]
fn ycsb_mixed_run_keeps_unique_visible_keys() {
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
        DurabilityConfig::Volatile,
    ] {
        let mode = config.mode_name();
        let (mut db, t, mut generator) = ycsb_db(config, 500);
        for op in generator.ops(1500) {
            apply_op(&mut db, t, &op);
        }
        // Every visible key appears exactly once (updates never fork).
        let tx = db.begin();
        let all = db.scan_all(&tx, t).unwrap();
        let mut keys: Vec<i64> = all.iter().map(|r| r.values[0].as_int().unwrap()).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "{mode}: duplicate visible keys");
    }
}

/// Everything a reader can observe of the YCSB table: the visible rows,
/// every point lookup, a few fixed range lookups and the key sum.
type ReadState = (
    Vec<(i64, String)>,
    Vec<Vec<Vec<Value>>>,
    Vec<Vec<Vec<Value>>>,
    Vec<hyrise_nv::AggRow>,
);

fn read_state(db: &mut Database, t: TableId, max_key: i64) -> ReadState {
    let values = |hits: Vec<storage::ScanResult>| {
        let mut v: Vec<Vec<Value>> = hits.into_iter().map(|r| r.values).collect();
        v.sort();
        v
    };
    let tx = db.begin();
    let mut rows: Vec<(i64, String)> = db
        .scan_all(&tx, t)
        .unwrap()
        .into_iter()
        .map(|r| {
            (
                r.values[0].as_int().unwrap(),
                r.values[1].as_text().unwrap().to_owned(),
            )
        })
        .collect();
    rows.sort();
    let points = (-1..=max_key)
        .map(|k| values(db.index_lookup(&tx, t, 0, &Value::Int(k)).unwrap()))
        .collect();
    let ranges = [(0, 10), (95, 160), (290, 310), (-5, 0)]
        .iter()
        .map(|(lo, hi)| {
            let (lo, hi) = (Value::Int(*lo), Value::Int(*hi));
            values(
                db.index_range_lookup(&tx, t, 0, Some(&lo), Some(&hi))
                    .unwrap(),
            )
        })
        .collect();
    let sum = db.aggregate(&tx, t, 0, hyrise_nv::Agg::Sum, None).unwrap();
    (rows, points, ranges, sum)
}

#[test]
fn ycsb_state_identical_across_backends() {
    // The same deterministic op stream, with one aborted transaction in
    // the middle, must produce identical reads on every backend.
    let image = std::env::temp_dir().join(format!("ycsb-xbackend-{}.img", std::process::id()));
    let mut states = Vec::new();
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::nvm_file(&image, 64 << 20, nvm::LatencyModel::zero()),
        DurabilityConfig::wal_temp(),
        DurabilityConfig::Volatile,
    ] {
        let mode = config.mode_name();
        let (mut db, t, mut generator) = ycsb_db(config, 300);
        for (i, op) in generator.ops(800).into_iter().enumerate() {
            if i == 400 {
                let mut tx = db.begin();
                let hit = db.index_lookup(&tx, t, 0, &Value::Int(7)).unwrap();
                db.update(&mut tx, t, hit[0].row, &[Value::Int(7), "aborted".into()])
                    .unwrap();
                db.insert(&mut tx, t, &[Value::Int(-1), "aborted".into()])
                    .unwrap();
                db.abort(&mut tx).unwrap();
            }
            apply_op(&mut db, t, &op);
        }
        states.push((mode, read_state(&mut db, t, 300)));
    }
    let _ = std::fs::remove_file(&image);
    let (_, reference) = &states[0];
    assert!(reference.0.iter().all(|(_, v)| v != "aborted"));
    for (mode, state) in &states[1..] {
        assert_eq!(state.0, reference.0, "{mode}: scan_all differs from nvm");
        assert_eq!(
            state.1, reference.1,
            "{mode}: index_lookup differs from nvm"
        );
        assert_eq!(
            state.2, reference.2,
            "{mode}: range lookup differs from nvm"
        );
        assert_eq!(state.3, reference.3, "{mode}: aggregate differs from nvm");
    }
}

#[test]
fn ycsb_run_survives_restart_on_durable_backends() {
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
    ] {
        let mode = config.mode_name();
        let (mut db, t, mut generator) = ycsb_db(config, 400);
        for op in generator.ops(1000) {
            apply_op(&mut db, t, &op);
        }
        let tx = db.begin();
        let mut before: Vec<(i64, String)> = db
            .scan_all(&tx, t)
            .unwrap()
            .into_iter()
            .map(|r| {
                (
                    r.values[0].as_int().unwrap(),
                    r.values[1].as_text().unwrap().to_owned(),
                )
            })
            .collect();
        before.sort();
        db.restart_after_crash().unwrap();
        let tx = db.begin();
        let mut after: Vec<(i64, String)> = db
            .scan_all(&tx, t)
            .unwrap()
            .into_iter()
            .map(|r| {
                (
                    r.values[0].as_int().unwrap(),
                    r.values[1].as_text().unwrap().to_owned(),
                )
            })
            .collect();
        after.sort();
        assert_eq!(before, after, "{mode}");
    }
}

// --- TPC-C-flavoured ---

struct Shop {
    warehouse: TableId,
    district: TableId,
    customer: TableId,
    orders: TableId,
    next_o_key: i64,
}

fn tpcc_db(config: DurabilityConfig, warehouses: i64) -> (Database, Shop, TpccGenerator) {
    let mut db = Database::create(config).unwrap();
    let schemas = TpccTables::new();
    let shop = Shop {
        warehouse: db.create_table("warehouse", schemas.warehouse).unwrap(),
        district: db.create_table("district", schemas.district).unwrap(),
        customer: db.create_table("customer", schemas.customer).unwrap(),
        orders: db.create_table("orders", schemas.orders).unwrap(),
        next_o_key: 0,
    };
    for (t, c) in [
        (shop.warehouse, 0),
        (shop.district, 0),
        (shop.customer, 0),
        (shop.orders, 1),
    ] {
        db.create_index(t, c, IndexKind::Hash).unwrap();
    }
    let generator = TpccGenerator::new(warehouses, 11);
    let (ws, ds, cs) = generator.load_rows();
    for (t, rows) in [
        (shop.warehouse, ws),
        (shop.district, ds),
        (shop.customer, cs),
    ] {
        let mut tx = db.begin();
        for row in rows {
            db.insert(&mut tx, t, &row).unwrap();
        }
        db.commit(&mut tx).unwrap();
    }
    (db, shop, generator)
}

fn run_tpcc(db: &mut Database, shop: &mut Shop, txn: &TpccTxn) -> bool {
    let mut tx = db.begin();
    let ok: hyrise_nv::Result<()> = (|| {
        match txn {
            TpccTxn::NewOrder {
                d_key,
                c_key,
                amount,
            } => {
                let d = db.index_lookup(&tx, shop.district, 0, &Value::Int(*d_key))?[0].clone();
                let mut dv = d.values.clone();
                dv[2] = Value::Int(dv[2].as_int().unwrap() + 1);
                db.update(&mut tx, shop.district, d.row, &dv)?;
                let o = shop.next_o_key;
                shop.next_o_key += 1;
                db.insert(
                    &mut tx,
                    shop.orders,
                    &[
                        Value::Int(o),
                        Value::Int(*d_key),
                        Value::Int(*c_key),
                        Value::Double(*amount),
                    ],
                )?;
            }
            TpccTxn::Payment {
                w_id,
                d_key,
                c_key,
                amount,
            } => {
                for (t, key, col, sign) in [
                    (shop.warehouse, *w_id, 2usize, 1.0),
                    (shop.district, *d_key, 3, 1.0),
                    (shop.customer, *c_key, 3, -1.0),
                ] {
                    let hit = db.index_lookup(&tx, t, 0, &Value::Int(key))?[0].clone();
                    let mut v = hit.values.clone();
                    v[col] = Value::Double(v[col].as_double().unwrap() + sign * amount);
                    db.update(&mut tx, t, hit.row, &v)?;
                }
            }
            TpccTxn::OrderStatus { c_key } => {
                let _ = db.index_lookup(&tx, shop.customer, 0, &Value::Int(*c_key))?;
            }
        }
        Ok(())
    })();
    match ok {
        Ok(()) => {
            db.commit(&mut tx).unwrap();
            true
        }
        Err(e) if hyrise_nv::is_conflict(&e) => {
            db.abort(&mut tx).unwrap();
            false
        }
        Err(e) => panic!("tpcc txn failed: {e}"),
    }
}

/// Money conservation: sum(warehouse.ytd) == sum of all committed payment
/// amounts == initial customer balance total - current total.
fn check_money_invariant(db: &mut Database, shop: &Shop, initial_balance_total: f64) {
    let tx = db.begin();
    let w_ytd: f64 = db
        .scan_all(&tx, shop.warehouse)
        .unwrap()
        .iter()
        .map(|r| r.values[2].as_double().unwrap())
        .sum();
    let c_bal: f64 = db
        .scan_all(&tx, shop.customer)
        .unwrap()
        .iter()
        .map(|r| r.values[3].as_double().unwrap())
        .sum();
    assert!(
        (initial_balance_total - c_bal - w_ytd).abs() < 1e-6,
        "money leaked: initial {initial_balance_total}, customers {c_bal}, warehouses {w_ytd}"
    );
}

#[test]
fn tpcc_money_conserved_across_crash() {
    for config in [
        DurabilityConfig::nvm_default(),
        DurabilityConfig::wal_temp(),
    ] {
        let (mut db, mut shop, mut generator) = tpcc_db(config, 2);
        let initial: f64 = 2.0 * 10.0 * 30.0 * 1000.0;
        for txn in generator.txns(400) {
            run_tpcc(&mut db, &mut shop, &txn);
        }
        check_money_invariant(&mut db, &shop, initial);
        db.restart_after_crash().unwrap();
        check_money_invariant(&mut db, &shop, initial);
        // Keep going after the restart.
        for txn in generator.txns(100) {
            run_tpcc(&mut db, &mut shop, &txn);
        }
        check_money_invariant(&mut db, &shop, initial);
    }
}

#[test]
fn tpcc_order_counts_match_district_sequence() {
    let (mut db, mut shop, mut generator) = tpcc_db(DurabilityConfig::nvm_default(), 1);
    let mut new_orders = 0u64;
    for txn in generator.txns(300) {
        if matches!(txn, TpccTxn::NewOrder { .. }) && run_tpcc(&mut db, &mut shop, &txn) {
            new_orders += 1;
        } else if !matches!(txn, TpccTxn::NewOrder { .. }) {
            run_tpcc(&mut db, &mut shop, &txn);
        }
    }
    let tx = db.begin();
    let order_rows = db.scan_all(&tx, shop.orders).unwrap().len() as u64;
    assert_eq!(order_rows, new_orders);
    // Sum of (next_o_id - 1) across districts equals committed NewOrders.
    let district_total: i64 = db
        .scan_all(&tx, shop.district)
        .unwrap()
        .iter()
        .map(|r| r.values[2].as_int().unwrap() - 1)
        .sum();
    assert_eq!(district_total as u64, new_orders);
}

#[test]
fn tpcc_merge_mid_run_is_transparent() {
    let (mut db, mut shop, mut generator) = tpcc_db(DurabilityConfig::nvm_default(), 1);
    let initial: f64 = 1.0 * 10.0 * 30.0 * 1000.0;
    for txn in generator.txns(150) {
        run_tpcc(&mut db, &mut shop, &txn);
    }
    for t in [shop.warehouse, shop.district, shop.customer, shop.orders] {
        db.merge(t).unwrap();
    }
    check_money_invariant(&mut db, &shop, initial);
    for txn in generator.txns(150) {
        run_tpcc(&mut db, &mut shop, &txn);
    }
    check_money_invariant(&mut db, &shop, initial);
}
