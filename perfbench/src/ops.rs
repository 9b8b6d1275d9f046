//! The operations the workloads share: the two single-key operations, each
//! in its own transaction and checked against the caller's expectation,
//! and a checked merge.

use std::time::Instant;

use hyrise_nv::{Database, TableId};
use storage::Value;

use crate::image;
use crate::trace::{Kind, MergeNote, Rec};

/// One verified point read of `key` in its own read-only transaction.
/// True when exactly one row comes back and it equals `(key, expected)`.
pub fn verified_read<R: Rec>(
    rec: &mut R,
    db: &mut Database,
    table: TableId,
    key: i64,
    expected: &str,
) -> bool {
    let tx = rec.call(Kind::Begin, || db.begin());
    let rows = rec.call(Kind::IndexLookup, || {
        db.index_lookup(&tx, table, 0, &Value::Int(key))
    });
    match rows {
        Ok(rows) => {
            rows.len() == 1
                && rows[0].values.len() == 2
                && rows[0].values[0] == Value::Int(key)
                && matches!(&rows[0].values[1], Value::Text(s) if s == expected)
        }
        Err(_) => false,
    }
}

/// Update `key` to `value` in its own transaction: look the key up, check
/// that exactly one version is visible, replace it and commit.
pub fn update<R: Rec>(
    rec: &mut R,
    db: &mut Database,
    table: TableId,
    key: i64,
    value: &str,
) -> bool {
    let mut tx = rec.call(Kind::Begin, || db.begin());
    let rows = rec.call(Kind::IndexLookup, || {
        db.index_lookup(&tx, table, 0, &Value::Int(key))
    });
    let row = match rows {
        Ok(rows) if rows.len() == 1 => rows[0].row,
        _ => return false,
    };
    let new = image::row(key, value.to_owned());
    let committed = rec
        .call(Kind::Update, || db.update(&mut tx, table, row, &new))
        .and_then(|_| rec.call(Kind::Commit, || db.commit(&mut tx)));
    if committed.is_err() {
        let _ = db.abort(&mut tx);
    }
    committed.is_ok()
}

/// Merge `table`, which holds `live_rows` live keys, as one operation.
/// True when the merge kept exactly one version of every key.
pub fn merge<R: Rec>(rec: &mut R, db: &mut Database, table: TableId, live_rows: u64) -> bool {
    let Ok(rows) = db.row_count(table) else {
        return false;
    };
    let t0 = Instant::now();
    let merged = rec.op(Kind::MergeOp, |rec| {
        rec.call(Kind::Merge, || db.merge(table))
    });
    let ms = t0.elapsed().as_nanos() as f64 / 1e6;
    match merged {
        Ok(m) => {
            rec.merged(MergeNote {
                ms,
                rows_before: m.rows_before,
                versions_per_key: rows as f64 / live_rows as f64,
            });
            m.rows_merged == live_rows
        }
        Err(_) => false,
    }
}
