//! Simple analytical operators over visible rows: aggregation with
//! optional grouping.
//!
//! Hyrise is an analytical columnar engine; the read side of its workloads
//! is scans + aggregations over the dictionary-encoded columns. These
//! operators run over any backend and respect MVCC visibility like the
//! scans they build on.

use std::collections::BTreeMap;

use storage::Value;
use txn::Transaction;

use crate::db::{Database, TableId};
use crate::error::{EngineError, Result};

/// Aggregate function selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Agg {
    /// Number of visible rows.
    Count,
    /// Sum of a numeric column (Int → Int, Double → Double).
    Sum,
    /// Minimum value (any type, total order).
    Min,
    /// Maximum value.
    Max,
    /// Arithmetic mean of a numeric column (always Double).
    Avg,
}

/// One result group: the grouping key (`None` for a global aggregate) and
/// the aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct AggRow {
    /// Group key, when grouping.
    pub group: Option<Value>,
    /// Aggregate result. `None` for min/max/avg over an empty input.
    pub value: Option<Value>,
}

#[derive(Debug, Default)]
struct Accumulator {
    count: u64,
    sum_i: i64,
    sum_f: f64,
    min: Option<Value>,
    max: Option<Value>,
    any_double: bool,
}

impl Accumulator {
    fn feed(&mut self, v: &Value) {
        self.count += 1;
        match v {
            Value::Int(i) => {
                self.sum_i = self.sum_i.wrapping_add(*i);
                self.sum_f += *i as f64;
            }
            Value::Double(d) => {
                self.sum_f += d;
                self.any_double = true;
            }
            Value::Text(_) => {}
        }
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
    }

    fn finish(&self, agg: Agg) -> Option<Value> {
        match agg {
            Agg::Count => Some(Value::Int(self.count as i64)),
            Agg::Sum => Some(if self.any_double {
                Value::Double(self.sum_f)
            } else {
                Value::Int(self.sum_i)
            }),
            Agg::Min => self.min.clone(),
            Agg::Max => self.max.clone(),
            Agg::Avg => {
                if self.count == 0 {
                    None
                } else {
                    Some(Value::Double(self.sum_f / self.count as f64))
                }
            }
        }
    }
}

impl Database {
    /// Aggregate `column` over the rows visible to `tx`, optionally grouped
    /// by `group_by`. Results come back sorted by group key.
    ///
    /// `Sum`/`Avg` require a numeric column; `Count`/`Min`/`Max` work on
    /// any type.
    pub fn aggregate(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        agg: Agg,
        group_by: Option<usize>,
    ) -> Result<Vec<AggRow>> {
        let store = self.check_table(table)?;
        let schema = store.schema();
        let dtype = schema.column(column)?.dtype;
        if matches!(agg, Agg::Sum | Agg::Avg) && dtype == storage::DataType::Text {
            return Err(EngineError::Catalog(format!(
                "cannot {agg:?} over text column {column}"
            )));
        }
        if let Some(g) = group_by {
            schema.column(g)?;
        }

        let rows = store.scan_visible(tx.snapshot, tx.tid)?;
        if let Some(g) = group_by {
            let mut groups: BTreeMap<Value, Accumulator> = BTreeMap::new();
            for row in rows {
                let key = store.value(row, g)?;
                let v = store.value(row, column)?;
                groups.entry(key).or_default().feed(&v);
            }
            Ok(groups
                .into_iter()
                .map(|(k, acc)| AggRow {
                    group: Some(k),
                    value: acc.finish(agg),
                })
                .collect())
        } else {
            let mut acc = Accumulator::default();
            for row in rows {
                let v = store.value(row, column)?;
                acc.feed(&v);
            }
            Ok(vec![AggRow {
                group: None,
                value: acc.finish(agg),
            }])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityConfig;
    use storage::{ColumnDef, DataType, Schema};

    fn db_with_data() -> (Database, TableId) {
        let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
        let t = db
            .create_table(
                "sales",
                Schema::new(vec![
                    ColumnDef::new("region", DataType::Text),
                    ColumnDef::new("amount", DataType::Int),
                    ColumnDef::new("rate", DataType::Double),
                ]),
            )
            .unwrap();
        let mut tx = db.begin();
        for (region, amount, rate) in [
            ("east", 10, 0.5),
            ("west", 20, 1.5),
            ("east", 30, 2.5),
            ("west", 40, 3.5),
            ("north", 5, 0.25),
        ] {
            db.insert(
                &mut tx,
                t,
                &[region.into(), Value::Int(amount), Value::Double(rate)],
            )
            .unwrap();
        }
        db.commit(&mut tx).unwrap();
        (db, t)
    }

    #[test]
    fn global_aggregates() {
        let (mut db, t) = db_with_data();
        let tx = db.begin();
        let count = db.aggregate(&tx, t, 1, Agg::Count, None).unwrap();
        assert_eq!(count[0].value, Some(Value::Int(5)));
        let sum = db.aggregate(&tx, t, 1, Agg::Sum, None).unwrap();
        assert_eq!(sum[0].value, Some(Value::Int(105)));
        let min = db.aggregate(&tx, t, 1, Agg::Min, None).unwrap();
        assert_eq!(min[0].value, Some(Value::Int(5)));
        let max = db.aggregate(&tx, t, 0, Agg::Max, None).unwrap();
        assert_eq!(max[0].value, Some(Value::Text("west".into())));
        let avg = db.aggregate(&tx, t, 1, Agg::Avg, None).unwrap();
        assert_eq!(avg[0].value, Some(Value::Double(21.0)));
    }

    #[test]
    fn grouped_aggregates_sorted_by_key() {
        let (mut db, t) = db_with_data();
        let tx = db.begin();
        let rows = db.aggregate(&tx, t, 1, Agg::Sum, Some(0)).unwrap();
        assert_eq!(
            rows,
            vec![
                AggRow {
                    group: Some("east".into()),
                    value: Some(Value::Int(40))
                },
                AggRow {
                    group: Some("north".into()),
                    value: Some(Value::Int(5))
                },
                AggRow {
                    group: Some("west".into()),
                    value: Some(Value::Int(60))
                },
            ]
        );
    }

    #[test]
    fn aggregates_respect_visibility() {
        let (mut db, t) = db_with_data();
        // Uncommitted insert must not count for other transactions.
        let mut writer = db.begin();
        db.insert(
            &mut writer,
            t,
            &["east".into(), Value::Int(999), Value::Double(0.0)],
        )
        .unwrap();
        let reader = db.begin();
        let sum = db.aggregate(&reader, t, 1, Agg::Sum, None).unwrap();
        assert_eq!(sum[0].value, Some(Value::Int(105)));
        // ...but the writer sees its own row.
        let sum = db.aggregate(&writer, t, 1, Agg::Sum, None).unwrap();
        assert_eq!(sum[0].value, Some(Value::Int(1104)));
    }

    #[test]
    fn sum_over_text_rejected() {
        let (mut db, t) = db_with_data();
        let tx = db.begin();
        assert!(db.aggregate(&tx, t, 0, Agg::Sum, None).is_err());
        assert!(db.aggregate(&tx, t, 0, Agg::Avg, None).is_err());
        // Count over text is fine.
        assert!(db.aggregate(&tx, t, 0, Agg::Count, None).is_ok());
    }

    #[test]
    fn double_sums_promote() {
        let (mut db, t) = db_with_data();
        let tx = db.begin();
        let sum = db.aggregate(&tx, t, 2, Agg::Sum, None).unwrap();
        assert_eq!(sum[0].value, Some(Value::Double(8.25)));
    }

    #[test]
    fn aggregates_survive_restart() {
        let (mut db, t) = db_with_data();
        db.restart_after_crash().unwrap();
        let tx = db.begin();
        let rows = db.aggregate(&tx, t, 1, Agg::Sum, Some(0)).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].value, Some(Value::Int(60)));
    }
}
