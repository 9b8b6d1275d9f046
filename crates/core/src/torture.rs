//! Shared deterministic torture workload: the seeded transaction mix, the
//! commit-ledger oracle, and the four-invariant post-recovery check used by
//! every crash, recovery, fault and exhaustion torture suite, the
//! out-of-process kill(-9) harness (`torture_child` +
//! `tests/integration_real_crash.rs`), and the sim-vs-real conformance
//! pass. Suites with their own generators emit [`TortureTxn`]s and run
//! them through [`apply_workload`].
//!
//! Everything here is a pure function of the seed: the same seed produces
//! the same transactions, the same begin/commit sequence, and therefore the
//! same commit-timestamp ledger on every durability backend. That is what
//! lets a parent process reconstruct the oracle for a child it killed
//! without ever seeing the child's memory.

use std::collections::BTreeMap;

use storage::{ColumnDef, DataType, Schema, Value};
use util::rng::{Rng, SmallRng};

use crate::{Database, IndexKind, Result, TableId};

/// Key → version oracle of the committed state.
pub type Oracle = BTreeMap<i64, i64>;

/// One operation of a torture transaction.
#[derive(Debug, Clone)]
pub enum TortureOp {
    /// Insert `key` with version 0 (skipped if present).
    Insert {
        /// Row key.
        key: i64,
    },
    /// Bump `key` to `version` (skipped if absent).
    Update {
        /// Row key.
        key: i64,
        /// New version value.
        version: i64,
    },
    /// Remove `key` (skipped if absent).
    Delete {
        /// Row key.
        key: i64,
    },
}

/// One torture transaction: a short op list plus its commit/abort verdict.
#[derive(Debug, Clone)]
pub struct TortureTxn {
    /// Operations in order.
    pub ops: Vec<TortureOp>,
    /// True to commit, false to abort.
    pub commit: bool,
}

/// Deterministic workload for a case seed: a mix of multi-op transactions
/// over a wide key space, with aborts sprinkled in. The in-process crash
/// torture and the out-of-process kill harness share it, so repro seeds
/// transfer between the sim and real harnesses.
pub fn gen_workload(seed: u64) -> Vec<TortureTxn> {
    gen_workload_sized(seed, 10..26)
}

/// [`gen_workload`] with the transaction count drawn from `txns`.
pub fn gen_workload_sized(seed: u64, txns: std::ops::Range<usize>) -> Vec<TortureTxn> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ntxns = rng.gen_range_usize(txns.start, txns.end);
    (0..ntxns)
        .map(|_| {
            let nops = rng.gen_range_usize(1, 6);
            let ops = (0..nops)
                .map(|_| {
                    let key = rng.gen_range_i64(0, 1000);
                    match rng.gen_range_u64(0, 3) {
                        0 => TortureOp::Insert { key },
                        1 => TortureOp::Update {
                            key,
                            version: rng.next_u64() as i64 & 0xFFFF,
                        },
                        _ => TortureOp::Delete { key },
                    }
                })
                .collect();
            TortureTxn {
                ops,
                commit: rng.gen_bool(0.8),
            }
        })
        .collect()
}

/// The two-column `(k, ver)` schema every torture table uses.
pub fn schema() -> Schema {
    Schema::new(vec![
        ColumnDef::new("k", DataType::Int),
        ColumnDef::new("ver", DataType::Int),
    ])
}

/// Create the torture table plus its hash and ordered indexes on a fresh
/// database. Must be called in the same order on every backend so the
/// engines consume identical timestamp/heap sequences.
pub fn setup_tables(db: &mut Database) -> Result<TableId> {
    let t = db.create_table("t", schema())?;
    db.create_index(t, 0, IndexKind::Hash)?;
    db.create_index(t, 1, IndexKind::Ordered)?;
    Ok(t)
}

/// Run the workload, recording the `(cts, oracle)` ledger entry after every
/// commit. The optional `heartbeat` callback fires after each transaction
/// (commit or abort) with the transaction index and the last durable cts —
/// the child process uses it to emit progress lines the parent can pace
/// asynchronous kills against.
pub fn apply_workload(
    db: &mut Database,
    t: TableId,
    txns: &[TortureTxn],
    snaps: &mut Vec<(u64, Oracle)>,
    mut heartbeat: impl FnMut(usize, u64),
) -> Result<()> {
    let mut oracle = snaps.last().map(|(_, o)| o.clone()).unwrap_or_default();
    for (i, txn) in txns.iter().enumerate() {
        let mut shadow = oracle.clone();
        let mut tx = db.begin();
        for op in &txn.ops {
            match op {
                TortureOp::Insert { key } => {
                    if !shadow.contains_key(key) {
                        db.insert(&mut tx, t, &[Value::Int(*key), Value::Int(0)])?;
                        shadow.insert(*key, 0);
                    }
                }
                TortureOp::Update { key, version } => {
                    let hits = db.scan_eq(&tx, t, 0, &Value::Int(*key))?;
                    if let Some(hit) = hits.first() {
                        db.update(
                            &mut tx,
                            t,
                            hit.row,
                            &[Value::Int(*key), Value::Int(*version)],
                        )?;
                        shadow.insert(*key, *version);
                    }
                }
                TortureOp::Delete { key } => {
                    let hits = db.scan_eq(&tx, t, 0, &Value::Int(*key))?;
                    if let Some(hit) = hits.first() {
                        db.delete(&mut tx, t, hit.row)?;
                        shadow.remove(key);
                    }
                }
            }
        }
        if txn.commit {
            let cts = db.commit(&mut tx)?;
            oracle = shadow;
            snaps.push((cts, oracle.clone()));
        } else {
            db.abort(&mut tx)?;
        }
        let last = snaps.last().map(|(c, _)| *c).unwrap_or(0);
        heartbeat(i, last);
    }
    Ok(())
}

/// The committed load of the media-fault suites: 12 transactions of up to
/// 10 fresh random keys (`0..4000`, random versions), merged after the
/// seventh when `merge` is set — a checksummed main partition plus a live
/// delta for the fault injectors to aim at. Returns the committed oracle.
pub fn load_unique_keys(db: &mut Database, t: TableId, seed: u64, merge: bool) -> Result<Oracle> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut oracle = Oracle::new();
    for txn_i in 0..12 {
        let mut tx = db.begin();
        for _ in 0..10 {
            let key = rng.gen_range_i64(0, 4000);
            if oracle.contains_key(&key) {
                continue;
            }
            let ver = rng.next_u64() as i64 & 0xFFFF;
            db.insert(&mut tx, t, &[Value::Int(key), Value::Int(ver)])?;
            oracle.insert(key, ver);
        }
        db.commit(&mut tx)?;
        if merge && txn_i == 6 {
            db.merge(t)?;
        }
    }
    Ok(oracle)
}

/// Scan the engine's visible state into an oracle map.
pub fn engine_state(db: &mut Database, t: TableId) -> Result<Oracle> {
    let tx = db.begin();
    Ok(db
        .scan_all(&tx, t)?
        .into_iter()
        .filter_map(|r| Some((r.values[0].as_int()?, r.values[1].as_int()?)))
        .collect())
}

/// A scale knob read from the environment (`default` when unset or
/// unparsable), so CI can run a smoke while local runs go deeper.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// An invariant violation found by [`check_invariants`].
#[derive(Debug)]
pub struct TortureViolation {
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable diagnosis.
    pub detail: String,
}

/// Check the four crash-torture invariants against a recovered database:
/// committed-prefix durability, no uncommitted effects, allocator
/// leak-freedom, and index↔table agreement. `last_cts` is the watermark the
/// recovery reported; `snaps` is the seeded commit ledger (entry 0 is the
/// empty pre-workload state).
pub fn check_invariants(
    db: &mut Database,
    t: TableId,
    snaps: &[(u64, Oracle)],
    last_cts: u64,
    seed: u64,
) -> std::result::Result<(), TortureViolation> {
    let expected = snaps
        .iter()
        .rev()
        .find(|(cts, _)| *cts <= last_cts)
        .map(|(_, o)| o.clone())
        .ok_or_else(|| TortureViolation {
            invariant: "committed-prefix",
            detail: format!("seed {seed}: recovered last_cts {last_cts} matches no ledger entry"),
        })?;
    let got = engine_state(db, t).map_err(|e| TortureViolation {
        invariant: "committed-prefix",
        detail: format!("seed {seed}: post-recovery scan failed: {e}"),
    })?;
    if got != expected {
        let missing: Vec<_> = expected
            .iter()
            .filter(|(k, _)| !got.contains_key(*k))
            .collect();
        let extra: Vec<_> = got
            .iter()
            .filter(|(k, _)| !expected.contains_key(*k))
            .collect();
        let inv = if extra.is_empty() {
            "committed-prefix-durability"
        } else {
            "no-uncommitted-effects"
        };
        return Err(TortureViolation {
            invariant: inv,
            detail: format!(
                "seed {seed}: state diverges at last_cts {last_cts}: {} rows expected, {} \
                 visible; missing {missing:?}, extra {extra:?}",
                expected.len(),
                got.len()
            ),
        });
    }

    let integrity = db.verify_integrity().map_err(|e| TortureViolation {
        invariant: "integrity-check",
        detail: format!("seed {seed}: verify_integrity failed: {e}"),
    })?;
    if integrity.heap_limbo_blocks != 0 {
        return Err(TortureViolation {
            invariant: "allocator-leak-free",
            detail: format!("seed {seed}: {}", integrity.render()),
        });
    }
    if !integrity.mvcc.is_clean() {
        return Err(TortureViolation {
            invariant: "no-uncommitted-effects",
            detail: format!("seed {seed}: {}", integrity.render()),
        });
    }
    if !integrity.index.is_clean() {
        return Err(TortureViolation {
            invariant: "index-table-agreement",
            detail: format!("seed {seed}: {}", integrity.render()),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DurabilityConfig;

    #[test]
    fn workload_is_deterministic() {
        let a = gen_workload(42);
        let b = gen_workload(42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.commit, y.commit);
            assert_eq!(format!("{:?}", x.ops), format!("{:?}", y.ops));
        }
    }

    #[test]
    fn ledger_matches_engine_on_sim_backend() {
        let mut db = Database::create(DurabilityConfig::Nvm {
            capacity: 8 << 20,
            latency: nvm::LatencyModel::zero(),
        })
        .unwrap();
        let t = setup_tables(&mut db).unwrap();
        let txns = gen_workload(7);
        let mut snaps = vec![(0, Oracle::new())];
        apply_workload(&mut db, t, &txns, &mut snaps, |_, _| {}).unwrap();
        let last = snaps.last().unwrap();
        assert_eq!(engine_state(&mut db, t).unwrap(), last.1);
        check_invariants(&mut db, t, &snaps, last.0, 7).unwrap();
    }
}
