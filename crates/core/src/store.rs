//! The one seam between the [`Database`](crate::Database) façade and its
//! durability backends.
//!
//! The façade implements every public operation once — table checks,
//! admission control, the error epilogue, MVCC filtering of index hits, the
//! post-recovery epilogue — and reaches storage only through [`Store`]. A
//! backend supplies two things: its table and index set, and the
//! durability hooks around each write, commit, checkpoint and restart
//! (DESIGN.md, "One façade, one seam", lists which backend does what).

use nvm::CrashPolicy;
use storage::{MergeStats, RowId, Schema, TableStore, Value};
use txn::{Transaction, TxnManager};

use crate::backend_nv::NvBackend;
use crate::config::IndexKind;
use crate::error::{EngineError, Result};
use crate::report::{IntegrityReport, RecoveryReport};

/// What an index lookup asks for.
pub(crate) enum Probe<'a> {
    /// Rows whose key equals the value.
    Eq(&'a Value),
    /// Rows with `lo <= key < hi` (ordered indexes only).
    Range(Option<&'a Value>, Option<&'a Value>),
}

/// A durability backend as the façade sees it. Table ids are positions in
/// [`Store::names`]; the façade checks them before calling a hook.
pub(crate) trait Store {
    // -- table and index set ------------------------------------------

    /// Table names in id order.
    fn names(&self) -> &[String];

    /// Table `t`, or the typed unknown-table error.
    fn table(&self, t: usize) -> Result<&dyn TableStore>;

    /// Number of indexes on table `t`.
    fn index_count(&self, t: usize) -> usize;

    /// Table `t` plus, when one of its indexes on `column` serves `probe`,
    /// the candidate rows (unfiltered: hash candidates may collide and no
    /// MVCC check has run). `None` means "no index — scan".
    fn probe(
        &self,
        t: usize,
        column: usize,
        probe: Probe<'_>,
    ) -> Result<(&dyn TableStore, Option<Vec<RowId>>)>;

    /// Create (and durably register) a table. The façade has already
    /// checked the name and the table limit.
    fn create_table(&mut self, name: &str, schema: Schema, last_cts: u64) -> Result<usize>;

    /// Create (and durably register) an index populated from the table's
    /// rows. The façade has already checked the column and the limit.
    fn create_index(&mut self, t: usize, column: usize, kind: IndexKind) -> Result<()>;

    /// Merge table `t`'s delta into its main and rebuild its indexes.
    fn merge(&mut self, t: usize, snapshot: u64) -> Result<MergeStats>;

    // -- durability hooks ---------------------------------------------

    /// Insert a pending row version for `tx`, indexed and logged. On
    /// error nothing of the version stays live.
    fn insert(&mut self, tx: &Transaction, t: usize, values: &[Value]) -> Result<RowId>;

    /// Place `tx`'s end marker on a visible row, logged. On error the row
    /// is left as it was.
    fn invalidate(&mut self, tx: &Transaction, t: usize, row: RowId) -> Result<()>;

    /// Stamp `tx`'s writes and durably publish the commit.
    fn commit(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<u64>;

    /// Roll back `tx`'s markers (also after a failed commit publish).
    fn abort(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<()>;

    /// Write a checkpoint; returns bytes written (0 where the backend has
    /// nothing to checkpoint).
    fn checkpoint(&mut self, _last_cts: u64) -> Result<u64> {
        Ok(0)
    }

    /// Simulate a power failure under `policy` and recover in place,
    /// filling the backend's phases, counters and `last_cts` into
    /// `report`. On error the pre-crash backend may be left behind.
    fn restart(&mut self, policy: CrashPolicy, report: &mut RecoveryReport) -> Result<()>;

    /// Backend-specific integrity checks on top of the façade's per-table
    /// MVCC check.
    fn check_integrity(&self, _rep: &mut IntegrityReport) -> Result<()> {
        Ok(())
    }

    // -- observation --------------------------------------------------

    /// Simulated nanoseconds charged by persistence primitives or syncs.
    fn simulated_ns(&self) -> u64 {
        0
    }

    /// Counters of the backend's log, if it has one.
    fn wal_stats(&self) -> wal::WalStats {
        wal::WalStats::default()
    }

    /// The NVM backend behind this store, if it is one.
    fn as_nv(&self) -> Option<&NvBackend> {
        None
    }

    /// Mutable [`Store::as_nv`].
    fn as_nv_mut(&mut self) -> Option<&mut NvBackend> {
        None
    }
}

/// The typed error for a table id no backend knows.
pub(crate) fn unknown_table(t: usize) -> EngineError {
    EngineError::Catalog(format!("unknown table id {t}"))
}
