//! The `Database` façade: every public operation, implemented once over
//! the [`Store`] seam.

use std::sync::Arc;

use nvm::{CrashPoint, CrashPolicy};
use storage::{mvcc, MergeStats, RowId, ScanResult, Schema, TableStore, Value};
use txn::{Transaction, TxnManager};

use crate::backend_nv::NvBackend;
use crate::backend_vol::VolatileBackend;
use crate::backend_wal::WalBackend;
use crate::config::{DurabilityConfig, IndexKind};
use crate::error::{EngineError, Result};
use crate::health::{HealthReport, HealthState, HealthTracker, ReclaimReport, Watermarks};
use crate::recovery::MAX_TRANSIENT_RETRIES;
use crate::report::{IntegrityReport, RecoveryReport};
use crate::store::{Probe, Store};
use crate::{MAX_INDEXES_PER_TABLE, MAX_TABLES};

/// Handle to a table in the catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub usize);

/// Which health gate a mutating operation passes before it runs.
enum Admit {
    /// Row writes: rejected under backpressure and while read-only.
    Write,
    /// DDL: rejected while read-only.
    Ddl,
    /// Commits and merges: admitted in every health state.
    Always,
}

/// An embedded database instance over one durability backend.
///
/// The façade is single-threaded by design (one writer, as in the paper's
/// per-table delta append model); benchmark drivers issue transactions
/// back-to-back.
pub struct Database {
    store: Box<dyn Store>,
    mgr: TxnManager,
    config: DurabilityConfig,
    health: HealthTracker,
}

impl Database {
    /// Create a fresh database with the given durability configuration and
    /// the default degradation watermarks.
    pub fn create(config: DurabilityConfig) -> Result<Database> {
        Self::create_with_watermarks(config, Watermarks::default())
    }

    /// Create a fresh database with explicit degradation watermarks (see
    /// [`Watermarks`] for the state machine they steer). A file-backed
    /// config formats a fresh image on the file (truncating any previous
    /// database there); use [`Database::open`] to attach one.
    pub fn create_with_watermarks(config: DurabilityConfig, marks: Watermarks) -> Result<Database> {
        let store: Box<dyn Store> = match &config {
            DurabilityConfig::Nvm { capacity, latency }
            | DurabilityConfig::NvmWithWal {
                capacity, latency, ..
            } => Box::new(NvBackend::create(
                Arc::new(nvm::NvmRegion::new(*capacity, *latency)),
                config.shadow_wal().cloned(),
            )?),
            DurabilityConfig::NvmFile {
                path,
                capacity,
                latency,
                ..
            } => Box::new(NvBackend::create(
                Arc::new(nvm::NvmRegion::open_file(path, *capacity, *latency)?),
                config.shadow_wal().cloned(),
            )?),
            DurabilityConfig::Wal(cfg) => Box::new(WalBackend::create(cfg.clone())?),
            DurabilityConfig::Volatile => Box::new(VolatileBackend::default()),
        };
        Ok(Database {
            store,
            mgr: TxnManager::new(),
            config,
            health: HealthTracker::new(marks),
        })
    }

    /// Open an existing database from its durable medium and run the
    /// recovery ladder — the real-restart entry point: where
    /// [`Database::restart`] simulates a crash on a live instance, `open`
    /// starts from nothing but the bytes a previous process left behind.
    /// Currently meaningful for [`DurabilityConfig::NvmFile`], whose image
    /// survives actual process death.
    pub fn open(config: DurabilityConfig) -> Result<(Database, RecoveryReport)> {
        let DurabilityConfig::NvmFile {
            path,
            capacity,
            latency,
            ..
        } = &config
        else {
            return Err(EngineError::Catalog(
                "Database::open requires a file-backed durability config \
                 (DurabilityConfig::NvmFile)"
                    .into(),
            ));
        };
        let region = Arc::new(nvm::NvmRegion::open_file(path, *capacity, *latency)?);
        Self::open_region(region, config)
    }

    /// Open a database over a caller-built region (file-backed or
    /// simulated) holding an existing image. The out-of-process torture
    /// harness uses this to pre-arm kill points on the region before
    /// recovery runs over it.
    pub fn open_region(
        region: Arc<nvm::NvmRegion>,
        config: DurabilityConfig,
    ) -> Result<(Database, RecoveryReport)> {
        let mut report = RecoveryReport {
            mode: config.mode_name(),
            ..Default::default()
        };
        let store = NvBackend::recover(region, config.shadow_wal().cloned(), &mut report)?;
        let mut db = Database {
            store: Box::new(store),
            mgr: TxnManager::new(),
            config,
            health: HealthTracker::new(Watermarks::default()),
        };
        let report = db.recovered(report);
        Ok((db, report))
    }

    /// Gracefully shut down: flush the shadow log, durably set the
    /// clean-shutdown marker, and sync the whole mapping. The next
    /// [`Database::open`] of the image reports `clean_shutdown` and skips
    /// the mvcc undo pass. A no-op for non-NVM backends.
    pub fn shutdown(mut self) -> Result<()> {
        let Ok(b) = self.nv_mut() else {
            return Ok(());
        };
        let region = b.shutdown()?;
        drop(self);
        region.sync_all()?;
        match region.take_sync_error() {
            Some(e) => Err(EngineError::Nvm(e)),
            None => Ok(()),
        }
    }

    /// The NVM backend, or [`EngineError::Unsupported`] on the others —
    /// the one gate of all NVM-only instrumentation.
    fn nv(&self) -> Result<&NvBackend> {
        self.store
            .as_nv()
            .ok_or(EngineError::Unsupported("requires the NVM backend"))
    }

    /// Mutable [`Database::nv`].
    fn nv_mut(&mut self) -> Result<&mut NvBackend> {
        self.store
            .as_nv_mut()
            .ok_or(EngineError::Unsupported("requires the NVM backend"))
    }

    // ------------------------------------------------------------------
    // Health + admission control
    // ------------------------------------------------------------------

    /// Heap utilization (0.0 off the NVM backend).
    fn utilization(&self) -> f64 {
        self.nv().map_or(0.0, |b| b.heap().stats().utilization())
    }

    /// Feed the state machine a fresh heap observation (utilization plus
    /// shadow-log wedge state) and return the resulting state.
    fn refresh_health(&mut self) -> HealthState {
        let (utilization, wedged) = self.nv().map_or((0.0, false), |b| b.pressure());
        self.health.set_wal_wedged(wedged);
        self.health.observe(utilization)
    }

    /// The wrapper every mutating operation runs in: check the table, pass
    /// the health gate, run `op`, and hand its result to the error
    /// epilogue.
    fn mutate<T>(
        &mut self,
        table: Option<TableId>,
        admit: Admit,
        op: impl FnOnce(&mut dyn Store, &mut TxnManager) -> Result<T>,
    ) -> Result<T> {
        if let Some(table) = table {
            self.check_table(table)?;
        }
        match admit {
            Admit::Write => {
                self.refresh_health();
                self.health.admit_write()?;
            }
            Admit::Ddl => {
                self.refresh_health();
                self.health.admit_ddl()?;
            }
            Admit::Always => {}
        }
        let res = op(self.store.as_mut(), &mut self.mgr);
        self.after_write(res)
    }

    /// Error-path epilogue for every mutating operation: normalize
    /// out-of-space failures into the typed capacity error, sweep the
    /// reservations the failed protocol orphaned (restoring the
    /// four-invariant clean heap), and re-derive the health state.
    fn after_write<T>(&mut self, res: Result<T>) -> Result<T> {
        res.map_err(|e| {
            let e = e.normalize_capacity();
            if e.is_capacity() {
                self.health.note_capacity_abort();
                if let Ok(b) = self.nv() {
                    let _ = b.heap().reclaim_reserved();
                }
                self.refresh_health();
            }
            e
        })
    }

    /// Current degradation snapshot. Refreshes the state machine from the
    /// heap first, so the report never lags the allocator.
    pub fn health(&mut self) -> HealthReport {
        self.refresh_health();
        let (high_water, capacity, free_bytes) = self.nv().map_or((0, 0, 0), |b| {
            let s = b.heap().stats();
            (s.high_water, s.capacity, s.free_bytes)
        });
        self.health.report(high_water, capacity, free_bytes)
    }

    /// Emergency reclamation: recreate a wedged shadow log (and re-baseline
    /// its checkpoint), merge every table to retire dead versions, and
    /// sweep orphaned reservations. Requires quiesced tables — abort any
    /// in-flight transaction first. Allowed in every health state; this is
    /// the path *out* of `ReadOnly`.
    pub fn reclaim(&mut self) -> Result<ReclaimReport> {
        let mut rep = ReclaimReport {
            utilization_before: self.utilization(),
            ..Default::default()
        };
        let snapshot = self.mgr.last_committed();
        if let Ok(b) = self.nv_mut() {
            b.reclaim(snapshot, &mut rep)?;
        }
        self.health.note_reclaim();
        rep.state_after = self.refresh_health();
        rep.utilization_after = self.utilization();
        Ok(rep)
    }

    // ------------------------------------------------------------------
    // Exhaustion-fault instrumentation
    // ------------------------------------------------------------------

    /// Arm an out-of-space fault on the shadow log (NVM-with-WAL backend
    /// only).
    pub fn arm_wal_fault(&mut self, spec: wal::WalFaultSpec) -> Result<()> {
        self.nv_mut()?.arm_wal_fault(spec)
    }

    /// True while the shadow-WAL writer is wedged by an out-of-space
    /// failure (forces read-only mode until [`Database::reclaim`]).
    pub fn wal_wedged(&self) -> bool {
        self.nv().is_ok_and(|b| b.wal_wedged())
    }

    /// Arm an allocation fault on the NVM region (deterministic nth-attempt
    /// or probabilistic).
    pub fn arm_alloc_fault(&self, spec: nvm::AllocFaultSpec) -> Result<()> {
        self.nv()?.region().arm_alloc_fault(&spec);
        Ok(())
    }

    /// Clamp the heap's effective capacity to model a smaller device
    /// (`None` lifts the clamp).
    pub fn set_capacity_clamp(&self, clamp: Option<u64>) -> Result<()> {
        self.nv()?.region().set_capacity_clamp(clamp);
        Ok(())
    }

    /// Allocation attempts the region has observed — the sweep space of the
    /// nth-allocation fault harness. Zero off the NVM backend.
    pub fn alloc_attempts(&self) -> u64 {
        self.nv().map_or(0, |b| b.region().alloc_attempts())
    }

    /// Volatile heap statistics (NVM backend only).
    pub fn heap_stats(&self) -> Option<nvm::HeapStats> {
        self.nv().ok().map(|b| b.heap().stats())
    }

    /// The active durability mode ("nvm" / "wal" / "volatile").
    pub fn mode(&self) -> &'static str {
        self.config.mode_name()
    }

    /// Simulated nanoseconds charged so far (NVM flush/fence or WAL sync).
    pub fn simulated_ns(&self) -> u64 {
        self.store.simulated_ns()
    }

    /// NVM primitive counters (zeroes for other backends).
    pub fn nvm_stats(&self) -> nvm::StatsSnapshot {
        self.nv().map(|b| b.region().stats()).unwrap_or_default()
    }

    /// WAL activity counters: the baseline's log on the WAL backend, the
    /// shadow log on the NVM backend when one is configured, zeroes
    /// otherwise.
    pub fn wal_stats(&self) -> wal::WalStats {
        self.store.wal_stats()
    }

    /// The NVM backend, if active (advanced instrumentation).
    pub fn nv_backend(&self) -> Option<&NvBackend> {
        self.nv().ok()
    }

    /// The transaction manager's committed-state watermark.
    pub fn last_committed(&self) -> u64 {
        self.mgr.last_committed()
    }

    // ------------------------------------------------------------------
    // DDL
    // ------------------------------------------------------------------

    /// Create a table. Rejected while the engine is read-only, and with
    /// [`EngineError::Catalog`] for a duplicate name or past
    /// [`MAX_TABLES`](crate::MAX_TABLES) tables.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        let names = self.store.names();
        if names.len() >= MAX_TABLES {
            return Err(EngineError::Catalog(format!(
                "table limit {MAX_TABLES} reached"
            )));
        }
        if names.iter().any(|n| n == name) {
            return Err(EngineError::Catalog(format!(
                "duplicate table name {name:?}"
            )));
        }
        let last_cts = self.mgr.last_committed();
        self.mutate(None, Admit::Ddl, |store, _| {
            store.create_table(name, schema, last_cts)
        })
        .map(TableId)
    }

    /// Look up a table by name.
    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.store
            .names()
            .iter()
            .position(|n| n == name)
            .map(TableId)
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.store.names().len()
    }

    /// Create an index over `(table, column)`. Rejected while the engine
    /// is read-only, and with [`EngineError::Catalog`] for a column the
    /// table does not have or past
    /// [`MAX_INDEXES_PER_TABLE`](crate::MAX_INDEXES_PER_TABLE) indexes.
    pub fn create_index(&mut self, table: TableId, column: usize, kind: IndexKind) -> Result<()> {
        let columns = self.check_table(table)?.schema().len();
        if column >= columns {
            return Err(EngineError::Catalog(format!(
                "column {column} out of range: table {} has {columns} columns",
                table.0
            )));
        }
        if self.store.index_count(table.0) >= MAX_INDEXES_PER_TABLE {
            return Err(EngineError::Catalog(format!(
                "index limit {MAX_INDEXES_PER_TABLE} reached on table {}",
                table.0
            )));
        }
        self.mutate(None, Admit::Ddl, |store, _| {
            store.create_index(table.0, column, kind)
        })
    }

    /// The table behind `table`, or the typed unknown-table error (also
    /// the query operators' access to a table).
    pub(crate) fn check_table(&self, table: TableId) -> Result<&dyn TableStore> {
        self.store.table(table.0)
    }

    // ------------------------------------------------------------------
    // Transactions
    // ------------------------------------------------------------------

    /// Begin a transaction with a snapshot of the current committed state.
    pub fn begin(&mut self) -> Transaction {
        self.mgr.begin()
    }

    /// Insert a row. Rejected with a retryable typed error while the
    /// engine is degraded (see [`Database::health`]); an allocation failure
    /// mid-insert unwinds to a clean abort before the typed
    /// [`EngineError::CapacityExhausted`] surfaces.
    pub fn insert(
        &mut self,
        tx: &mut Transaction,
        table: TableId,
        values: &[Value],
    ) -> Result<RowId> {
        let row = self.mutate(Some(table), Admit::Write, |store, _| {
            store.insert(tx, table.0, values)
        })?;
        tx.record_insert(table.0, row);
        Ok(row)
    }

    /// Delete (invalidate) a visible row version. Fails with a write
    /// conflict if another transaction holds the row, and with a retryable
    /// typed error while the engine is degraded.
    pub fn delete(&mut self, tx: &mut Transaction, table: TableId, row: RowId) -> Result<()> {
        self.mutate(Some(table), Admit::Write, |store, _| {
            store.invalidate(tx, table.0, row)
        })?;
        tx.record_invalidate(table.0, row);
        Ok(())
    }

    /// Update a visible row version: invalidate + insert the new values.
    /// Returns the new version's row id.
    pub fn update(
        &mut self,
        tx: &mut Transaction,
        table: TableId,
        row: RowId,
        new_values: &[Value],
    ) -> Result<RowId> {
        self.delete(tx, table, row)?;
        self.insert(tx, table, new_values)
    }

    /// Commit: stamp every write with the next commit timestamp, durably
    /// publish it, advance the committed state.
    ///
    /// Commits are admitted in every health state — an in-flight
    /// transaction may always try to finish. A publish that hits the
    /// capacity wall surfaces as the typed
    /// [`EngineError::CapacityExhausted`] and leaves the transaction
    /// active: [`Database::abort`] then rolls the stamped markers back to a
    /// clean image.
    pub fn commit(&mut self, tx: &mut Transaction) -> Result<u64> {
        self.mutate(None, Admit::Always, |store, mgr| store.commit(mgr, tx))
    }

    /// Abort: roll back every pending marker. Also the unwind path after a
    /// failed commit publish — the stamps `commit` already applied are
    /// rolled back the same way as pending markers. Succeeds even while
    /// the shadow log is wedged: an absent abort record replays exactly
    /// like a missing commit, so nothing is lost by skipping the append.
    pub fn abort(&mut self, tx: &mut Transaction) -> Result<()> {
        self.store.abort(&mut self.mgr, tx)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn materialize(store: &dyn TableStore, rows: Vec<RowId>) -> Result<Vec<ScanResult>> {
        rows.into_iter()
            .map(|row| {
                Ok(ScanResult {
                    row,
                    values: store.row_values(row)?,
                })
            })
            .collect()
    }

    /// The candidates that are visible to `tx` (and, with `key`, whose
    /// `column` really holds it — hash candidates may collide).
    fn visible(
        store: &dyn TableStore,
        tx: &Transaction,
        candidates: Vec<RowId>,
        key: Option<(usize, &Value)>,
    ) -> Result<Vec<ScanResult>> {
        let mut out = Vec::new();
        for row in candidates {
            if let Some((column, value)) = key {
                if store.value(row, column)? != *value {
                    continue;
                }
            }
            let b = store.begin_ts(row)?;
            let e = store.end_ts(row)?;
            if mvcc::visible(b, e, tx.snapshot, tx.tid) {
                out.push(ScanResult {
                    row,
                    values: store.row_values(row)?,
                });
            }
        }
        Ok(out)
    }

    /// All rows visible to `tx`.
    // pmlint: read-path
    pub fn scan_all(&self, tx: &Transaction, table: TableId) -> Result<Vec<ScanResult>> {
        let store = self.check_table(table)?;
        Self::materialize(store, store.scan_visible(tx.snapshot, tx.tid)?)
    }

    /// Visible rows with `column == value` (full column scan through the
    /// dictionary; use [`Database::index_lookup`] when an index exists).
    // pmlint: read-path
    pub fn scan_eq(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        value: &Value,
    ) -> Result<Vec<ScanResult>> {
        let store = self.check_table(table)?;
        let rows = store.scan_eq(column, value, tx.snapshot, tx.tid)?;
        Self::materialize(store, rows)
    }

    /// Visible rows with `lo <= column < hi`.
    // pmlint: read-path
    pub fn scan_range(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<ScanResult>> {
        let store = self.check_table(table)?;
        let rows = store.scan_range(column, lo, hi, tx.snapshot, tx.tid)?;
        Self::materialize(store, rows)
    }

    /// Point lookup through an index on `(table, column)`; falls back to a
    /// dictionary scan when no index exists. Results are verified against
    /// the base table and MVCC-filtered.
    // pmlint: read-path
    pub fn index_lookup(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        value: &Value,
    ) -> Result<Vec<ScanResult>> {
        match self.store.probe(table.0, column, Probe::Eq(value))? {
            (store, Some(candidates)) => {
                Self::visible(store, tx, candidates, Some((column, value)))
            }
            (_, None) => self.scan_eq(tx, table, column, value),
        }
    }

    /// Range lookup through an ordered index; falls back to a scan.
    // pmlint: read-path
    pub fn index_range_lookup(
        &self,
        tx: &Transaction,
        table: TableId,
        column: usize,
        lo: Option<&Value>,
        hi: Option<&Value>,
    ) -> Result<Vec<ScanResult>> {
        match self.store.probe(table.0, column, Probe::Range(lo, hi))? {
            (store, Some(candidates)) => Self::visible(store, tx, candidates, None),
            (_, None) => self.scan_range(tx, table, column, lo, hi),
        }
    }

    /// Total physical rows (all versions) in a table.
    // pmlint: read-path
    pub fn row_count(&self, table: TableId) -> Result<u64> {
        Ok(self.check_table(table)?.row_count())
    }

    // ------------------------------------------------------------------
    // Maintenance
    // ------------------------------------------------------------------

    /// Merge a table's delta into its main. Requires a quiesced table (no
    /// in-flight transactions touching it). Merges are admitted in every
    /// health state — they are the cure, not the disease — but can
    /// themselves exhaust capacity.
    pub fn merge(&mut self, table: TableId) -> Result<MergeStats> {
        let snapshot = self.mgr.last_committed();
        self.mutate(Some(table), Admit::Always, |store, _| {
            store.merge(table.0, snapshot)
        })
    }

    /// Write a checkpoint (WAL backend only; no-ops elsewhere — NVM *is*
    /// its own checkpoint). Returns bytes written.
    pub fn checkpoint(&mut self) -> Result<u64> {
        self.store.checkpoint(self.mgr.last_committed())
    }

    // ------------------------------------------------------------------
    // Crash + restart
    // ------------------------------------------------------------------

    /// Simulate a power failure with all unflushed cache lines lost, then
    /// restart and recover. Returns the phase-timed report.
    pub fn restart_after_crash(&mut self) -> Result<RecoveryReport> {
        self.restart(CrashPolicy::DropUnflushed)
    }

    /// Simulate a power failure with the given crash policy, then restart.
    pub fn restart(&mut self, policy: CrashPolicy) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            mode: self.mode(),
            ..Default::default()
        };
        self.store.restart(policy, &mut report)?;
        Ok(self.recovered(report))
    }

    /// The post-recovery epilogue every restart path shares: resume the
    /// transaction manager at the recovered watermark and re-derive the
    /// volatile health machine from the recovered heap, exactly as a fresh
    /// process would.
    fn recovered(&mut self, mut report: RecoveryReport) -> RecoveryReport {
        self.mgr = TxnManager::recovered(report.last_cts);
        self.health.reset();
        report.health = self.refresh_health();
        report.utilization = self.utilization();
        report
    }

    /// Materialize a crash point armed on the NVM region (see
    /// [`nvm::NvmRegion::arm_crash`]) and recover from the surviving
    /// image. The whole recovery runs under the persist-trace linter:
    /// any byte it reads whose last store never reached the medium is a
    /// missing-flush bug, reported in the returned report's
    /// `lint_findings`. The trace is closed afterwards, restoring the
    /// default synchronous persistence semantics.
    pub fn restart_scheduled(&mut self) -> Result<RecoveryReport> {
        self.scheduled_restart(None)
    }

    /// Like [`Database::restart_scheduled`], but keeps the persist trace
    /// armed *across* the recovery: the pending crash is materialized,
    /// the recorder is re-armed with `next` — a crash point inside the
    /// upcoming recovery, its fence numbers relative to the recovery's
    /// own persistence stream — and recovery runs. The trace stays
    /// active afterwards, so nested-crash chains compose: each call
    /// models one power-cycle, the next call materializes `next`
    /// (crash-at-end of recovery if it never tripped), and a final
    /// [`Database::restart_scheduled`] terminates the chain, linting the
    /// last recovery and closing the trace.
    ///
    /// Pass `None` to record the recovery without scheduling a trip
    /// (useful as a reference run: `region.trace_fences()` afterwards is
    /// the recovery's own fence count, the sampling domain for nested
    /// points).
    ///
    /// If the recovery attempt fails (e.g. a composed allocation fault),
    /// the error is returned with the trace still active and the stale
    /// backend still in place — calling the method again models the next
    /// power-cycle retrying recovery.
    pub fn restart_scheduled_traced(&mut self, next: Option<CrashPoint>) -> Result<RecoveryReport> {
        self.scheduled_restart(Some(next))
    }

    /// The one body of both scheduled restarts (`rearm` as in
    /// [`NvBackend::restart_scheduled`]).
    fn scheduled_restart(&mut self, rearm: Option<Option<CrashPoint>>) -> Result<RecoveryReport> {
        let mut report = RecoveryReport {
            mode: self.mode(),
            ..Default::default()
        };
        self.nv_mut()?.restart_scheduled(rearm, &mut report)?;
        Ok(self.recovered(report))
    }

    /// Post-recovery integrity check composing the crash-torture
    /// invariants: per-table MVCC cleanliness at the durable watermark,
    /// plus — on the NVM backend — the heap walk (no block stuck
    /// mid-protocol) and index↔table agreement. Cheap enough to run after
    /// every scheduled crash.
    pub fn verify_integrity(&self) -> Result<IntegrityReport> {
        let last_cts = self.mgr.last_committed();
        let mut rep = IntegrityReport {
            last_cts,
            ..Default::default()
        };
        for t in 0..self.table_count() {
            rep.mvcc
                .absorb(&self.store.table(t)?.verify_mvcc(last_cts)?);
        }
        self.store.check_integrity(&mut rep)?;
        rep.health = self.health.state();
        rep.utilization = self.utilization();
        Ok(rep)
    }

    // ------------------------------------------------------------------
    // Media-fault instrumentation
    // ------------------------------------------------------------------

    /// The labelled persistent extents of a table — fault-injection targets
    /// for the media-torture harness (NVM backend only).
    pub fn media_extents(&self, table: TableId) -> Result<Vec<storage::nv::MediaExtent>> {
        self.check_table(table)?;
        self.nv()?.media_extents(table.0)
    }

    /// The labelled persistent extents of a table's indexes — checksummed
    /// node/entry runs usable as corruption targets by the real-file
    /// media-fault harness (NVM backend only).
    pub fn index_media_extents(&self, table: TableId) -> Result<Vec<storage::nv::MediaExtent>> {
        self.check_table(table)?;
        self.nv()?.index_media_extents(table.0)
    }

    /// On-demand media verification of every persistent structure: table
    /// checksums plus MVCC timestamp plausibility, then index↔table
    /// agreement. Returns the number of structures verified; any media
    /// fault surfaces as a typed error (NVM backend only).
    pub fn verify_media(&self) -> Result<u64> {
        self.nv()?.verify_media()
    }
}

/// Bounded retry-with-backoff for writes under capacity pressure — the
/// write-path twin of recovery's rung-1 poison retry (same
/// `MAX_TRANSIENT_RETRIES` budget). A retryable rejection (backpressure
/// or typed capacity exhaustion) triggers an exponential backoff charged
/// to the simulated clock, then an emergency [`Database::reclaim`] pass,
/// then the operation runs again. Non-retryable errors (conflicts,
/// read-only mode, corruption) pass straight through.
///
/// ```
/// use hyrise_nv::{retry_write, Database, DurabilityConfig};
/// use storage::{ColumnDef, DataType, Schema, Value};
///
/// let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
/// let t = db
///     .create_table("t", Schema::new(vec![ColumnDef::new("k", DataType::Int)]))
///     .unwrap();
/// let mut tx = db.begin();
/// let row = retry_write(&mut db, |db| db.insert(&mut tx, t, &[Value::Int(7)])).unwrap();
/// db.commit(&mut tx).unwrap();
/// assert_eq!(row, 0);
/// ```
pub fn retry_write<T>(
    db: &mut Database,
    mut op: impl FnMut(&mut Database) -> Result<T>,
) -> Result<T> {
    let mut attempt = 0u64;
    loop {
        match op(db) {
            Err(e) if e.is_retryable() && attempt < MAX_TRANSIENT_RETRIES => {
                attempt += 1;
                if let Ok(b) = db.nv() {
                    b.region().clock().charge(1_000u64 << attempt.min(10));
                }
                db.reclaim()?;
            }
            other => return other,
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("mode", &self.mode())
            .field("tables", &self.table_count())
            .field("last_committed", &self.mgr.last_committed())
            .finish()
    }
}
