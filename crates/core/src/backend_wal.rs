//! The log-based baseline backend: the DRAM store plus a redo log,
//! checkpoints, and checkpoint-load + log-replay recovery that rebuilds the
//! DRAM indexes.

use std::sync::Arc;

use nvm::{CrashPolicy, SimClock};
use storage::{RowId, Schema, TableStore, VTable, Value};
use txn::{Transaction, TxnManager};
use wal::{LogRecord, LogWriter, WalPaths};

use crate::backend_vol::VolatileBackend;
use crate::config::{IndexKind, WalConfig};
use crate::error::{EngineError, Result};
use crate::report::{timed_phase, PersistStats, RecoveryReport};
use crate::store::{Probe, Store};

/// The WAL durability backend.
pub struct WalBackend {
    dram: VolatileBackend,
    cfg: WalConfig,
    paths: WalPaths,
    clock: Arc<SimClock>,
    writer: LogWriter,
    /// Commits since the last log sync (group commit window).
    commits_since_sync: u32,
}

impl WalBackend {
    /// Create a fresh baseline database in `cfg.dir` (files truncated).
    pub fn create(cfg: WalConfig) -> Result<WalBackend> {
        let paths = WalPaths::new(&cfg.dir).map_err(wal::WalError::Io)?;
        let _ = std::fs::remove_file(paths.log());
        let _ = std::fs::remove_file(paths.checkpoint());
        let clock = Arc::new(SimClock::new());
        let writer = LogWriter::open(&paths.log(), clock.clone(), cfg.sync_latency_ns)?;
        Ok(WalBackend {
            dram: VolatileBackend::default(),
            cfg,
            paths,
            clock,
            writer,
            commits_since_sync: 0,
        })
    }

    fn append(&mut self, record: &LogRecord) -> Result<()> {
        self.writer.append(record)?;
        Ok(())
    }
}

impl Store for WalBackend {
    fn names(&self) -> &[String] {
        self.dram.names()
    }

    fn table(&self, t: usize) -> Result<&dyn TableStore> {
        self.dram.table(t)
    }

    fn index_count(&self, t: usize) -> usize {
        self.dram.index_count(t)
    }

    fn probe(
        &self,
        t: usize,
        column: usize,
        probe: Probe<'_>,
    ) -> Result<(&dyn TableStore, Option<Vec<RowId>>)> {
        self.dram.probe(t, column, probe)
    }

    /// The schema becomes durable through an immediate checkpoint (the
    /// baseline's DDL persistence).
    fn create_table(&mut self, name: &str, schema: Schema, last_cts: u64) -> Result<usize> {
        let t = self.dram.create_table(name, schema, last_cts)?;
        self.checkpoint(last_cts)?;
        Ok(t)
    }

    /// Populated immediately, rebuilt on every restart.
    fn create_index(&mut self, t: usize, column: usize, kind: IndexKind) -> Result<()> {
        self.dram.create_index(t, column, kind)
    }

    /// Logged and synced first, so replay reproduces the post-merge row
    /// ids that later records use.
    fn merge(&mut self, t: usize, snapshot: u64) -> Result<storage::MergeStats> {
        self.append(&LogRecord::Merge {
            table: t as u32,
            cts: snapshot,
        })?;
        self.writer.sync()?;
        self.dram.merge(t, snapshot)
    }

    fn insert(&mut self, tx: &Transaction, t: usize, values: &[Value]) -> Result<RowId> {
        let row = self.dram.insert(tx, t, values)?;
        let logged = self.append(&LogRecord::Insert {
            tid: tx.tid,
            table: t as u32,
            row,
            values: values.to_vec(),
        });
        if let Err(e) = logged {
            let _ = self.dram.table_mut(t).abort_insert(row);
            return Err(e);
        }
        Ok(row)
    }

    fn invalidate(&mut self, tx: &Transaction, t: usize, row: RowId) -> Result<()> {
        self.dram.invalidate(tx, t, row)?;
        self.append(&LogRecord::Invalidate {
            tid: tx.tid,
            table: t as u32,
            row,
        })
    }

    fn commit(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<u64> {
        let mut publisher = WalPublisher {
            writer: &mut self.writer,
            commits_since_sync: &mut self.commits_since_sync,
            every: self.cfg.sync_every_n_commits.max(1),
        };
        self.dram.commit_with(mgr, tx, &mut publisher)
    }

    fn abort(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<()> {
        self.dram.abort(mgr, tx)?;
        self.append(&LogRecord::Abort { tid: tx.tid })
    }

    /// Write a checkpoint covering the current log position.
    fn checkpoint(&mut self, last_cts: u64) -> Result<u64> {
        // Everything buffered must be on disk before the checkpoint can
        // claim to cover it.
        self.writer.sync()?;
        let named: Vec<(String, &VTable)> = self
            .dram
            .names()
            .iter()
            .cloned()
            .zip(self.dram.tables())
            .collect();
        let bytes = wal::write_checkpoint(
            &self.paths.checkpoint(),
            &named,
            last_cts,
            self.writer.position(),
        )?;
        Ok(bytes)
    }

    /// Power failure: the in-memory tables and any unsynced log buffer are
    /// gone. Recovery loads the newest checkpoint, replays the log suffix
    /// and rebuilds the DRAM indexes.
    fn restart(&mut self, _policy: CrashPolicy, report: &mut RecoveryReport) -> Result<()> {
        let index_specs = self.dram.index_specs();
        let clock_arc = self.clock.clone();
        // File-backed recovery generates no NVM persist traffic.
        let clock = || (clock_arc.now_ns(), PersistStats::default());
        let paths = &self.paths;

        // Phase 1: load the newest checkpoint.
        let ckpt = timed_phase(&mut report.phases, "checkpoint load", clock, || {
            if paths.checkpoint().exists() {
                wal::load_checkpoint(&paths.checkpoint())
                    .map(Some)
                    .map_err(EngineError::Wal)
            } else {
                Ok(None)
            }
        })?;
        let (mut tables, names, mut last_cts, covered) = match ckpt {
            Some((meta, tables)) => (
                tables,
                meta.table_names,
                meta.last_cts,
                meta.covered_log_pos,
            ),
            None => (Vec::new(), Vec::new(), 0, 0),
        };

        // Phase 2: replay the log suffix.
        let replay = timed_phase(&mut report.phases, "log replay", clock, || {
            if paths.log().exists() {
                wal::replay_log(&paths.log(), covered, &mut tables).map_err(EngineError::Wal)
            } else {
                Ok(wal::ReplayReport::default())
            }
        })?;
        last_cts = last_cts.max(replay.last_cts);
        report.log_records_replayed = replay.records;

        // Phase 3: rebuild the DRAM indexes. Dropping the old writer
        // without a final sync models the lost log buffer.
        self.writer = LogWriter::open(&paths.log(), clock_arc.clone(), self.cfg.sync_latency_ns)
            .map_err(EngineError::Wal)?;
        self.commits_since_sync = 0;
        let mut dram = VolatileBackend::from_tables(names, tables);
        timed_phase(&mut report.phases, "index rebuild", clock, || {
            for (t, c, k) in &index_specs {
                dram.create_index(*t, *c, *k)?;
            }
            Ok::<(), EngineError>(())
        })?;
        report.indexes_rebuilt = index_specs.len() as u64;
        report.last_cts = last_cts;
        report.rows_recovered = dram.tables().iter().map(|t| t.row_count()).sum();
        self.dram = dram;
        Ok(())
    }

    fn simulated_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    fn wal_stats(&self) -> wal::WalStats {
        self.writer.stats()
    }
}

/// Durable commit publish for the WAL backend: append a commit record; sync
/// when the group-commit window fills.
struct WalPublisher<'a> {
    writer: &'a mut LogWriter,
    commits_since_sync: &'a mut u32,
    every: u32,
}

impl txn::CommitPublish for WalPublisher<'_> {
    fn publish(&mut self, cts: u64, txn: &Transaction) -> txn::Result<()> {
        self.writer
            .append(&LogRecord::Commit { tid: txn.tid, cts })
            .map_err(|e| txn::TxnError::Publish(e.to_string()))?;
        *self.commits_since_sync += 1;
        if *self.commits_since_sync >= self.every {
            self.writer
                .sync()
                .map_err(|e| txn::TxnError::Publish(e.to_string()))?;
            *self.commits_since_sync = 0;
        }
        Ok(())
    }
}
