//! Shadow write-ahead log for the NVM backend — recovery rung 2.
//!
//! The NVM backend's primary data never needs a log: restart is a remap.
//! But a *media* fault (scribbled block, stuck line) can destroy primary
//! data that checksums will detect and nothing on the NVM side can repair.
//! The shadow log closes that gap: every write is also appended to a
//! file-backed redo log, and every commit syncs the log **before** the
//! commit timestamp is published to NVM. That ordering makes the log a
//! superset of the published NVM state, so a table whose NVM image fails
//! verification can be rebuilt by replaying the log bounded at the
//! published commit timestamp (see `wal::replay_log_bounded`).
//!
//! The checkpoint file holds a full serialized copy of every table taken at
//! a quiesced point (DDL, end of recovery), covering the log position at
//! that moment; rung 2 loads it and replays only the log suffix. The
//! post-recovery re-baseline is a correctness requirement, not an
//! optimization: a crash can leave the log holding insert records for rows
//! that never became durable on NVM, and row ids handed out after the
//! restart would collide with that stale suffix on a later replay.
//! Re-baselining from the recovered state retires the old prefix. Sync
//! latency is charged to the same simulated clock as the NVM persistence
//! primitives, keeping one cost model across both durability mechanisms.

use std::sync::Arc;

use nvm::{NvmRegion, SimClock};
use storage::mvcc::TS_INF;
use storage::{TableStore, VTable, Value};
use wal::{LogRecord, LogWriter, WalPaths};

use crate::config::WalConfig;
use crate::error::{EngineError, Result};

/// The shadow redo log attached to an NVM backend.
pub(crate) struct ShadowWal {
    pub(crate) cfg: WalConfig,
    pub(crate) paths: WalPaths,
    writer: LogWriter,
    /// Shared so sync latency lands on the NVM backend's simulated clock.
    region: Arc<NvmRegion>,
}

impl ShadowWal {
    /// Create a fresh shadow log in `cfg.dir` (existing files truncated).
    pub fn create(cfg: WalConfig, region: Arc<NvmRegion>) -> Result<ShadowWal> {
        let paths = WalPaths::new(&cfg.dir).map_err(wal::WalError::Io)?;
        let _ = std::fs::remove_file(paths.log());
        let _ = std::fs::remove_file(paths.checkpoint());
        Self::open_at(cfg, paths, region)
    }

    /// Re-open an existing shadow log after a restart (files preserved).
    pub fn reopen(cfg: WalConfig, region: Arc<NvmRegion>) -> Result<ShadowWal> {
        let paths = WalPaths::new(&cfg.dir).map_err(wal::WalError::Io)?;
        Self::open_at(cfg, paths, region)
    }

    fn open_at(cfg: WalConfig, paths: WalPaths, region: Arc<NvmRegion>) -> Result<ShadowWal> {
        // The writer gets a private clock with zero latency; sync cost is
        // charged explicitly to the region's clock so both durability
        // mechanisms share one simulated timeline.
        let writer = LogWriter::open(&paths.log(), Arc::new(SimClock::new()), 0)?;
        Ok(ShadowWal {
            cfg,
            paths,
            writer,
            region,
        })
    }

    /// Log activity counters.
    pub fn stats(&self) -> wal::WalStats {
        self.writer.stats()
    }

    /// Arm a one-shot out-of-space fault on the underlying writer.
    pub fn arm_fault(&mut self, spec: wal::WalFaultSpec) {
        self.writer.arm_fault(spec);
    }

    /// True while the writer is wedged by an out-of-space failure: every
    /// append/sync fails fast until the log is recreated.
    pub fn is_wedged(&self) -> bool {
        self.writer.is_wedged()
    }

    /// Append a redo record for an insert (durable at the next sync).
    pub fn log_insert(&mut self, tid: u64, table: usize, row: u64, values: &[Value]) -> Result<()> {
        self.writer.append(&LogRecord::Insert {
            tid,
            table: table as u32,
            row,
            values: values.to_vec(),
        })?;
        Ok(())
    }

    /// Append a redo record for an invalidation.
    pub fn log_invalidate(&mut self, tid: u64, table: usize, row: u64) -> Result<()> {
        self.writer.append(&LogRecord::Invalidate {
            tid,
            table: table as u32,
            row,
        })?;
        Ok(())
    }

    /// Append an abort record (no sync required; an unsynced abort replays
    /// identically to a missing commit).
    pub fn log_abort(&mut self, tid: u64) -> Result<()> {
        self.writer.append(&LogRecord::Abort { tid })?;
        Ok(())
    }

    /// Append a commit record and sync. Must be called **before** the NVM
    /// commit-timestamp publish: the invariant `log ⊇ published state` is
    /// what makes bounded replay a faithful rung-2 fallback.
    pub fn log_commit_synced(&mut self, tid: u64, cts: u64) -> Result<()> {
        self.writer.append(&LogRecord::Commit { tid, cts })?;
        self.sync()
    }

    /// Append a merge record and sync, **before** the merge executes: a
    /// crash after the sync but before the merge completes replays the
    /// merge, reproducing the post-merge row-id space that any later log
    /// records reference.
    pub fn log_merge_synced(&mut self, table: usize, cts: u64) -> Result<()> {
        self.writer.append(&LogRecord::Merge {
            table: table as u32,
            cts,
        })?;
        self.sync()
    }

    fn sync(&mut self) -> Result<()> {
        self.writer.sync()?;
        self.region.clock().charge(self.cfg.sync_latency_ns);
        Ok(())
    }

    /// Rewrite the checkpoint with the full current contents of every
    /// table, covering the current (synced) log position. Only valid at
    /// quiesced points — no pending MVCC markers — which holds for its two
    /// call sites: DDL and the end of recovery.
    pub fn checkpoint_full(
        &mut self,
        names: &[String],
        tables: &[impl TableStore],
        last_cts: u64,
    ) -> Result<()> {
        // A checkpoint may only cover durable log bytes.
        self.sync()?;
        let exported: Vec<(String, VTable)> = names
            .iter()
            .zip(tables)
            .map(|(n, t)| {
                let mut copy = VTable::new(t.schema().clone());
                copy_versions(t, &mut copy)?;
                Ok((n.clone(), copy))
            })
            .collect::<Result<_>>()?;
        let named: Vec<(String, &VTable)> = exported.iter().map(|(n, t)| (n.clone(), t)).collect();
        wal::write_checkpoint(
            &self.paths.checkpoint(),
            &named,
            last_cts,
            self.writer.position(),
        )?;
        Ok(())
    }
}

/// Deep-copy every row version of `src` into the empty table `dst`,
/// preserving physical row ids, begin/end timestamps, and tombstones. Only
/// valid on a quiesced table.
pub(crate) fn copy_versions(src: &dyn TableStore, dst: &mut dyn TableStore) -> Result<()> {
    for row in 0..src.row_count() {
        let values = src.row_values(row)?;
        if dst.insert_version(&values, src.begin_ts(row)?)? != row {
            return Err(EngineError::Catalog(
                "row id drift during table copy".into(),
            ));
        }
        let end = src.end_ts(row)?;
        if end != TS_INF {
            dst.commit_invalidate(row, end)?;
        }
    }
    Ok(())
}

impl std::fmt::Debug for ShadowWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowWal")
            .field("dir", &self.cfg.dir)
            .field("stats", &self.writer.stats())
            .finish()
    }
}
