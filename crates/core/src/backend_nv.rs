//! The Hyrise-NV backend: persistent catalogue + NVM tables + persistent
//! hash indexes.
//!
//! Persistent catalogue layout (the heap's root object):
//!
//! ```text
//! 0:  last_cts u64                 — the durable commit-timestamp publish
//! 8:  ntables  u64                 — publish point for CREATE TABLE
//! 16: registry u64                 — txn-registry base pointer
//! 24: progress u64                 — recovery attempt counter (0 = clean)
//! 32: per table (stride 24): name_ptr | table_root | idx_block
//! idx_block: count u64 | per index (stride 24): kind | column | desc
//! ```
//!
//! `kind` 0 = persistent hash (desc = `NvHashIndex` descriptor), 1 =
//! persistent ordered skip list (desc = `NvOrderedIndex` descriptor). Both
//! are re-attached on restart in O(1) — no index is ever rebuilt on this
//! backend, matching the paper's "table *and index* structures on NVM".

use std::sync::Arc;

use index::{NvHashIndex, NvOrderedIndex};
use nvm::{CrashPoint, CrashPolicy, NvmHeap, NvmRegion};
use storage::nv::{read_string, store_string, MediaExtent, NvTable};
use storage::{RowId, Schema, TableStore, VTable, Value};
use txn::{Transaction, TxnManager};

use crate::config::{IndexKind, WalConfig};
use crate::error::{EngineError, Result};
use crate::health::ReclaimReport;
use crate::report::{IntegrityReport, RecoveryReport};
use crate::shadow_wal::{copy_versions, ShadowWal};
use crate::store::{unknown_table, Probe, Store};
use crate::txn_registry::TxnRegistry;
use crate::{MAX_INDEXES_PER_TABLE, MAX_TABLES};

const CAT_LAST_CTS: u64 = 0;
const CAT_NTABLES: u64 = 8;
const CAT_REGISTRY: u64 = 16;
const CAT_PROGRESS: u64 = 24;
/// Clean-shutdown marker: non-zero only between a graceful shutdown's
/// final sync and the next open, which durably clears it before any other
/// mutation. A restart that finds it set may skip the mvcc undo pass — no
/// transaction can have been in flight.
const CAT_CLEAN: u64 = 32;
const CAT_ENTRIES: u64 = 40;
const CAT_ENTRY_STRIDE: u64 = 24;
const CAT_SIZE: u64 = CAT_ENTRIES + MAX_TABLES as u64 * CAT_ENTRY_STRIDE;

const IDX_COUNT: u64 = 0;
const IDX_ENTRIES: u64 = 8;
const IDX_ENTRY_STRIDE: u64 = 24;
const IDX_BLOCK_SIZE: u64 = IDX_ENTRIES + MAX_INDEXES_PER_TABLE as u64 * IDX_ENTRY_STRIDE;

pub(crate) const KIND_HASH: u64 = 0;
pub(crate) const KIND_ORDERED: u64 = 1;

/// Per-table index sets — all persistent on this backend.
#[derive(Default)]
pub(crate) struct NvTableIndexes {
    /// Persistent hash indexes (attached, never rebuilt).
    pub hash: Vec<NvHashIndex>,
    /// Persistent ordered (skip-list) indexes (attached, never rebuilt).
    pub ordered: Vec<NvOrderedIndex>,
}

/// The NVM durability backend.
pub struct NvBackend {
    pub(crate) heap: NvmHeap,
    catalog: u64,
    pub(crate) tables: Vec<NvTable>,
    pub(crate) names: Vec<String>,
    pub(crate) indexes: Vec<NvTableIndexes>,
    pub(crate) registry: TxnRegistry,
    /// Shadow redo log (recovery rung 2); None on the plain NVM backend.
    pub(crate) shadow: Option<ShadowWal>,
    /// Where the shadow log lives, kept so every recovery re-attaches it.
    pub(crate) shadow_cfg: Option<WalConfig>,
}

/// Catalogue decode with per-table failure isolation — the raw material of
/// the recovery ladder. Catalogue-level damage (unreadable root, implausible
/// counts, corrupt name strings, registry) stays a hard error; a table whose
/// tree fails to open is recorded per slot so rung 2 can rebuild exactly the
/// broken tables.
pub(crate) struct AttachParts {
    pub heap: NvmHeap,
    pub catalog: u64,
    pub names: Vec<String>,
    pub roots: Vec<u64>,
    pub idx_blocks: Vec<u64>,
    pub tables: Vec<std::result::Result<NvTable, EngineError>>,
    pub registry: TxnRegistry,
    pub last_cts: u64,
}

/// One persistent index registration read from the catalogue.
pub(crate) struct IndexEntrySpec {
    pub kind: u64,
    pub column: usize,
    pub desc: u64,
    /// Catalogue offset of this entry (for the desc swap on rebuild).
    pub entry_base: u64,
}

impl AttachParts {
    /// Decode the index registrations of table `t` (descriptors are not
    /// opened — the ladder decides per entry whether to attach or rebuild).
    pub fn index_entries(&self, t: usize) -> Result<Vec<IndexEntrySpec>> {
        let r = self.heap.region();
        let idx_block = *self
            .idx_blocks
            .get(t)
            .ok_or_else(|| EngineError::Catalog(format!("table slot {t} out of range")))?;
        // pmlint: observe(index-count)
        let icount: u64 = r.load_u64_acquire(idx_block + IDX_COUNT)?;
        if icount as usize > MAX_INDEXES_PER_TABLE {
            return Err(EngineError::Catalog("implausible index count".into()));
        }
        let mut out = Vec::with_capacity(icount as usize);
        for i in 0..icount {
            let ib = idx_block + IDX_ENTRIES + i * IDX_ENTRY_STRIDE;
            out.push(IndexEntrySpec {
                kind: r.read_pod(ib)?,
                column: r.read_pod::<u64>(ib + 8)? as usize,
                desc: r.read_pod(ib + 16)?,
                entry_base: ib,
            });
        }
        Ok(out)
    }

    /// Durably swap table `t`'s root to a rebuilt tree. The old tree stays
    /// allocated but unreachable — quarantined rather than freed, since its
    /// block metadata cannot be trusted after a media fault.
    pub fn swap_table_root(&mut self, t: usize, new_root: u64) -> Result<()> {
        let slot = self
            .roots
            .get_mut(t)
            .ok_or_else(|| EngineError::Catalog(format!("table slot {t} out of range")))?;
        let base = self.catalog + CAT_ENTRIES + t as u64 * CAT_ENTRY_STRIDE;
        let r = self.heap.region();
        // pmlint: publish(catalog-table-root)
        r.store_u64_release(base + 8, new_root)?;
        r.persist(base + 8, 8)?;
        *slot = new_root;
        Ok(())
    }

    /// Durably swap an index entry's descriptor to a rebuilt index (same
    /// publish idiom as the post-merge rebuild). The old structure is
    /// quarantined, not destroyed.
    pub fn swap_index_desc(&self, e: &IndexEntrySpec, new_desc: u64) -> Result<()> {
        let r = self.heap.region();
        // pmlint: publish(index-desc)
        r.store_u64_release(e.entry_base + 16, new_desc)?;
        r.persist(e.entry_base + 16, 8)?;
        Ok(())
    }

    /// Assemble the backend once every table slot is healthy and the index
    /// sets are attached.
    pub fn into_backend(self, indexes: Vec<NvTableIndexes>) -> Result<NvBackend> {
        let mut tables = Vec::with_capacity(self.tables.len());
        for t in self.tables {
            tables.push(t?);
        }
        Ok(NvBackend {
            heap: self.heap,
            catalog: self.catalog,
            tables,
            names: self.names,
            indexes,
            registry: self.registry,
            shadow: None,
            shadow_cfg: None,
        })
    }
}

impl NvBackend {
    /// Format `region` and create an empty catalogue on it, plus a fresh
    /// shadow log (with its baseline checkpoint) when `shadow_cfg` is set.
    pub(crate) fn create(
        region: Arc<NvmRegion>,
        shadow_cfg: Option<WalConfig>,
    ) -> Result<NvBackend> {
        let heap = NvmHeap::format(region)?;
        let catalog = heap.alloc(CAT_SIZE)?;
        let registry = TxnRegistry::create(&heap)?;
        let r = heap.region();
        r.write_pod(catalog + CAT_LAST_CTS, &0u64)?;
        r.write_pod(catalog + CAT_NTABLES, &0u64)?;
        r.write_pod(catalog + CAT_REGISTRY, &registry.base_offset())?;
        r.write_pod(catalog + CAT_PROGRESS, &0u64)?;
        r.write_pod(catalog + CAT_CLEAN, &0u64)?;
        r.persist(catalog, CAT_ENTRIES)?;
        heap.set_root(catalog)?;
        let mut b = NvBackend {
            heap,
            catalog,
            tables: Vec::new(),
            names: Vec::new(),
            indexes: Vec::new(),
            registry,
            shadow: None,
            shadow_cfg,
        };
        if let Some(cfg) = b.shadow_cfg.clone() {
            let mut sw = ShadowWal::create(cfg, b.region().clone())?;
            sw.checkpoint_full(&b.names, &b.tables, 0)?;
            b.shadow = Some(sw);
        }
        Ok(b)
    }

    /// Re-attach catalogue, tables, and indexes over an already-recovered
    /// heap (the restart path times this separately from the allocator
    /// scan). The first per-table failure is a hard error — this is the
    /// fast rung-0 path; the ladder uses [`NvBackend::attach_parts`].
    pub(crate) fn attach(heap: NvmHeap) -> Result<NvBackend> {
        let parts = Self::attach_parts(heap)?;
        let mut indexes = Vec::with_capacity(parts.tables.len());
        for t in 0..parts.tables.len() {
            let mut set = NvTableIndexes::default();
            for e in parts.index_entries(t)? {
                match e.kind {
                    KIND_HASH => set.hash.push(NvHashIndex::open(&parts.heap, e.desc)?),
                    KIND_ORDERED => set.ordered.push(NvOrderedIndex::open(&parts.heap, e.desc)?),
                    _ => return Err(EngineError::Catalog("unknown index kind".into())),
                }
            }
            indexes.push(set);
        }
        parts.into_backend(indexes)
    }

    /// Decode the catalogue with per-table failure isolation (see
    /// [`AttachParts`]). Indexes are left unopened.
    pub(crate) fn attach_parts(heap: NvmHeap) -> Result<AttachParts> {
        let catalog = heap.root()?;
        if catalog == 0 {
            return Err(EngineError::Catalog("no catalogue root in region".into()));
        }
        let r = heap.region().clone();
        // pmlint: observe(catalog-cts)
        let last_cts: u64 = r.load_u64_acquire(catalog + CAT_LAST_CTS)?;
        // pmlint: observe(catalog-ntables)
        let ntables: u64 = r.load_u64_acquire(catalog + CAT_NTABLES)?;
        if ntables as usize > MAX_TABLES {
            return Err(EngineError::Catalog("implausible table count".into()));
        }
        let mut tables = Vec::with_capacity(ntables as usize);
        let mut names = Vec::with_capacity(ntables as usize);
        let mut roots = Vec::with_capacity(ntables as usize);
        let mut idx_blocks = Vec::with_capacity(ntables as usize);
        for t in 0..ntables {
            let base = catalog + CAT_ENTRIES + t * CAT_ENTRY_STRIDE;
            let name_ptr: u64 = r.read_pod(base)?;
            let table_root: u64 = r.read_pod(base + 8)?;
            let idx_block: u64 = r.read_pod(base + 16)?;
            names.push(read_string(&heap, name_ptr).map_err(EngineError::Storage)?);
            roots.push(table_root);
            idx_blocks.push(idx_block);
            tables.push(NvTable::open(&heap, table_root).map_err(EngineError::Storage));
        }
        let registry_ptr: u64 = r.read_pod(catalog + CAT_REGISTRY)?;
        let registry = TxnRegistry::open(&heap, registry_ptr)?;
        Ok(AttachParts {
            heap,
            catalog,
            names,
            roots,
            idx_blocks,
            tables,
            registry,
            last_cts,
        })
    }

    /// Rebuild one table's NVM tree from a replayed DRAM image (rung 2).
    /// Physical row ids are reproduced in order, so surviving registry
    /// entries and freshly rebuilt indexes stay aligned.
    pub(crate) fn rebuild_table_from(heap: &NvmHeap, src: &VTable) -> Result<NvTable> {
        let mut nt = NvTable::create(heap, src.schema().clone())?;
        copy_versions(src, &mut nt)?;
        Ok(nt)
    }

    /// The shared region (crash injection, stats, clock).
    pub fn region(&self) -> &Arc<NvmRegion> {
        self.heap.region()
    }

    /// The persistent heap.
    pub fn heap(&self) -> &NvmHeap {
        &self.heap
    }

    /// `(offset, len)` of the catalogue's commit-timestamp word — the
    /// publish word of the commit protocols (label `catalog-cts`).
    pub fn cts_extent(&self) -> (u64, u64) {
        (self.catalog + CAT_LAST_CTS, 8)
    }

    /// `(offset, len)` of the catalogue's table count — the publish word
    /// of the `ddl-create-table` protocol (label `catalog-ntables`).
    pub fn ntables_extent(&self) -> (u64, u64) {
        (self.catalog + CAT_NTABLES, 8)
    }

    /// `(offset, len)` of catalogue entry `t` (name ptr, table root, index
    /// block) — label `catalog-entry` of the `ddl-create-table` protocol.
    pub fn entry_extent(&self, t: usize) -> (u64, u64) {
        (
            self.catalog + CAT_ENTRIES + t as u64 * CAT_ENTRY_STRIDE,
            CAT_ENTRY_STRIDE,
        )
    }

    /// `(offset, len)` of table `t`'s delta row counter — the publish word
    /// of the `delta-append` protocol (label `delta-rows`).
    pub fn table_rows_publish_extent(&self, t: usize) -> Option<(u64, u64)> {
        self.tables.get(t).map(|tab| tab.rows_publish_extent())
    }

    /// `(offset, len)` of table `t`'s root pair pointer — the publish word
    /// of the `merge-publish` protocol (label `table-pair`).
    pub fn table_pair_publish_extent(&self, t: usize) -> Option<(u64, u64)> {
        self.tables.get(t).map(|tab| tab.pair_publish_extent())
    }

    /// `(offset, len)` of table `table`'s persistent index count — the
    /// publish word of the `index-register` protocol (label `index-count`).
    pub fn idx_count_extent(&self, table: usize) -> Result<(u64, u64)> {
        Ok((self.idx_block(table)? + IDX_COUNT, 8))
    }

    /// `(offset, len)` of index entry `i` of table `table` — label
    /// `index-entry` of the `index-register` protocol.
    pub fn idx_entry_extent(&self, table: usize, i: u64) -> Result<(u64, u64)> {
        Ok((
            self.idx_block(table)? + IDX_ENTRIES + i * IDX_ENTRY_STRIDE,
            IDX_ENTRY_STRIDE,
        ))
    }

    /// `(offset, len)` of the catalogue's recovery-progress word — the
    /// publish word of the `recovery-progress` protocol.
    pub fn recovery_progress_extent(&self) -> (u64, u64) {
        (self.catalog + CAT_PROGRESS, 8)
    }

    /// `(offset, len)` of registry slot `slot`'s transaction-id word —
    /// the publish word of the `recovery-undo-release` protocol (label
    /// `registry-slot-clear`).
    pub fn registry_slot_tid_extent(&self, slot: usize) -> (u64, u64) {
        self.registry.slot_tid_extent(slot)
    }

    /// Durably set the clean-shutdown marker. Called by
    /// [`Database::shutdown`](crate::Database::shutdown) after the last
    /// transaction; the next open clears it and skips the undo pass.
    pub(crate) fn mark_clean_shutdown(&self) -> Result<()> {
        let r = self.heap.region();
        r.write_pod(self.catalog + CAT_CLEAN, &1u64)?;
        r.persist(self.catalog + CAT_CLEAN, 8)?;
        Ok(())
    }

    /// Zero the recovery-progress word: recovery completed. The single
    /// publish-last store closing the attempt opened by
    /// [`begin_recovery_attempt`].
    pub(crate) fn finish_recovery_attempt(&self) -> Result<()> {
        let r = self.heap.region();
        // pmlint: publish(recovery-progress)
        r.store_u64_release(self.catalog + CAT_PROGRESS, 0)?;
        r.persist(self.catalog + CAT_PROGRESS, 8)?;
        Ok(())
    }

    /// Durably published last commit timestamp.
    pub fn last_cts(&self) -> Result<u64> {
        // pmlint: observe(catalog-cts)
        Ok(self
            .heap
            .region()
            .load_u64_acquire(self.catalog + CAT_LAST_CTS)?)
    }

    fn idx_block(&self, table: usize) -> Result<u64> {
        let base = self.catalog + CAT_ENTRIES + table as u64 * CAT_ENTRY_STRIDE;
        Ok(self.heap.region().read_pod(base + 16)?)
    }

    /// Durably append an index registration to table `table`'s index
    /// block: entry first, then the count that publishes it.
    fn register_index(&self, table: usize, kind: u64, column: usize, desc: u64) -> Result<()> {
        let idx_block = self.idx_block(table)?;
        let r = self.heap.region();
        // pmlint: observe(index-count)
        let count: u64 = r.load_u64_acquire(idx_block + IDX_COUNT)?;
        let ib = idx_block + IDX_ENTRIES + count * IDX_ENTRY_STRIDE;
        r.write_pod(ib, &kind)?;
        r.write_pod(ib + 8, &(column as u64))?;
        r.write_pod(ib + 16, &desc)?;
        r.persist(ib, IDX_ENTRY_STRIDE)?;
        // pmlint: publish(index-count)
        r.store_u64_release(idx_block + IDX_COUNT, count + 1)?;
        r.persist(idx_block + IDX_COUNT, 8)?;
        Ok(())
    }

    /// Notify indexes of a new row version.
    fn index_insert(&mut self, table: usize, values: &[Value], row: u64) -> Result<()> {
        for idx in &self.indexes[table].hash {
            idx.insert(&values[idx.column()], row)?;
        }
        for idx in &self.indexes[table].ordered {
            idx.insert(&values[idx.column()], row)?;
        }
        Ok(())
    }

    /// Heap utilization and shadow-log wedge state — the health machine's
    /// inputs.
    pub(crate) fn pressure(&self) -> (f64, bool) {
        (self.heap.stats().utilization(), self.wal_wedged())
    }

    /// True while the shadow-WAL writer is wedged by an out-of-space
    /// failure.
    pub(crate) fn wal_wedged(&self) -> bool {
        self.shadow.as_ref().is_some_and(|sw| sw.is_wedged())
    }

    /// Arm an out-of-space fault on the shadow log.
    pub(crate) fn arm_wal_fault(&mut self, spec: wal::WalFaultSpec) -> Result<()> {
        match &mut self.shadow {
            Some(sw) => {
                sw.arm_fault(spec);
                Ok(())
            }
            None => Err(EngineError::Unsupported(
                "wal fault injection requires a shadow wal",
            )),
        }
    }

    /// Emergency reclamation (see [`Database::reclaim`](crate::Database::reclaim)).
    pub(crate) fn reclaim(&mut self, snapshot: u64, rep: &mut ReclaimReport) -> Result<()> {
        // A wedged log blocks merges (they append merge records), so it is
        // recreated first. The fresh log starts empty; the immediate
        // full-state checkpoint restores the `log ⊇ published state`
        // invariant rung 2 depends on.
        if self.wal_wedged() {
            if let Some(cfg) = self.shadow_cfg.clone() {
                let mut sw = ShadowWal::create(cfg, self.region().clone())?;
                sw.checkpoint_full(&self.names, &self.tables, snapshot)?;
                self.shadow = Some(sw);
                rep.wal_recreated = true;
            }
        }
        for t in 0..self.tables.len() {
            match self.merge(t, snapshot) {
                Ok(_) => rep.tables_merged += 1,
                Err(e) => {
                    // A merge needs headroom for the new main; at the brim
                    // it can itself exhaust capacity. Skip the table (its
                    // old image is untouched) and keep reclaiming elsewhere.
                    let e = e.normalize_capacity();
                    if e.is_capacity() {
                        rep.merges_failed += 1;
                    } else {
                        return Err(e);
                    }
                }
            }
        }
        let (blocks, bytes) = self.heap.reclaim_reserved()?;
        rep.reserved_blocks_freed = blocks;
        rep.reserved_bytes_freed = bytes;
        Ok(())
    }

    /// Graceful shutdown: flush the shadow log and durably set the
    /// clean-shutdown marker. Returns the region for the final sync.
    pub(crate) fn shutdown(&mut self) -> Result<Arc<NvmRegion>> {
        // Drop the shadow writer first: its buffered records reach the log
        // file on drop, keeping the log a superset of the published NVM
        // state even across the shutdown.
        self.shadow = None;
        self.mark_clean_shutdown()?;
        Ok(self.region().clone())
    }

    /// Materialize the crash point armed on the region and recover from
    /// the surviving image. With `rearm = Some(next)` the persist trace
    /// stays armed across the recovery, with `next` scheduled inside it;
    /// with `None` the recovery runs under the linter and the trace is
    /// closed afterwards.
    pub(crate) fn restart_scheduled(
        &mut self,
        rearm: Option<Option<CrashPoint>>,
        report: &mut RecoveryReport,
    ) -> Result<()> {
        let region = self.region().clone();
        // Flush the shadow writer's buffer into the log file before
        // materializing the crash (the file survives power loss).
        self.shadow = None;
        report.scheduled = Some(region.finalize_scheduled_crash()?);
        if let Some(next) = rearm {
            region.rearm_recovery_crash(next)?;
        }
        let recovered = NvBackend::recover(region.clone(), self.shadow_cfg.clone(), report);
        if rearm.is_none() {
            report.lint_findings = region.take_lint_findings();
            let _ = region.trace_stop();
        }
        // A failed traced attempt leaves the trace armed and this stale
        // backend in place: the next call retries the power cycle.
        *self = recovered?;
        if rearm.is_some() {
            report.lint_findings = region.take_lint_findings();
        }
        Ok(())
    }

    /// The labelled persistent extents of table `t`.
    pub(crate) fn media_extents(&self, t: usize) -> Result<Vec<MediaExtent>> {
        Ok(self.tables[t].media_extents()?)
    }

    /// The labelled persistent extents of table `t`'s indexes.
    pub(crate) fn index_media_extents(&self, t: usize) -> Result<Vec<MediaExtent>> {
        let set = &self.indexes[t];
        let mut out = Vec::new();
        for idx in &set.hash {
            out.extend(idx.media_extents()?);
        }
        for idx in &set.ordered {
            out.extend(idx.media_extents()?);
        }
        Ok(out)
    }

    /// Media-verify every table, then check every index against its
    /// table. Returns the number of structures verified.
    pub(crate) fn verify_media(&self) -> Result<u64> {
        let last_cts = self.last_cts()?;
        let mut n = 0u64;
        for t in &self.tables {
            n += t.verify_media(last_cts)?;
        }
        for (t, set) in self.tables.iter().zip(&self.indexes) {
            for idx in &set.hash {
                if !idx.verify_against(t)?.is_clean() {
                    return Err(EngineError::Catalog(
                        "hash index disagrees with its table".into(),
                    ));
                }
                n += 1;
            }
            for idx in &set.ordered {
                if !idx.verify_against(t)?.is_clean() {
                    return Err(EngineError::Catalog(
                        "ordered index disagrees with its table".into(),
                    ));
                }
                n += 1;
            }
        }
        Ok(n)
    }
}

impl Store for NvBackend {
    fn names(&self) -> &[String] {
        &self.names
    }

    fn table(&self, t: usize) -> Result<&dyn TableStore> {
        match self.tables.get(t) {
            Some(table) => Ok(table),
            None => Err(unknown_table(t)),
        }
    }

    fn index_count(&self, t: usize) -> usize {
        self.indexes
            .get(t)
            .map_or(0, |s| s.hash.len() + s.ordered.len())
    }

    fn probe(
        &self,
        t: usize,
        column: usize,
        probe: Probe<'_>,
    ) -> Result<(&dyn TableStore, Option<Vec<RowId>>)> {
        let (Some(table), Some(set)) = (self.tables.get(t), self.indexes.get(t)) else {
            return Err(unknown_table(t));
        };
        let ordered = set.ordered.iter().find(|i| i.column() == column);
        let rows = match probe {
            Probe::Eq(v) => match set.hash.iter().find(|i| i.column() == column) {
                Some(idx) => Some(idx.lookup(v)?),
                None => match ordered {
                    Some(idx) => Some(idx.lookup(v)?),
                    None => None,
                },
            },
            Probe::Range(lo, hi) => match ordered {
                Some(idx) => Some(idx.lookup_range(lo, hi)?),
                None => None,
            },
        };
        Ok((table, rows))
    }

    /// Create a table and durably register it.
    fn create_table(&mut self, name: &str, schema: Schema, last_cts: u64) -> Result<usize> {
        let table = NvTable::create(&self.heap, schema)?;
        let name_ptr = store_string(&self.heap, name).map_err(EngineError::Storage)?;
        let idx_block = self.heap.alloc(IDX_BLOCK_SIZE)?;
        let r = self.heap.region();
        r.write_pod(idx_block + IDX_COUNT, &0u64)?;
        r.persist(idx_block + IDX_COUNT, 8)?;

        let t = self.tables.len() as u64;
        let base = self.catalog + CAT_ENTRIES + t * CAT_ENTRY_STRIDE;
        r.write_pod(base, &name_ptr)?;
        r.write_pod(base + 8, &table.root_offset())?;
        r.write_pod(base + 16, &idx_block)?;
        r.persist(base, CAT_ENTRY_STRIDE)?;
        // Publish.
        // pmlint: publish(catalog-ntables)
        r.store_u64_release(self.catalog + CAT_NTABLES, t + 1)?;
        r.persist(self.catalog + CAT_NTABLES, 8)?;

        self.tables.push(table);
        self.names.push(name.to_owned());
        self.indexes.push(NvTableIndexes::default());
        // Re-baseline the shadow checkpoint so rung 2 knows the new table
        // even when its NVM root is unreadable. DDL is a quiesced point, so
        // the full-state export is valid. A crash between the NVM publish
        // above and this write loses only an empty table from the fallback
        // path.
        if let Some(sw) = &mut self.shadow {
            sw.checkpoint_full(&self.names, &self.tables, last_cts)?;
        }
        Ok(t as usize)
    }

    /// Create and durably register a persistent index over `column`,
    /// populated from the table's current rows.
    fn create_index(&mut self, t: usize, column: usize, kind: IndexKind) -> Result<()> {
        let table = &self.tables[t];
        match kind {
            IndexKind::Hash => {
                let nbuckets = (table.row_count() * 2).max(1024);
                let idx = NvHashIndex::build_from(&self.heap, table, column, nbuckets)?;
                self.register_index(t, KIND_HASH, column, idx.desc_offset())?;
                self.indexes[t].hash.push(idx);
            }
            IndexKind::Ordered => {
                let idx = NvOrderedIndex::build_from(&self.heap, table, column)?;
                self.register_index(t, KIND_ORDERED, column, idx.desc_offset())?;
                self.indexes[t].ordered.push(idx);
            }
        }
        Ok(())
    }

    /// Merge a table and rebuild its indexes (row ids shift), in the
    /// exhaustion-safe order: plan the merge read-only, build every
    /// replacement index against the planned post-merge row space, and
    /// only then execute the merge and swap the descriptors. Every
    /// fallible allocation happens before anything is published, so a
    /// capacity failure at any point unwinds to a clean abort — old table
    /// and old indexes fully intact. (A crash between the pair swap and
    /// the descriptor swaps leaks the new indexes until the next merge.)
    fn merge(&mut self, table: usize, snapshot: u64) -> Result<storage::MergeStats> {
        // Phase 1: plan (read-only) and build replacement indexes against
        // the plan. Post-merge row ids are positions in the survivor list.
        let plan = self.tables[table].merge_plan(snapshot)?;
        let idx_block = self.idx_block(table)?;
        let r = self.heap.region().clone();
        // Walk the catalogue entries so slot positions stay aligned.
        // pmlint: observe(index-count)
        let icount: u64 = r.load_u64_acquire(idx_block + IDX_COUNT)?;
        let mut new_hash: Vec<NvHashIndex> = Vec::new();
        let mut new_ordered: Vec<NvOrderedIndex> = Vec::new();
        let destroy_new = |hash: Vec<NvHashIndex>, ordered: Vec<NvOrderedIndex>| {
            for idx in hash {
                let _ = idx.destroy();
            }
            for idx in ordered {
                let _ = idx.destroy();
            }
        };
        for i in 0..icount {
            let ib = idx_block + IDX_ENTRIES + i * IDX_ENTRY_STRIDE;
            let kind: u64 = r.read_pod(ib)?;
            let column: u64 = r.read_pod(ib + 8)?;
            let built: Result<()> = (|| {
                match kind {
                    KIND_HASH => {
                        let nbuckets = (plan.rows().len() as u64 * 2).max(1024);
                        new_hash.push(NvHashIndex::build_from_rows(
                            &self.heap,
                            column as usize,
                            nbuckets,
                            plan.rows(),
                        )?);
                    }
                    KIND_ORDERED => {
                        let dtype = self.tables[table].schema().column(column as usize)?.dtype;
                        new_ordered.push(NvOrderedIndex::build_from_rows(
                            &self.heap,
                            column as usize,
                            dtype,
                            plan.rows(),
                        )?);
                    }
                    _ => {}
                }
                Ok(())
            })();
            if let Err(e) = built {
                destroy_new(new_hash, new_ordered);
                return Err(e);
            }
        }

        // Phase 2: log and execute. The merge record is synced *before*
        // execution, so a rung-2 replay reproduces the post-merge row-id
        // space that later records use.
        if let Some(sw) = &mut self.shadow {
            if let Err(e) = sw.log_merge_synced(table, snapshot) {
                destroy_new(new_hash, new_ordered);
                return Err(e);
            }
        }
        let stats = match self.tables[table].merge_from_plan(plan) {
            Ok(stats) => stats,
            Err(e) => {
                destroy_new(new_hash, new_ordered);
                // The log now carries a merge record for a merge that never
                // executed; re-baseline the checkpoint so bounded replay
                // starts past it (best-effort — a wedged log already forces
                // read-only until reclamation recreates it).
                if let Some(sw) = &mut self.shadow {
                    let _ = sw.checkpoint_full(&self.names, &self.tables, snapshot);
                }
                return Err(e.into());
            }
        };

        // Phase 3: publish the replacement indexes — descriptor stores and
        // frees only, no allocation left to fail.
        let mut hash_new = new_hash.into_iter();
        let mut ordered_new = new_ordered.into_iter();
        let mut hash_slot = 0usize;
        let mut ordered_slot = 0usize;
        for i in 0..icount {
            let ib = idx_block + IDX_ENTRIES + i * IDX_ENTRY_STRIDE;
            let kind: u64 = r.read_pod(ib)?;
            match kind {
                KIND_HASH => {
                    let Some(new_idx) = hash_new.next() else {
                        return Err(EngineError::Unsupported(
                            "index catalogue changed during merge",
                        ));
                    };
                    r.write_pod(ib + 16, &new_idx.desc_offset())?;
                    r.persist(ib + 16, 8)?;
                    let old = std::mem::replace(&mut self.indexes[table].hash[hash_slot], new_idx);
                    old.destroy()?;
                    hash_slot += 1;
                }
                KIND_ORDERED => {
                    let Some(new_idx) = ordered_new.next() else {
                        return Err(EngineError::Unsupported(
                            "index catalogue changed during merge",
                        ));
                    };
                    r.write_pod(ib + 16, &new_idx.desc_offset())?;
                    r.persist(ib + 16, 8)?;
                    let old =
                        std::mem::replace(&mut self.indexes[table].ordered[ordered_slot], new_idx);
                    old.destroy()?;
                    ordered_slot += 1;
                }
                _ => {}
            }
        }
        Ok(stats)
    }

    fn insert(&mut self, tx: &Transaction, t: usize, values: &[Value]) -> Result<RowId> {
        // Write-ahead registry entry: the row id an insert will get is
        // deterministic (next physical slot), so recovery can be told
        // about it before the row materializes.
        let row = self.tables[t].row_count();
        self.registry.record_insert(tx.tid, t, row)?;
        let got = self.tables[t].insert_version(values, tx.marker())?;
        debug_assert_eq!(got, row);
        // The version exists but the transaction has not recorded it yet:
        // a failure in the index or log step must tombstone it here, or
        // nothing ever would.
        let tail = self.index_insert(t, values, got).and_then(|()| {
            if let Some(sw) = &mut self.shadow {
                sw.log_insert(tx.tid, t, got, values)?;
            }
            Ok(())
        });
        if let Err(e) = tail {
            let _ = self.tables[t].abort_insert(got);
            return Err(e);
        }
        Ok(got)
    }

    fn invalidate(&mut self, tx: &Transaction, t: usize, row: RowId) -> Result<()> {
        self.registry.record_invalidate(tx.tid, t, row)?;
        self.tables[t].try_invalidate(row, tx.marker())?;
        if let Some(sw) = &mut self.shadow {
            // The end marker is already placed but the transaction has not
            // recorded it: restore it on a failed append.
            if let Err(e) = sw.log_invalidate(tx.tid, t, row) {
                let _ = self.tables[t].restore_end(row);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Run the commit protocol: stamp the transaction's writes, sync the
    /// shadow log (when configured) and only then durably publish the
    /// commit timestamp to NVM — the ordering that keeps the shadow log a
    /// superset of the published state.
    fn commit(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<u64> {
        let mut publisher = NvPublisher {
            heap: self.heap.clone(),
            catalog: self.catalog,
            shadow: self.shadow.as_mut(),
        };
        let mut refs: Vec<&mut dyn TableStore> = self
            .tables
            .iter_mut()
            .map(|t| t as &mut dyn TableStore)
            .collect();
        let cts = mgr.commit(tx, &mut refs, &mut publisher)?;
        self.registry.release(tx.tid)?;
        Ok(cts)
    }

    /// Succeeds even while the shadow log is wedged: an absent abort
    /// record replays exactly like a missing commit, so nothing is lost by
    /// skipping the append.
    fn abort(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<()> {
        let mut refs: Vec<&mut dyn TableStore> = self
            .tables
            .iter_mut()
            .map(|t| t as &mut dyn TableStore)
            .collect();
        mgr.abort(tx, &mut refs)?;
        self.registry.release(tx.tid)?;
        if let Some(sw) = &mut self.shadow {
            match sw.log_abort(tx.tid) {
                Err(EngineError::Wal(e)) if e.is_full() => {}
                other => other?,
            }
        }
        Ok(())
    }

    fn restart(&mut self, policy: CrashPolicy, report: &mut RecoveryReport) -> Result<()> {
        // Drop the shadow writer first: its buffered records reach the log
        // file on drop, and the file — unlike NVM cache lines — survives
        // the simulated power loss.
        self.shadow = None;
        let region = self.region().clone();
        region.crash(policy);
        *self = NvBackend::recover(region, self.shadow_cfg.clone(), report)?;
        Ok(())
    }

    /// The heap walk (no block stuck mid-protocol) and index↔table
    /// agreement.
    fn check_integrity(&self, rep: &mut IntegrityReport) -> Result<()> {
        for blk in self.heap.walk()? {
            rep.heap_blocks += 1;
            match blk.state {
                nvm::AllocState::Allocated | nvm::AllocState::Free => {}
                _ => rep.heap_limbo_blocks += 1,
            }
        }
        for (t, set) in self.tables.iter().zip(&self.indexes) {
            for idx in &set.hash {
                rep.index.absorb(&idx.verify_against(t)?);
            }
            for idx in &set.ordered {
                rep.index.absorb(&idx.verify_against(t)?);
            }
        }
        Ok(())
    }

    fn simulated_ns(&self) -> u64 {
        self.region().clock().now_ns()
    }

    fn wal_stats(&self) -> wal::WalStats {
        self.shadow
            .as_ref()
            .map(|sw| sw.stats())
            .unwrap_or_default()
    }

    fn as_nv(&self) -> Option<&NvBackend> {
        Some(self)
    }

    fn as_nv_mut(&mut self) -> Option<&mut NvBackend> {
        Some(self)
    }
}

/// Read the clean-shutdown marker and, if set, durably clear it before
/// returning — the marker must never survive into the run it admits, or a
/// later hard crash would masquerade as clean. Returns whether the previous
/// process shut down gracefully. A region with no catalogue root reports
/// `false`.
pub(crate) fn take_clean_shutdown(heap: &NvmHeap) -> Result<bool> {
    let catalog = heap.root()?;
    if catalog == 0 {
        return Ok(false);
    }
    let r = heap.region();
    let clean: u64 = r.read_pod(catalog + CAT_CLEAN)?;
    if clean != 0 {
        r.write_pod(catalog + CAT_CLEAN, &0u64)?;
        r.persist(catalog + CAT_CLEAN, 8)?;
    }
    Ok(clean != 0)
}

/// Durably bump the catalogue's recovery-progress word and return the new
/// attempt number (1 = first attempt since the last clean shutdown or
/// completed recovery; >1 = this recovery is itself re-entrant, an earlier
/// attempt was cut short).
///
/// This is the one deliberately *non-idempotent* recovery-time store: a
/// monotone counter, bumped before recovery mutates anything else and
/// zeroed by [`NvBackend::finish_recovery_attempt`] only after the ladder,
/// undo pass, and shadow re-baseline have all completed. Every other
/// recovery mutation is idempotent by re-derivation, so replaying a
/// partial attempt is safe — the counter exists to make interrupted
/// attempts *observable* (and bounded) rather than to gate replay.
///
/// Runs before the backend is attached, straight off the heap root; if no
/// catalogue root is published yet the attach will fail anyway, so the
/// attempt is reported as 0 and nothing is written.
pub(crate) fn begin_recovery_attempt(heap: &NvmHeap) -> Result<u64> {
    let catalog = heap.root()?;
    if catalog == 0 {
        return Ok(0);
    }
    let r = heap.region();
    // pmlint: observe(recovery-progress)
    let prior: u64 = r.load_u64_acquire(catalog + CAT_PROGRESS)?;
    let attempt = prior.saturating_add(1);
    // pmlint: publish(recovery-progress)
    r.store_u64_release(catalog + CAT_PROGRESS, attempt)?;
    r.persist(catalog + CAT_PROGRESS, 8)?;
    Ok(attempt)
}

/// Durable commit publish for the NVM backend: shadow-log sync first (when
/// configured), then one 8-byte persist of the global commit timestamp in
/// the catalogue. The order is the rung-2 invariant — a commit the NVM
/// image claims must be in the log.
struct NvPublisher<'a> {
    heap: NvmHeap,
    catalog: u64,
    shadow: Option<&'a mut ShadowWal>,
}

impl txn::CommitPublish for NvPublisher<'_> {
    fn publish(&mut self, cts: u64, txn: &txn::Transaction) -> txn::Result<()> {
        if let Some(sw) = self.shadow.as_deref_mut() {
            sw.log_commit_synced(txn.tid, cts)
                .map_err(|e| txn::TxnError::Publish(e.to_string()))?;
        }
        let r = self.heap.region();
        // pmlint: publish(catalog-cts)
        r.store_u64_release(self.catalog + CAT_LAST_CTS, cts)
            .map_err(|e| txn::TxnError::Publish(e.to_string()))?;
        r.persist(self.catalog + CAT_LAST_CTS, 8)
            .map_err(|e| txn::TxnError::Publish(e.to_string()))?;
        Ok(())
    }
}
