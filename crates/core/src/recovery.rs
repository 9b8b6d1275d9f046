//! NVM recovery: the fast rung-0 re-attach and the full recovery ladder
//! (rungs 0–2) for backends with a shadow WAL, plus the bounded retry of
//! transiently poisoned reads both share.

use std::sync::Arc;

use index::{NvHashIndex, NvOrderedIndex};
use nvm::{NvmHeap, NvmRegion};
use storage::nv::NvTable;
use storage::TableStore;

use crate::backend_nv::{
    begin_recovery_attempt, take_clean_shutdown, NvBackend, NvTableIndexes, KIND_HASH, KIND_ORDERED,
};
use crate::config::WalConfig;
use crate::error::{EngineError, Result};
use crate::report::{timed_phase, PersistStats, RecoveryReport};
use crate::shadow_wal::ShadowWal;

impl NvBackend {
    /// The shared NVM recovery path: map the region, re-attach the
    /// catalogue, run the registry undo pass. The crash itself (policy or
    /// scheduled) must already have been materialized on `region`.
    ///
    /// On the plain NVM backend this is the fast rung-0 restart: remap and
    /// re-attach in O(metadata), no data is touched, any failure is fatal.
    /// When a shadow WAL is configured ([`crate::DurabilityConfig::NvmWithWal`]),
    /// the full recovery ladder runs instead (see [`attach_with_ladder`]).
    /// The caller adopts the recovered backend and its `report.last_cts`.
    pub(crate) fn recover(
        region: Arc<NvmRegion>,
        shadow_cfg: Option<WalConfig>,
        report: &mut RecoveryReport,
    ) -> Result<NvBackend> {
        let clock = nv_probe(&region);
        let mut retries = 0u64;

        // Phase 1: map the region + allocator recovery scan.
        let (heap, alloc_report) = timed_phase(
            &mut report.phases,
            "heap map + allocator scan",
            clock,
            || {
                retry_poisoned(&mut retries, || {
                    NvmHeap::open(region.clone()).map_err(EngineError::Nvm)
                })
            },
        )?;
        report.heap_blocks_scanned = alloc_report.blocks_scanned;

        // Graceful-shutdown marker: read and durably clear it first, so it
        // can never leak into this run and vouch for a later hard crash.
        report.clean_shutdown = retry_poisoned(&mut retries, || take_clean_shutdown(&heap))?;

        // Attempt accounting: durably bump the progress word before any
        // other recovery mutation. `attempt > 1` means this recovery is
        // itself re-entrant — an earlier attempt was cut short by a
        // nested crash (or a recoverable failure) before it could zero
        // the word.
        report.attempt = retry_poisoned(&mut retries, || begin_recovery_attempt(&heap))?;

        // Phase 2: catalogue + tables + indexes — fast path or ladder.
        let mut nb = match &shadow_cfg {
            None => {
                let nb = timed_phase(
                    &mut report.phases,
                    "catalogue + transient rebuild",
                    clock,
                    || NvBackend::attach(heap),
                )?;
                // Every index on this path is persistent: all attached,
                // none rebuilt.
                report.indexes_attached = nb
                    .indexes
                    .iter()
                    .map(|s| (s.hash.len() + s.ordered.len()) as u64)
                    .sum();
                nb
            }
            Some(cfg) => attach_with_ladder(heap, cfg, report, &mut retries, clock)?,
        };

        // Phase 3: registry-driven undo pass — repairs exactly the rows of
        // transactions in flight at the crash, O(in-flight writes), never
        // O(rows). Idempotent over rung-2 rebuilt tables: replay already
        // materialized their uncommitted rows as aborted tombstones.
        let last_cts = nb.last_cts()?;
        let repaired = if report.clean_shutdown {
            // A graceful shutdown leaves no transaction in flight: the undo
            // pass would scan an empty registry. Skipping it (no "mvcc undo
            // pass" phase in the report) is the clean-restart fast path the
            // SIGTERM half of the torture harness asserts on.
            0
        } else {
            timed_phase(&mut report.phases, "mvcc undo pass", clock, || {
                let NvBackend {
                    registry, tables, ..
                } = &mut nb;
                let rec = registry.recover(tables, last_cts)?;
                Ok::<u64, EngineError>(rec.repaired)
            })?
        };
        report.mvcc_words_repaired = repaired;
        report.last_cts = last_cts;
        report.rows_recovered = nb.tables.iter().map(|t| t.row_count()).sum();

        // Re-attach the shadow log and re-baseline its checkpoint from the
        // recovered state. The re-baseline is what keeps *future* rung-2
        // replays row-id-aligned: the old log can hold insert records for
        // rows that never became durable on NVM, and new row ids handed out
        // after this restart would collide with that stale suffix.
        if let Some(cfg) = shadow_cfg.clone() {
            let mut sw = ShadowWal::reopen(cfg, region.clone())?;
            timed_phase(&mut report.phases, "shadow re-baseline", clock, || {
                sw.checkpoint_full(&nb.names, &nb.tables, last_cts)
            })?;
            nb.shadow = Some(sw);
        }

        // Close the attempt: the progress word returns to 0 only once the
        // ladder, undo pass, and shadow re-baseline have all completed —
        // a nested crash anywhere above leaves it non-zero, and the next
        // attempt reports itself as re-entrant.
        retry_poisoned(&mut retries, || nb.finish_recovery_attempt())?;
        report.poison_retries = retries;
        if retries > 0 {
            report.rung = report.rung.max(1);
        }

        nb.shadow_cfg = shadow_cfg;
        Ok(nb)
    }
}

/// [`timed_phase`] probe over an NVM region: the simulated clock plus the
/// region's persist counters, so each recovery phase's report row carries
/// the traffic it generated.
fn nv_probe(region: &Arc<NvmRegion>) -> impl Fn() -> (u64, PersistStats) + Copy + '_ {
    move || {
        let s = region.stats();
        (
            region.clock().now_ns(),
            PersistStats {
                bytes_written: s.bytes_written,
                flushes: s.flush_calls,
                lines_flushed: s.lines_flushed,
                fences: s.fences,
            },
        )
    }
}

/// Recovery rungs 0–2 for the NVM-with-shadow backend: catalogue decode
/// with per-table failure isolation, bounded retry of transiently poisoned
/// reads (rung 1), media verification of every checksummed structure, WAL
/// fallback replay for tables whose NVM image cannot be trusted (rung 2),
/// and per-index verify-or-rebuild (rung 1).
fn attach_with_ladder(
    heap: NvmHeap,
    wal_cfg: &WalConfig,
    report: &mut RecoveryReport,
    retries: &mut u64,
    clock: impl Fn() -> (u64, PersistStats) + Copy,
) -> Result<NvBackend> {
    // Catalogue decode. Catalogue-level damage stays fatal: without the
    // table registry nothing can be salvaged, not even from the log.
    let mut parts = timed_phase(
        &mut report.phases,
        "catalogue + transient rebuild",
        clock,
        || retry_poisoned(retries, || NvBackend::attach_parts(heap.clone())),
    )?;
    let last_cts = parts.last_cts;

    // Rung 1: transiently poisoned table opens get a bounded retry.
    let retry_heap = parts.heap.clone();
    for (slot, &root) in parts.tables.iter_mut().zip(parts.roots.iter()) {
        if matches!(slot, Err(e) if is_transient_poison(e)) {
            *slot = retry_poisoned(retries, || {
                NvTable::open(&retry_heap, root).map_err(EngineError::Storage)
            });
        }
    }

    // Rung-0 detection: media-verify every table — block headers and
    // checksummed payloads plus MVCC timestamp plausibility. A table whose
    // image cannot be trusted goes on the rebuild list.
    let mut unhealthy: Vec<usize> = Vec::new();
    let mut verified = 0u64;
    timed_phase(&mut report.phases, "media verification", clock, || {
        for (t, slot) in parts.tables.iter().enumerate() {
            match slot {
                Err(_) => unhealthy.push(t),
                Ok(tab) => match retry_poisoned(retries, || {
                    tab.verify_media(last_cts).map_err(EngineError::Storage)
                }) {
                    Ok(n) => verified += n,
                    Err(_) => unhealthy.push(t),
                },
            }
        }
        Ok::<(), EngineError>(())
    })?;
    report.media_structures_verified = verified;

    // Rung 2: rebuild broken tables from the shadow log, bounded at the
    // published commit timestamp (the `log ⊇ published state` invariant).
    // The old trees stay allocated but unreachable — quarantined, since
    // their block metadata cannot be trusted after a media fault.
    if !unhealthy.is_empty() {
        let mut replayed = 0u64;
        timed_phase(&mut report.phases, "wal fallback replay", clock, || {
            let paths = wal::WalPaths::new(&wal_cfg.dir).map_err(wal::WalError::Io)?;
            let (meta, mut skel) = wal::load_checkpoint(&paths.checkpoint())?;
            let rep =
                wal::replay_log_bounded(&paths.log(), meta.covered_log_pos, &mut skel, last_cts)?;
            replayed = rep.records;
            for &t in &unhealthy {
                let src = skel.get(t).ok_or_else(|| {
                    EngineError::Catalog(
                        "shadow checkpoint is missing a table the catalogue lists".into(),
                    )
                })?;
                let nt = NvBackend::rebuild_table_from(&parts.heap, src)?;
                parts.swap_table_root(t, nt.root_offset())?;
                let slot = parts.tables.get_mut(t).ok_or_else(|| {
                    EngineError::Catalog("rebuilt table slot vanished from catalogue".into())
                })?;
                *slot = Ok(nt);
            }
            Ok::<(), EngineError>(())
        })?;
        report.rung = 2;
        report.log_records_replayed = replayed;
        report.structures_rebuilt += unhealthy.len() as u64;
        report.blocks_quarantined += unhealthy.len() as u64;
    }

    // Index verify-or-rebuild. Indexes of rebuilt tables are rebuilt
    // unconditionally — their old entries point into the quarantined tree.
    // Healthy tables keep their indexes unless attach or verification
    // against the table fails.
    let mut indexes: Vec<NvTableIndexes> = Vec::new();
    let mut attached = 0u64;
    let mut rebuilt = 0u64;
    timed_phase(&mut report.phases, "index verify + attach", clock, || {
        for (t, slot) in parts.tables.iter().enumerate() {
            let table = match slot {
                Ok(tab) => tab,
                Err(_) => {
                    return Err(EngineError::Catalog(
                        "table slot left unhealthy after ladder".into(),
                    ))
                }
            };
            let force = unhealthy.contains(&t);
            let mut set = NvTableIndexes::default();
            for e in parts.index_entries(t)? {
                match e.kind {
                    KIND_HASH => {
                        let ok = attach_index(force, retries, || {
                            let idx = NvHashIndex::open(&parts.heap, e.desc)?;
                            let clean = idx.verify_against(table)?.is_clean();
                            Ok((idx, clean))
                        });
                        match ok {
                            Some(idx) => {
                                attached += 1;
                                set.hash.push(idx);
                            }
                            None => {
                                let nbuckets = (table.row_count() * 2).max(1024);
                                let idx = NvHashIndex::build_from(
                                    &parts.heap,
                                    table,
                                    e.column,
                                    nbuckets,
                                )?;
                                parts.swap_index_desc(&e, idx.desc_offset())?;
                                rebuilt += 1;
                                set.hash.push(idx);
                            }
                        }
                    }
                    KIND_ORDERED => {
                        let ok = attach_index(force, retries, || {
                            let idx = NvOrderedIndex::open(&parts.heap, e.desc)?;
                            let clean = idx.verify_against(table)?.is_clean();
                            Ok((idx, clean))
                        });
                        match ok {
                            Some(idx) => {
                                attached += 1;
                                set.ordered.push(idx);
                            }
                            None => {
                                let idx = NvOrderedIndex::build_from(&parts.heap, table, e.column)?;
                                parts.swap_index_desc(&e, idx.desc_offset())?;
                                rebuilt += 1;
                                set.ordered.push(idx);
                            }
                        }
                    }
                    _ => return Err(EngineError::Catalog("unknown index kind".into())),
                }
            }
            indexes.push(set);
        }
        Ok(())
    })?;
    if rebuilt > 0 {
        report.rung = report.rung.max(1);
        report.structures_rebuilt += rebuilt;
        report.blocks_quarantined += rebuilt;
    }
    report.indexes_attached = attached;
    report.indexes_rebuilt = rebuilt;

    parts.into_backend(indexes)
}

/// Attach + verify one persistent index; `None` means "rebuild it" (always
/// so under `force_rebuild`). `open_verified` opens the index and reports
/// whether it agrees with its table.
fn attach_index<I>(
    force_rebuild: bool,
    retries: &mut u64,
    open_verified: impl FnMut() -> Result<(I, bool)>,
) -> Option<I> {
    if force_rebuild {
        return None;
    }
    retry_poisoned(retries, open_verified)
        .ok()
        .and_then(|(idx, clean)| clean.then_some(idx))
}

/// Shared retry budget for transient failures: recovery's rung-1 poison
/// retries and [`retry_write`]'s capacity retries draw on the same bound,
/// so "how long the engine struggles before giving up" is one knob.
pub(crate) const MAX_TRANSIENT_RETRIES: u64 = 8;

/// Bounded retry for transiently poisoned NVM reads (recovery rung 1): the
/// fault model clears a transient poison after a bounded number of failing
/// reads, so a handful of retries repairs it in place. Permanent poison,
/// checksum mismatches, and every other error pass straight through.
fn retry_poisoned<T>(retries: &mut u64, mut f: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient_poison(&e) && attempt < MAX_TRANSIENT_RETRIES => {
                attempt += 1;
                *retries += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// True when the error is a transiently poisoned read that a bounded retry
/// can clear.
fn is_transient_poison(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Nvm(nvm::NvmError::PoisonedRead {
            permanent: false,
            ..
        }) | EngineError::Storage(storage::StorageError::Nvm(nvm::NvmError::PoisonedRead {
            permanent: false,
            ..
        }))
    )
}
