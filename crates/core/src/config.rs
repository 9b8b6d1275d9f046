//! Engine configuration.

use std::path::PathBuf;

use nvm::LatencyModel;

/// Which index structure to create.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Hash group-key index (point lookups). On the NVM backend this is a
    /// persistent multi-version index; on the others it is a rebuilt DRAM
    /// index.
    Hash,
    /// Ordered group-key index (range lookups). On the NVM backend this is
    /// a persistent crash-safe skip list (re-attached on restart); on the
    /// others a DRAM B-tree map rebuilt after recovery.
    Ordered,
}

/// Configuration of the log-based baseline.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory for `wal.log` / `checkpoint.bin`.
    pub dir: PathBuf,
    /// Simulated latency charged per log sync (group commit boundary).
    pub sync_latency_ns: u64,
    /// Sync the log every N commits (1 = every commit durable immediately;
    /// larger values model group commit).
    pub sync_every_n_commits: u32,
}

impl WalConfig {
    /// A config rooted at a fresh unique directory under the system temp
    /// dir, syncing every commit with a 10 µs simulated sync.
    pub fn temp() -> WalConfig {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        WalConfig {
            dir: std::env::temp_dir().join(format!("hyrise-nv-wal-{}-{n}", std::process::id())),
            sync_latency_ns: 10_000,
            sync_every_n_commits: 1,
        }
    }
}

/// Durability backend selection.
#[derive(Debug, Clone)]
pub enum DurabilityConfig {
    /// Hyrise-NV: all primary data on simulated NVM.
    Nvm {
        /// NVM region capacity in bytes.
        capacity: u64,
        /// Latency model charged by persistence primitives.
        latency: LatencyModel,
    },
    /// Hyrise-NV plus a shadow write-ahead log: primary data on simulated
    /// NVM exactly as [`DurabilityConfig::Nvm`], with every transaction also
    /// logged to a file-backed WAL that is synced *before* the NVM commit
    /// publish. The shadow log is never read on the fast restart path; it
    /// exists solely as recovery rung 2 — when a table's NVM image fails
    /// media verification, the engine rebuilds that table by bounded log
    /// replay instead of losing it.
    NvmWithWal {
        /// NVM region capacity in bytes.
        capacity: u64,
        /// Latency model charged by persistence primitives.
        latency: LatencyModel,
        /// Shadow-log location and sync cost (charged to the same simulated
        /// clock as the NVM primitives).
        wal: WalConfig,
    },
    /// Hyrise-NV on a real file: all primary data in a `MAP_SHARED` mmap
    /// of `path`, the engine's first durability backend whose bytes
    /// survive actual process death. Fences become `msync(MS_SYNC)` over
    /// the flushed lines. With `wal: Some(..)`, a shadow write-ahead log
    /// rides along exactly as in [`DurabilityConfig::NvmWithWal`],
    /// providing recovery rung 2 for media damage in the file.
    NvmFile {
        /// Path of the backing file (created and grown on first open).
        path: PathBuf,
        /// Region capacity in bytes.
        capacity: u64,
        /// Latency model charged by persistence primitives.
        latency: LatencyModel,
        /// Optional shadow log (rung-2 media recovery).
        wal: Option<WalConfig>,
    },
    /// Log-based baseline: DRAM tables + WAL + checkpoints.
    Wal(WalConfig),
    /// No durability (upper-bound throughput reference).
    Volatile,
}

impl DurabilityConfig {
    /// 256 MiB NVM region with PCM-flavoured latencies.
    pub fn nvm_default() -> DurabilityConfig {
        DurabilityConfig::Nvm {
            capacity: 256 << 20,
            latency: LatencyModel::pcm(),
        }
    }

    /// NVM region with explicit capacity and latency.
    pub fn nvm(capacity: u64, latency: LatencyModel) -> DurabilityConfig {
        DurabilityConfig::Nvm { capacity, latency }
    }

    /// WAL baseline in a fresh temp directory.
    pub fn wal_temp() -> DurabilityConfig {
        DurabilityConfig::Wal(WalConfig::temp())
    }

    /// NVM region plus a shadow WAL in a fresh temp directory.
    pub fn nvm_with_wal(capacity: u64, latency: LatencyModel) -> DurabilityConfig {
        DurabilityConfig::NvmWithWal {
            capacity,
            latency,
            wal: WalConfig::temp(),
        }
    }

    /// File-backed NVM region at `path` (no shadow WAL).
    pub fn nvm_file(
        path: impl Into<PathBuf>,
        capacity: u64,
        latency: LatencyModel,
    ) -> DurabilityConfig {
        DurabilityConfig::NvmFile {
            path: path.into(),
            capacity,
            latency,
            wal: None,
        }
    }

    /// File-backed NVM region at `path` plus a shadow WAL in a fresh temp
    /// directory.
    pub fn nvm_file_with_wal(
        path: impl Into<PathBuf>,
        capacity: u64,
        latency: LatencyModel,
    ) -> DurabilityConfig {
        DurabilityConfig::NvmFile {
            path: path.into(),
            capacity,
            latency,
            wal: Some(WalConfig::temp()),
        }
    }

    /// The shadow log an NVM config carries, if any.
    pub(crate) fn shadow_wal(&self) -> Option<&WalConfig> {
        match self {
            DurabilityConfig::NvmWithWal { wal, .. } => Some(wal),
            DurabilityConfig::NvmFile { wal, .. } => wal.as_ref(),
            _ => None,
        }
    }

    /// Short name used in reports.
    pub fn mode_name(&self) -> &'static str {
        match self {
            DurabilityConfig::Nvm { .. } => "nvm",
            DurabilityConfig::NvmWithWal { .. } => "nvm+wal",
            DurabilityConfig::NvmFile { wal: None, .. } => "nvm-file",
            DurabilityConfig::NvmFile { wal: Some(_), .. } => "nvm-file+wal",
            DurabilityConfig::Wal(_) => "wal",
            DurabilityConfig::Volatile => "volatile",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names() {
        assert_eq!(DurabilityConfig::nvm_default().mode_name(), "nvm");
        assert_eq!(DurabilityConfig::wal_temp().mode_name(), "wal");
        assert_eq!(DurabilityConfig::Volatile.mode_name(), "volatile");
    }

    #[test]
    fn temp_dirs_unique() {
        assert_ne!(WalConfig::temp().dir, WalConfig::temp().dir);
    }
}
