#![warn(missing_docs)]

//! Hyrise-NV: an in-memory columnar database storage engine with instant
//! restarts from (simulated) non-volatile memory.
//!
//! Reproduction of *Schwalb, Faust, Dreseler, Flemming, Plattner:
//! "Leveraging non-volatile memory for instant restarts of in-memory
//! database systems"*, ICDE 2016.
//!
//! The [`Database`] façade runs the same columnar main/delta storage and
//! snapshot-isolation MVCC over three interchangeable durability backends.
//! It implements every operation once over one internal seam (the
//! crate-private `Store` trait); each backend supplies its table and index
//! set and the durability hooks around writes, commits and restarts:
//!
//! | backend | store | primary data | durability hooks | restart cost |
//! |---|---|---|---|---|
//! | [`DurabilityConfig::Nvm`] (also `NvmWithWal`, `NvmFile`) | [`NvBackend`] | on (simulated or file-backed) NVM | registry entries, flush/fence ordering, catalogue cts publish | **O(metadata)** — map heap, rebuild probe maps, undo pass |
//! | [`DurabilityConfig::Wal`] | [`WalBackend`] = [`VolatileBackend`] + log | DRAM | redo log + checkpoints | **O(data)** — load checkpoint, replay log, rebuild indexes |
//! | [`DurabilityConfig::Volatile`] | [`VolatileBackend`] | DRAM | none | total data loss |
//!
//! ```
//! use hyrise_nv::{Database, DurabilityConfig};
//! use storage::{ColumnDef, DataType, Schema, Value};
//!
//! let mut db = Database::create(DurabilityConfig::nvm_default()).unwrap();
//! let t = db
//!     .create_table(
//!         "accounts",
//!         Schema::new(vec![
//!             ColumnDef::new("id", DataType::Int),
//!             ColumnDef::new("balance", DataType::Double),
//!         ]),
//!     )
//!     .unwrap();
//! let mut tx = db.begin();
//! db.insert(&mut tx, t, &[Value::Int(1), Value::Double(100.0)]).unwrap();
//! db.commit(&mut tx).unwrap();
//!
//! // Power failure + instant restart: committed data is back immediately.
//! let report = db.restart_after_crash().unwrap();
//! assert!(report.mode == "nvm");
//! let tx = db.begin();
//! assert_eq!(db.scan_all(&tx, t).unwrap().len(), 1);
//! ```

mod backend_nv;
mod backend_vol;
mod backend_wal;
mod config;
mod db;
mod error;
mod health;
mod query;
mod recovery;
mod report;
mod shadow_wal;
mod store;
pub mod torture;
mod txn_registry;

pub use backend_nv::NvBackend;
pub use backend_vol::VolatileBackend;
pub use backend_wal::WalBackend;
pub use config::{DurabilityConfig, IndexKind, WalConfig};
pub use db::{retry_write, Database, TableId};
pub use error::{is_conflict, EngineError, Result};
pub use health::{HealthReport, HealthState, ReclaimReport, Watermarks};
pub use query::{Agg, AggRow};
pub use report::{IntegrityReport, PersistStats, PhaseTiming, RecoveryReport};
pub use txn_registry::{RegistryRecovery, TxnRegistry, REGISTRY_SLOTS};

/// Maximum number of tables the persistent catalogue supports.
pub const MAX_TABLES: usize = 32;
/// Maximum number of indexes per table in the persistent catalogue.
pub const MAX_INDEXES_PER_TABLE: usize = 8;
