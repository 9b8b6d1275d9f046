//! The DRAM store: tables, names and one DRAM index set per table. On its
//! own it is the no-durability backend — the throughput upper bound in
//! experiment E3, losing everything on restart. The WAL backend wraps the
//! same store and adds its log, checkpoints and replay.

use index::{VolatileHashIndex, VolatileOrderedIndex};
use nvm::CrashPolicy;
use storage::{RowId, Schema, TableStore, VTable, Value};
use txn::{CommitPublish, Transaction, TxnManager};

use crate::config::IndexKind;
use crate::error::Result;
use crate::report::{timed_phase, PersistStats, RecoveryReport};
use crate::store::{unknown_table, Probe, Store};

/// One table's DRAM indexes, rebuilt wholesale after a merge or restart.
#[derive(Default)]
struct DramIndexes {
    hash: Vec<VolatileHashIndex>,
    ordered: Vec<VolatileOrderedIndex>,
}

impl DramIndexes {
    fn insert(&mut self, values: &[Value], row: RowId) {
        for idx in &mut self.hash {
            let c = idx.column();
            idx.insert(&values[c], row);
        }
        for idx in &mut self.ordered {
            let c = idx.column();
            idx.insert(&values[c], row);
        }
    }

    fn rebuild(&mut self, table: &VTable) -> Result<()> {
        for idx in &mut self.hash {
            idx.rebuild(table)?;
        }
        for idx in &mut self.ordered {
            idx.rebuild(table)?;
        }
        Ok(())
    }
}

/// The volatile (no durability) backend, and the DRAM store inside the
/// WAL backend.
#[derive(Default)]
pub struct VolatileBackend {
    tables: Vec<VTable>,
    names: Vec<String>,
    indexes: Vec<DramIndexes>,
}

impl VolatileBackend {
    /// A store over recovered tables, without indexes.
    pub(crate) fn from_tables(names: Vec<String>, tables: Vec<VTable>) -> VolatileBackend {
        let indexes = tables.iter().map(|_| DramIndexes::default()).collect();
        VolatileBackend {
            tables,
            names,
            indexes,
        }
    }

    /// The tables in id order.
    pub(crate) fn tables(&self) -> &[VTable] {
        &self.tables
    }

    /// Mutable access to table `t` (the façade has checked the id).
    pub(crate) fn table_mut(&mut self, t: usize) -> &mut VTable {
        &mut self.tables[t]
    }

    /// Every index as `(table, column, kind)` — what a restart rebuilds.
    pub(crate) fn index_specs(&self) -> Vec<(usize, usize, IndexKind)> {
        let mut specs = Vec::new();
        for (t, set) in self.indexes.iter().enumerate() {
            specs.extend(set.hash.iter().map(|i| (t, i.column(), IndexKind::Hash)));
            specs.extend(
                set.ordered
                    .iter()
                    .map(|i| (t, i.column(), IndexKind::Ordered)),
            );
        }
        specs
    }

    /// Stamp and publish `tx`'s writes through `publish`.
    pub(crate) fn commit_with(
        &mut self,
        mgr: &mut TxnManager,
        tx: &mut Transaction,
        publish: &mut dyn CommitPublish,
    ) -> Result<u64> {
        let mut refs: Vec<&mut dyn TableStore> = self
            .tables
            .iter_mut()
            .map(|t| t as &mut dyn TableStore)
            .collect();
        Ok(mgr.commit(tx, &mut refs, publish)?)
    }
}

impl Store for VolatileBackend {
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
                Some(idx) => Some(idx.lookup(v).to_vec()),
                None => ordered.map(|idx| idx.lookup(v).to_vec()),
            },
            Probe::Range(lo, hi) => ordered.map(|idx| idx.lookup_range(lo, hi)),
        };
        Ok((table, rows))
    }

    fn create_table(&mut self, name: &str, schema: Schema, _last_cts: u64) -> Result<usize> {
        self.tables.push(VTable::new(schema));
        self.names.push(name.to_owned());
        self.indexes.push(DramIndexes::default());
        Ok(self.tables.len() - 1)
    }

    fn create_index(&mut self, t: usize, column: usize, kind: IndexKind) -> Result<()> {
        let table = &self.tables[t];
        let set = &mut self.indexes[t];
        match kind {
            IndexKind::Hash => {
                let mut idx = VolatileHashIndex::new(column);
                idx.rebuild(table)?;
                set.hash.push(idx);
            }
            IndexKind::Ordered => {
                let mut idx = VolatileOrderedIndex::new(column);
                idx.rebuild(table)?;
                set.ordered.push(idx);
            }
        }
        Ok(())
    }

    fn merge(&mut self, t: usize, snapshot: u64) -> Result<storage::MergeStats> {
        let stats = self.tables[t].merge(snapshot)?;
        self.indexes[t].rebuild(&self.tables[t])?;
        Ok(stats)
    }

    fn insert(&mut self, tx: &Transaction, t: usize, values: &[Value]) -> Result<RowId> {
        let row = self.tables[t].insert_version(values, tx.marker())?;
        self.indexes[t].insert(values, row);
        Ok(row)
    }

    fn invalidate(&mut self, tx: &Transaction, t: usize, row: RowId) -> Result<()> {
        Ok(self.tables[t].try_invalidate(row, tx.marker())?)
    }

    fn commit(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<u64> {
        self.commit_with(mgr, tx, &mut txn::NoopPublish)
    }

    fn abort(&mut self, mgr: &mut TxnManager, tx: &mut Transaction) -> Result<()> {
        let mut refs: Vec<&mut dyn TableStore> = self
            .tables
            .iter_mut()
            .map(|t| t as &mut dyn TableStore)
            .collect();
        Ok(mgr.abort(tx, &mut refs)?)
    }

    fn restart(&mut self, _policy: CrashPolicy, report: &mut RecoveryReport) -> Result<()> {
        // Everything is lost; the report records the data loss.
        timed_phase(
            &mut report.phases,
            "data loss",
            || (0, PersistStats::default()),
            || Ok::<(), crate::EngineError>(()),
        )?;
        *self = VolatileBackend::default();
        Ok(())
    }
}
