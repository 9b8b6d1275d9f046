//! `write_mix`: YCSB-A over 100 000 merged rows. Half the operations read
//! one key, half update one; keys follow a Zipf distribution with
//! θ = 0.99; each operation is its own transaction, and the table is
//! merged after every 20 000 committed updates. The run is made of whole
//! such epochs, so every run contains the same share of merge time.
//!
//! It exercises the commit protocol, flush/fence/`msync`, delta append,
//! dictionary growth, index insert, the allocator and merge. The same
//! `index_lookup` as in `point_read` now sits beside writes, and hot keys
//! build version chains that the lookup walks, so a change that speeds
//! one use of the read path and slows the other shows up. The image's heap
//! reaches 37 MB at the first merge and stays there, beyond a 4 MiB L2.
//!
//! The timed operation (`op_p50_us`, `op_p90_us`) is one update
//! transaction: lookup, update and commit. Reads are half the operations,
//! and merges take about a sixth of the run; both count in `ops_per_s`
//! (merges as time, not as operations). Read and write latencies are not
//! pooled: with half of each, the median would sit on the step between
//! them and jump from one to the other between runs.

use std::time::Instant;

use workload::{Op, YcsbConfig, YcsbGenerator, YcsbMix};

use crate::image::{self, Loaded, VALUE_LEN};
use crate::ops::{merge, update, verified_read};
use crate::trace::{Kind, Rec};
use crate::{Phase, Tally, Workload};

pub const ROWS: u64 = 100_000;
/// Committed updates between two merges.
pub const UPDATES_PER_MERGE: usize = 20_000;

pub struct WriteMix {
    loaded: Loaded,
    gen: YcsbGenerator,
    /// The last committed payload of every key.
    oracle: Vec<String>,
    tally: Tally,
}

impl WriteMix {
    /// The operations of the next epoch: up to and including its
    /// `UPDATES_PER_MERGE`-th update.
    fn next_epoch(&mut self) -> Vec<Op> {
        let mut ops = Vec::with_capacity(2 * UPDATES_PER_MERGE + 1024);
        let mut updates = 0;
        while updates < UPDATES_PER_MERGE {
            let op = self.gen.next_op();
            updates += matches!(op, Op::Update { .. }) as usize;
            ops.push(op);
        }
        ops
    }
}

impl Workload for WriteMix {
    fn setup(seed: u64) -> WriteMix {
        let capacity = image::capacity_for(ROWS + UPDATES_PER_MERGE as u64);
        let loaded = image::load(ROWS, ROWS, capacity);
        let gen = YcsbGenerator::new(YcsbConfig {
            record_count: ROWS,
            mix: YcsbMix::A,
            zipf_theta: Some(0.99),
            value_len: VALUE_LEN,
            seed,
        });
        WriteMix {
            loaded,
            gen,
            oracle: (0..ROWS)
                .map(|k| workload::ycsb::payload(k, VALUE_LEN))
                .collect(),
            tally: Tally::default(),
        }
    }

    fn loaded(&self) -> &Loaded {
        &self.loaded
    }

    fn loaded_mut(&mut self) -> &mut Loaded {
        &mut self.loaded
    }

    fn live_rows(&self) -> u64 {
        ROWS
    }

    fn expected(&self, key: i64) -> String {
        self.oracle[key as usize].clone()
    }

    fn phase<R: Rec>(&mut self, rec: &mut R, seconds: f64, latency_us: &mut Vec<f64>) -> Phase {
        let mut elapsed = 0.0;
        let mut ops = 0u64;
        while elapsed < seconds {
            let epoch = self.next_epoch();
            let Self {
                loaded,
                oracle,
                tally,
                ..
            } = self;
            let table = loaded.table;
            let db = loaded.db_mut();
            let start = Instant::now();
            for op in &epoch {
                let t0 = Instant::now();
                match op {
                    Op::Read { key } => {
                        let ok = rec.op(Kind::Read, |rec| {
                            verified_read(rec, db, table, *key, &oracle[*key as usize])
                        });
                        tally.record(ok);
                    }
                    Op::Update { key, value } => {
                        let ok = rec.op(Kind::Write, |rec| update(rec, db, table, *key, value));
                        latency_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                        if ok {
                            oracle[*key as usize].clone_from(value);
                        }
                        tally.record(ok);
                    }
                    other => unreachable!("YCSB-A generated {other:?}"),
                }
            }
            ops += epoch.len() as u64;
            let ok = merge(rec, db, table, ROWS);
            tally.record(ok);
            elapsed += start.elapsed().as_secs_f64();
        }
        Phase {
            ops,
            seconds: elapsed,
        }
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}
