//! `scan`: the `point_read` image (200 000 rows, half in the delta) under
//! a fixed interleaving of four `scan_range`s over 1 000 consecutive keys
//! from a random start, then one full-table `aggregate(Sum)` on `key`.
//!
//! The only workload on the column-scan path (`storage` scans,
//! bit-packed and dictionary decode, `core::query`), which point lookups
//! bypass. An aggregate reads about 39 bytes per row (8 MB) through the
//! region, and this is where the gap between NVM and volatile storage is
//! widest.
//!
//! Every operation is timed, and the interleaving places the two
//! percentiles on different operations: range scans are the fastest
//! four fifths, so `op_p50_us` is a range scan's latency (their 62.5th
//! percentile) and `op_p90_us` an aggregate's (their median), about ten
//! times slower. A range scan right after an aggregate runs slower than
//! the others; it is one in four, so it stays above the median.

use std::time::Instant;

use hyrise_nv::Agg;
use storage::Value;
use util::rng::{Rng, SmallRng};
use workload::ycsb::payload;

use crate::image::{self, Loaded, VALUE_LEN};
use crate::point_read::ROWS;
use crate::trace::{Kind, Rec};
use crate::{Phase, Tally, Workload};

/// Keys per range scan.
const RANGE: i64 = 1_000;
/// Range scans per aggregate.
const RANGES_PER_AGG: usize = 4;
/// Range starts generated before timing; the loop cycles through them.
const STARTS: usize = 1 << 16;

pub struct Scan {
    loaded: Loaded,
    starts: Vec<i64>,
    next: usize,
    tally: Tally,
}

impl Workload for Scan {
    fn setup(seed: u64) -> Scan {
        let loaded = image::load(ROWS, ROWS / 2, image::capacity_for(ROWS));
        let mut rng = SmallRng::seed_from_u64(seed);
        let starts = (0..STARTS)
            .map(|_| rng.gen_range_u64(0, ROWS - RANGE as u64 + 1) as i64)
            .collect();
        Scan {
            loaded,
            starts,
            next: 0,
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
        payload(key as u64, VALUE_LEN)
    }

    fn phase<R: Rec>(&mut self, rec: &mut R, seconds: f64, latency_us: &mut Vec<f64>) -> Phase {
        let Self {
            loaded,
            starts,
            next,
            tally,
        } = self;
        let table = loaded.table;
        let db = loaded.db_mut();
        let expected_sum = (ROWS * (ROWS - 1) / 2) as i64;
        let start = Instant::now();
        let mut last = start;
        let mut ops = 0;
        // Every image contributes whole rounds of four ranges and an
        // aggregate, so the pooled samples keep the one-in-five share.
        while (last - start).as_secs_f64() < seconds || ops % (RANGES_PER_AGG + 1) != 0 {
            let t0 = Instant::now();
            let ok = if *next % (RANGES_PER_AGG + 1) == RANGES_PER_AGG {
                rec.op(Kind::Agg, |rec| {
                    let tx = rec.call(Kind::Begin, || db.begin());
                    let sum = rec.call(Kind::Aggregate, || {
                        db.aggregate(&tx, table, 0, Agg::Sum, None)
                    });
                    matches!(sum.as_deref(), Ok([row]) if row.value == Some(Value::Int(expected_sum)))
                })
            } else {
                let lo = starts[*next % STARTS];
                let hi = lo + RANGE;
                rec.op(Kind::Range, |rec| {
                    let tx = rec.call(Kind::Begin, || db.begin());
                    let rows = rec.call(Kind::ScanRange, || {
                        db.scan_range(&tx, table, 0, Some(&Value::Int(lo)), Some(&Value::Int(hi)))
                    });
                    rows.is_ok_and(|rows| {
                        rows.len() == RANGE as usize
                            && rows.iter().all(
                                |r| matches!(r.values[0], Value::Int(k) if (lo..hi).contains(&k)),
                            )
                    })
                })
            };
            last = Instant::now();
            latency_us.push((last - t0).as_nanos() as f64 / 1e3);
            *next += 1;
            ops += 1;
            tally.record(ok);
        }
        Phase {
            ops: ops as u64,
            seconds: (last - start).as_secs_f64(),
        }
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}
