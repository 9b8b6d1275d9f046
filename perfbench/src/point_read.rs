//! `point_read`: single-row `index_lookup`s on uniformly random keys over
//! a 200 000-row image whose first half is merged into main and whose
//! second half is still in the delta.
//!
//! The pure read path: region reads, hash probe, MVCC check and row
//! materialisation over an image of about 30 MB, far beyond a 4 MiB L2.
//! It never touches the commit protocol, the allocator or merge.
//!
//! The timed operation (`op_p50_us`, `op_p90_us`) is one verified read.
//!
//! Where the image's pages land in memory sets the speed of these reads
//! (on a 2-vCPU VM, sixteen copies of one image read at medians from 1.4
//! to 2.2 µs), so an untraced run moves the image to a fresh copy
//! [`PLACEMENTS`] times per image, outside the timed reads, and pools all
//! of them. The reads then run on a reopened image, as after a restart.

use std::time::Instant;

use util::rng::{Rng, SmallRng};
use workload::ycsb::payload;

use crate::image::{self, Loaded, VALUE_LEN};
use crate::ops::verified_read;
use crate::trace::{Kind, Off, Rec};
use crate::{Phase, Tally, Workload, MAX_SAMPLES};

pub const ROWS: u64 = 200_000;
/// Keys generated before timing; the loop cycles through them.
const KEYS: usize = 1 << 20;
/// Page placements an untraced run measures per image.
const PLACEMENTS: usize = 4;

pub struct PointRead {
    loaded: Loaded,
    keys: Vec<i64>,
    next: usize,
    tally: Tally,
}

impl Workload for PointRead {
    fn setup(seed: u64) -> PointRead {
        let loaded = image::load(ROWS, ROWS / 2, image::capacity_for(ROWS));
        let mut rng = SmallRng::seed_from_u64(seed);
        let keys = (0..KEYS)
            .map(|_| rng.gen_range_u64(0, ROWS) as i64)
            .collect();
        PointRead {
            loaded,
            keys,
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
            keys,
            next,
            tally,
        } = self;
        let table = loaded.table;
        let db = loaded.db_mut();
        let start = Instant::now();
        let mut last = start;
        let mut ops = 0;
        while (last - start).as_secs_f64() < seconds && latency_us.len() < MAX_SAMPLES {
            let key = keys[*next % KEYS];
            *next += 1;
            let expected = payload(key as u64, VALUE_LEN);
            let t0 = Instant::now();
            let ok = rec.op(Kind::Read, |rec| {
                verified_read(rec, db, table, key, &expected)
            });
            last = Instant::now();
            latency_us.push((last - t0).as_nanos() as f64 / 1e3);
            ops += 1;
            tally.record(ok);
        }
        Phase {
            ops,
            seconds: (last - start).as_secs_f64(),
        }
    }

    fn measure(&mut self, seconds: f64, latency_us: &mut Vec<f64>) -> Phase {
        let mut total = Phase {
            ops: 0,
            seconds: 0.0,
        };
        for _ in 0..PLACEMENTS {
            self.loaded.relocate();
            let phase = self.phase(&mut Off, seconds / PLACEMENTS as f64, latency_us);
            total.ops += phase.ops;
            total.seconds += phase.seconds;
        }
        total
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}
