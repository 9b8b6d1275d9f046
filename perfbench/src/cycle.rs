//! One restart cycle: drop the `Database` without `shutdown`, reopen the
//! image, read one key and update it.
//!
//! The `restart` workload is made of these cycles; every traced run also
//! ends with a few of them on the image its workload left behind (see
//! [`crate::layers`]).

use std::time::Instant;

use hyrise_nv::{Database, RecoveryReport};

use crate::image::Loaded;
use crate::ops::{update, verified_read};
use crate::trace::{Kind, Rec};

/// One restart cycle's timings and report.
#[derive(Clone)]
pub struct Cycle {
    /// Wall time of `Database::open`.
    pub open_ms: f64,
    /// The first verified read after the open.
    pub read_us: f64,
    /// The first committed update after the read.
    pub write_us: f64,
    pub report: RecoveryReport,
}

impl Cycle {
    /// Open plus the first read and the first write: until the database
    /// has served both kinds of operation again.
    pub fn ready_us(&self) -> f64 {
        self.open_ms * 1e3 + self.read_us + self.write_us
    }
}

/// Drop `loaded`'s database (if open) without shutdown, reopen the image,
/// check that it recovered `rows` physical rows, read `key` expecting
/// `expected`, and update it to `fresh`. Returns the cycle, if the image
/// opened, and whether every check passed and the update committed.
pub fn run<R: Rec>(
    rec: &mut R,
    loaded: &mut Loaded,
    key: i64,
    expected: &str,
    fresh: &str,
    rows: u64,
) -> (Option<Cycle>, bool) {
    let config = loaded.image.config();

    // Drop without shutdown: the mapping goes away with no clean-shutdown
    // marker, exactly as after a SIGKILL.
    rec.attach(None);
    let old = loaded.db.take();
    rec.call(Kind::Drop, || drop(old));

    let t0 = Instant::now();
    let opened = rec.call(Kind::Open, || Database::open(config));
    let open_ms = t0.elapsed().as_nanos() as f64 / 1e6;
    let Ok((db, report)) = opened else {
        return (None, false);
    };
    rec.attach(Some(&db));
    let db = loaded.db.insert(db);
    let Some(table) = db.table_id("usertable") else {
        return (None, false);
    };
    loaded.table = table;
    let rows_ok = report.rows_recovered == rows;

    let t1 = Instant::now();
    let read_ok = verified_read(rec, db, table, key, expected);
    let read_us = t1.elapsed().as_nanos() as f64 / 1e3;

    let t2 = Instant::now();
    let write_ok = update(rec, db, table, key, fresh);
    let write_us = t2.elapsed().as_nanos() as f64 / 1e3;
    let cycle = Cycle {
        open_ms,
        read_us,
        write_us,
        report,
    };
    rec.cycled(&cycle);
    (Some(cycle), rows_ok && read_ok && write_ok)
}
