//! Region-primitive probes: the cost of one `NvmRegion` word access and of
//! persisting one cache line, timed from outside through the region's
//! public functions.
//!
//! The read probes only read the live image, at offsets below the heap's
//! high-water mark (so every word read is in use). The write probe uses a
//! scratch image of its own, so the workload's image is never written
//! outside the `Database` API.

use std::hint::black_box;
use std::time::Instant;

use hyrise_nv::Database;
use nvm::{LatencyModel, NvmRegion, CACHE_LINE};
use util::rng::{Rng, SmallRng};

use crate::image::Image;
use crate::stats::median;

/// Accesses per timed batch, and batches per probe (the median is kept).
const BATCH: usize = 50_000;
const BATCHES: usize = 7;

/// Median ns of `access` over batches of [`BATCH`] calls.
fn time_batches(mut access: impl FnMut(usize)) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for i in 0..BATCH {
            access(i);
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    median(&mut per_call)
}

/// `(read_pod::<u64> ns, load_u64_acquire ns)` on `db`'s live image, at
/// random 8-aligned offsets below the heap's high-water mark.
pub fn read_word_ns(db: &Database, seed: u64) -> (f64, f64) {
    let region = db
        .nv_backend()
        .expect("file-backed engine")
        .region()
        .clone();
    let high_water = db.heap_stats().expect("file-backed heap").high_water;
    let mut rng = SmallRng::seed_from_u64(seed);
    let offsets: Vec<u64> = (0..BATCH)
        .map(|_| rng.gen_range_u64(0, high_water / 8) * 8)
        .collect();
    let read = time_batches(|i| {
        black_box(region.read_pod::<u64>(offsets[i]).expect("in-bounds read"));
    });
    let acquire = time_batches(|i| {
        black_box(region.load_u64_acquire(offsets[i]).expect("in-bounds load"));
    });
    (read, acquire)
}

/// ns to `write_pod` one word, `flush` its line and `fence`, on a scratch
/// image of 1 024 lines written round-robin.
pub fn persist_line_ns() -> f64 {
    const LINES: u64 = 1024;
    let scratch = Image::new(LINES * CACHE_LINE);
    let region = NvmRegion::open_file(&scratch.path(), LINES * CACHE_LINE, LatencyModel::zero())
        .expect("open scratch region");
    time_batches(|i| {
        let off = (i as u64 % LINES) * CACHE_LINE;
        region.write_pod(off, &(i as u64)).expect("scratch store");
        region.flush(off, 8).expect("scratch flush");
        region.fence();
    })
}
