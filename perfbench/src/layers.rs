//! Per-layer metrics of a traced run, and the epilogue that gives every
//! workload every one of them.
//!
//! The layers are the workspace crates the timed path runs through:
//! `nvm` (the region and its heap), `txn` (`begin`, `commit`), `core` (the
//! façade's lookups and updates), `storage` (merge) and `recovery`
//! (`Database::open`). A workload alone does not reach all of them:
//! `point_read` and `scan` never commit, only `write_mix` merges and only
//! `restart` opens. So after its own operations every traced run ends with
//! the same epilogue on the image the workload left behind:
//! [`EPILOGUE_CYCLES`] restart cycles (drop without shutdown, open, one
//! verified read, one committed update) and then, unless the workload
//! merged, one merge. The two metrics that describe the workload's own
//! operations, `nvm.bytes_read_per_op` and `trace_overhead_pct`, exclude
//! the epilogue; the others pool the workload's calls with the
//! epilogue's.

use std::collections::HashMap;

use util::rng::{Rng, SmallRng};
use workload::ycsb::payload;

use crate::image::{Loaded, VALUE_LEN};
use crate::stats::{mean, median};
use crate::trace::{Counters, Kind, Rec, Tracer};
use crate::{cycle, ops, probes, Metrics, Workload};

/// Restart cycles in the epilogue of a traced run; every other one is
/// traced.
pub const EPILOGUE_CYCLES: usize = 20;

/// The recovery phases `Database::open` reports, by report name.
const PHASES: [(&str, &str); 3] = [
    ("heap map + allocator scan", "recovery.heap_scan_ms"),
    ("catalogue + transient rebuild", "recovery.attach_ms"),
    ("mvcc undo pass", "recovery.undo_ms"),
];

/// Run the epilogue on `w`'s image, checking every result like the
/// workload's own operations.
pub fn epilogue<W: Workload>(w: &mut W, tracer: &mut Tracer, seed: u64) {
    let live = w.live_rows();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xE71_0C0E);
    let mut written: HashMap<i64, String> = HashMap::new();
    for i in 0..EPILOGUE_CYCLES {
        let key = rng.gen_range_u64(0, live) as i64;
        let expected = written
            .get(&key)
            .cloned()
            .unwrap_or_else(|| w.expected(key));
        let fresh = payload(live + i as u64, VALUE_LEN);
        let loaded = w.loaded_mut();
        let rows = loaded.db().row_count(loaded.table).expect("row count");
        let (_, ok) = tracer.op(Kind::Cycle, |rec| {
            cycle::run(rec, loaded, key, &expected, &fresh, rows)
        });
        w.tally().record(ok);
        if ok {
            written.insert(key, fresh);
        }
    }
    if tracer.merges.is_empty() {
        let loaded = w.loaded_mut();
        let table = loaded.table;
        let ok = ops::merge(tracer, loaded.db_mut(), table, live);
        w.tally().record(ok);
    }
}

/// Every per-layer metric, from `tracer` after the epilogue and from
/// probes of `loaded`'s image.
pub fn put(tracer: &Tracer, loaded: &Loaded, seed: u64, out: &mut Metrics) {
    // nvm: the region primitives, then counters per operation and per
    // committed write.
    let (read, acquire) = probes::read_word_ns(loaded.db(), seed);
    out.put("nvm.read_word_ns", read, "ns");
    out.put("nvm.load_acquire_ns", acquire, "ns");
    out.put("nvm.persist_line_ns", probes::persist_line_ns(), "ns");
    let roots = tracer.workload_roots();
    let read_bytes: u64 = roots.iter().map(|c| c.bytes_read).sum();
    out.put(
        "nvm.bytes_read_per_op",
        read_bytes as f64 / roots.len() as f64,
        "B",
    );
    // A write's persistence happens in `update` and `commit`; `begin` and
    // the lookup before the update only read.
    let writes = tracer.spans(Kind::Commit).count() as f64;
    let moved = tracer
        .spans(Kind::Update)
        .chain(tracer.spans(Kind::Commit))
        .fold(Counters::default(), |sum, s| sum.plus(&s.counters));
    out.put(
        "nvm.fences_per_write",
        moved.fences as f64 / writes,
        "count",
    );
    out.put(
        "nvm.lines_flushed_per_write",
        moved.lines_flushed as f64 / writes,
        "count",
    );
    out.put(
        "nvm.bytes_written_per_write",
        moved.bytes_written as f64 / writes,
        "B",
    );
    out.put(
        "nvm.heap_growth_per_write",
        moved.heap_live as f64 / writes,
        "B",
    );

    let us = |kind| -> Vec<f64> {
        tracer
            .durations_ns(kind)
            .iter()
            .map(|ns| ns / 1e3)
            .collect()
    };
    out.put(
        "txn.begin_ns",
        median(&mut tracer.durations_ns(Kind::Begin)),
        "ns",
    );
    out.put("txn.commit_us_p50", median(&mut us(Kind::Commit)), "us");
    out.put(
        "core.index_lookup_us_p50",
        median(&mut us(Kind::IndexLookup)),
        "us",
    );
    out.put("core.update_us_p50", median(&mut us(Kind::Update)), "us");

    let versions: Vec<f64> = tracer.merges.iter().map(|m| m.versions_per_key).collect();
    out.put("storage.versions_per_key", mean(&versions), "ratio");
    let mut per_row: Vec<f64> = tracer
        .merges
        .iter()
        .map(|m| m.ms * 1e6 / m.rows_before as f64)
        .collect();
    out.put("storage.merge_ns_per_row", median(&mut per_row), "ns");

    put_recovery(tracer, out);
    out.put("trace_overhead_pct", tracer.overhead_pct(), "%");
}

/// Restart attribution: each recovery phase's mean, plus the part of the
/// open wall no phase covers. Means, unlike medians, add up: the phases
/// and the residual sum to the mean open wall, which is reported with
/// them and checked here.
fn put_recovery(tracer: &Tracer, out: &mut Metrics) {
    let cycles = &tracer.cycles;
    let phase_ms = |c: &cycle::Cycle, name: Option<&str>| -> f64 {
        c.report
            .phases
            .iter()
            .filter(|p| match name {
                Some(n) => p.name == n,
                None => PHASES.iter().all(|(known, _)| *known != p.name),
            })
            .map(|p| p.wall.as_nanos() as f64 / 1e6)
            .sum()
    };
    let mut residual = Vec::with_capacity(cycles.len());
    for c in cycles {
        let phases: f64 = c
            .report
            .phases
            .iter()
            .map(|p| p.wall.as_nanos() as f64 / 1e6)
            .sum();
        let r = c.open_ms - phases;
        assert!(
            r >= 0.0,
            "recovery phases ({phases} ms) exceed the open wall ({} ms)",
            c.open_ms
        );
        residual.push(r);
    }
    assert!(
        cycles.iter().all(|c| phase_ms(c, None) == 0.0),
        "open reported phases this benchmark does not attribute"
    );
    let open_ms: Vec<f64> = cycles.iter().map(|c| c.open_ms).collect();
    out.put("recovery.open_ms", mean(&open_ms), "ms");
    let mut attributed = 0.0;
    for (phase, metric) in PHASES {
        let ms: Vec<f64> = cycles.iter().map(|c| phase_ms(c, Some(phase))).collect();
        attributed += mean(&ms);
        out.put(metric, mean(&ms), "ms");
    }
    out.put("recovery.unattributed_ms", mean(&residual), "ms");
    let total = attributed + mean(&residual);
    assert!(
        (total - mean(&open_ms)).abs() <= 1e-6 * mean(&open_ms),
        "phases + unattributed = {total} ms, open wall = {} ms",
        mean(&open_ms)
    );
    let mut blocks: Vec<f64> = cycles
        .iter()
        .map(|c| c.report.heap_blocks_scanned as f64)
        .collect();
    out.put("recovery.heap_blocks_scanned", median(&mut blocks), "count");
    let mut read: Vec<f64> = cycles.iter().map(|c| c.read_us).collect();
    out.put("recovery.first_read_us", median(&mut read), "us");
    let mut write: Vec<f64> = cycles.iter().map(|c| c.write_us).collect();
    out.put("recovery.first_write_us", median(&mut write), "us");
}
