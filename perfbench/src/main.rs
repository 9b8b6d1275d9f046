//! The repository benchmark: four seeded workloads against the public
//! `Database` API of the file-backed engine.
//!
//! ```text
//! perfbench --workload <point_read|write_mix|scan|restart> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-dir <dir>]
//! ```
//!
//! (`--restart-child`, `--child-index` and `--committed` are set only by
//! an untraced `restart` run for the child processes it starts.)
//!
//! Each workload is a closed loop: one client thread issues the next
//! operation only after the previous one has completed, matching the
//! single-writer `&mut self` façade. Operations are generated from the
//! seed before they are timed, and every result is checked against an
//! oracle kept in DRAM; a mismatch or an engine error counts as a failed
//! operation and fails the run.
//!
//! With `--trace 0` the run measures for `--seconds` and prints the
//! end-to-end metrics. With `--trace 1` it runs for `--seconds`, tracing
//! every other operation (see [`trace`]), then runs the epilogue of
//! [`layers`], prints the per-layer metrics, and writes the spans to
//! `<trace-dir>/<workload>.csv`. Every workload prints the same metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! See `README.md` next to this crate for why each workload exists.

mod cycle;
mod image;
mod layers;
mod ops;
mod point_read;
mod probes;
mod restart;
mod scan;
mod stats;
mod trace;
mod write_mix;

use std::path::PathBuf;

use image::Loaded;
use stats::{median, tail};
use trace::{Off, Rec, Tracer};

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Appends metrics to a report.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "{name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }
}

/// Images an untraced run measures on, one after another, each freshly
/// set up and measured for an equal share of `--seconds`. Where an
/// image's pages land in memory sets its speed: on a 2-vCPU VM, four
/// images of the same `point_read` table read at medians of 1.4 to 2.1 µs,
/// each steady within 3 % over 8 s. Pooling several images keeps one
/// unlucky placement from setting a run's figures.
pub const IMAGES: usize = 6;

/// Latency samples a run keeps at most (64 MB, touched before timing so
/// that `peak_rss_mb` does not depend on how fast the operations ran). A
/// phase that fills it ends early.
pub const MAX_SAMPLES: usize = 1 << 23;

/// What one measured phase did.
pub struct Phase {
    /// Operations completed.
    pub ops: u64,
    /// Wall time the operations took, in seconds.
    pub seconds: f64,
}

/// Operations attempted and failed, across every phase of a run.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` is false for an engine error or a result
    /// that disagrees with the oracle.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A workload after set-up.
pub trait Workload: Sized {
    /// Build the workload's image, and its operations from `seed`.
    fn setup(seed: u64) -> Self;
    /// The image, its open database and its set-up time.
    fn loaded(&self) -> &Loaded;
    fn loaded_mut(&mut self) -> &mut Loaded;
    /// Live keys, `0..live_rows()`: rows visible to a reader.
    fn live_rows(&self) -> u64;
    /// The payload a read of `key` must return now.
    fn expected(&self, key: i64) -> String;
    /// Run operations for about `seconds`, recording through `rec` and
    /// appending the latency of each timed operation, in µs, to
    /// `latency_us` (which operations, each workload's documentation says).
    fn phase<R: Rec>(&mut self, rec: &mut R, seconds: f64, latency_us: &mut Vec<f64>) -> Phase;
    /// The untraced measurement behind the end-to-end metrics.
    fn measure(&mut self, seconds: f64, latency_us: &mut Vec<f64>) -> Phase {
        self.phase(&mut Off, seconds, latency_us)
    }
    fn tally(&mut self) -> &mut Tally;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    /// Set in a `restart` child process: the parent's image handle, the
    /// child's index and the updates committed before it.
    child: Option<(String, u64, u64)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        trace_dir: PathBuf::from("perfbench/traces"),
        child: None,
    };
    let (mut handle, mut index, mut committed) = (None, 0, 0);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            "--restart-child" => handle = Some(value),
            "--child-index" => index = value.parse().map_err(|e| bad(&e))?,
            "--committed" => committed = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.child = handle.map(|h| (h, index, committed));
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range (0, 600]", args.seconds));
    }
    Ok(args)
}

fn drive<W: Workload>(args: &Args) -> (Tally, Metrics) {
    let mut out = Metrics::default();
    let mut tally = Tally::default();
    let mut latency_us = vec![1.0; MAX_SAMPLES];
    latency_us.clear();
    if !args.trace {
        let (mut ops, mut seconds, mut setup_s) = (0, 0.0, Vec::new());
        let mut last: Option<W> = None;
        for _ in 0..IMAGES {
            // Only one image is resident at a time.
            drop(last.take());
            let mut w = W::setup(args.seed);
            setup_s.push(w.loaded().setup_s);
            let phase = w.measure(args.seconds / IMAGES as f64, &mut latency_us);
            ops += phase.ops;
            seconds += phase.seconds;
            tally.add(*w.tally());
            last = Some(w);
        }
        let w = last.expect("at least one image");
        out.put("setup_s", median(&mut setup_s), "s");
        out.put("ops_per_s", ops as f64 / seconds, "ops/s");
        out.put("op_p50_us", median(&mut latency_us), "us");
        out.put("op_p90_us", tail(&mut latency_us, 0.9, "operation"), "us");
        out.put(
            "bytes_per_user_byte",
            image::bytes_per_user_byte(w.loaded().db(), w.live_rows()),
            "ratio",
        );
        out.put("peak_rss_mb", image::peak_rss_mb(), "MB");
    } else {
        let mut w = W::setup(args.seed);
        let mut tracer = Tracer::new(w.loaded().db());
        w.phase(&mut tracer, args.seconds, &mut latency_us);
        tracer.end_workload();
        layers::epilogue(&mut w, &mut tracer, args.seed);
        layers::put(&tracer, w.loaded(), args.seed, &mut out);
        tally = *w.tally();
        eprintln!("{}", tracer.self_time_table());
        let path = args.trace_dir.join(format!("{}.csv", args.workload));
        if let Err(e) = tracer.write_csv(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    (tally, out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some((handle, index, committed)) = &args.child {
        restart::Restart::child(args.seed, handle, *index, *committed).run_child(args.seconds);
        return;
    }
    let (tally, metrics) = match args.workload.as_str() {
        "point_read" => drive::<point_read::PointRead>(&args),
        "write_mix" => drive::<write_mix::WriteMix>(&args),
        "scan" => drive::<scan::Scan>(&args),
        "restart" => drive::<restart::Restart>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
