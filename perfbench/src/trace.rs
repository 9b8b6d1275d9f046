//! Spans recorded from outside the engine.
//!
//! The program itself carries no tracing. In a traced run the workload
//! loop wraps each operation in a root span and each call it makes into
//! the `Database` façade in a child span, and snapshots the region's
//! `nvm_stats` and the heap's `heap_stats` at the same boundaries. Spans
//! are kept in memory and written out when the run ends. The untraced
//! runs use [`Off`], which compiles to the bare calls.
//!
//! The traced run traces every other operation and only times the rest,
//! so traced and untraced operations share the host's drift in speed and
//! their difference is the tracing overhead.
//!
//! The tracer also keeps what the façade returns beyond spans: each
//! restart cycle's `RecoveryReport` and timings, and each merge's
//! `MergeStats`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hyrise_nv::Database;
use nvm::{NvmHeap, NvmRegion};

use crate::cycle::Cycle;

/// What a span covers: the roots are operations, the rest façade calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write,
    Range,
    Agg,
    MergeOp,
    Cycle,
    Begin,
    IndexLookup,
    Update,
    Commit,
    Merge,
    ScanRange,
    Aggregate,
    Drop,
    Open,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "op.read",
            Kind::Write => "op.write",
            Kind::Range => "op.range",
            Kind::Agg => "op.agg",
            Kind::MergeOp => "op.merge",
            Kind::Cycle => "op.restart_cycle",
            Kind::Begin => "begin",
            Kind::IndexLookup => "index_lookup",
            Kind::Update => "update",
            Kind::Commit => "commit",
            Kind::Merge => "merge",
            Kind::ScanRange => "scan_range",
            Kind::Aggregate => "aggregate",
            Kind::Drop => "drop",
            Kind::Open => "open",
        }
    }
}

/// Counter movement across one span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub fences: u64,
    pub lines_flushed: u64,
    /// Change of the heap's live footprint (high water minus free bins).
    pub heap_live: i64,
}

impl Counters {
    fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            fences: self.fences - earlier.fences,
            lines_flushed: self.lines_flushed - earlier.lines_flushed,
            heap_live: self.heap_live - earlier.heap_live,
        }
    }

    pub fn plus(&self, other: &Counters) -> Counters {
        Counters {
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            fences: self.fences + other.fences,
            lines_flushed: self.lines_flushed + other.lines_flushed,
            heap_live: self.heap_live + other.heap_live,
        }
    }
}

/// One recorded span; `parent` is `None` for an operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Counters,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }
}

/// One merge, as the benchmark saw it.
#[derive(Debug, Clone, Copy)]
pub struct MergeNote {
    /// Wall time of `Database::merge`.
    pub ms: f64,
    /// Physical rows before the merge (`MergeStats::rows_before`).
    pub rows_before: u64,
    /// Physical rows per live key just before the merge.
    pub versions_per_key: f64,
}

/// How a workload loop records its operations and façade calls.
pub trait Rec {
    /// Run one operation as a root span.
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R;
    /// Run one façade call as a child of the current operation.
    fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R;
    /// Read counters from `db`'s image from now on (`None` detaches, so a
    /// dropped database's mapping is not kept alive).
    fn attach(&mut self, db: Option<&Database>);
    /// Keep one restart cycle's timings and report.
    fn cycled(&mut self, cycle: &Cycle);
    /// Keep one merge's figures.
    fn merged(&mut self, merge: MergeNote);
}

/// The untraced recorder: every method is the bare call.
pub struct Off;

impl Rec for Off {
    #[inline(always)]
    fn op<R>(&mut self, _: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }
    #[inline(always)]
    fn call<R>(&mut self, _: Kind, f: impl FnOnce() -> R) -> R {
        f()
    }
    fn attach(&mut self, _: Option<&Database>) {}
    fn cycled(&mut self, _: &Cycle) {}
    fn merged(&mut self, _: MergeNote) {}
}

/// The traced recorder.
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    current: Option<u32>,
    /// Whether the next operation is traced (operations alternate).
    trace_next: bool,
    /// Per operation kind: `[traced ns, traced ops, untraced ns, untraced
    /// ops]`, each timed around the whole `op` call.
    op_times: Vec<(Kind, [u64; 4])>,
    generation: u64,
    sources: Option<(Arc<NvmRegion>, NvmHeap)>,
    /// Spans held back for the epilogue until [`Tracer::end_workload`].
    reserve: usize,
    /// Spans recorded by the workload itself, before its epilogue.
    workload_spans: Option<usize>,
    /// [`Tracer::overhead_pct`] of the workload's own operations.
    overhead_pct: Option<f64>,
    pub cycles: Vec<Cycle>,
    pub merges: Vec<MergeNote>,
}

/// Spans kept in memory at most (about 45 MB).
const MAX_SPANS: usize = 600_000;
/// Spans kept free for the epilogue (its cycles take about ten each).
const EPILOGUE_SPANS: usize = 4_096;

impl Tracer {
    pub fn new(db: &Database) -> Tracer {
        let mut t = Tracer {
            t0: Instant::now(),
            spans: Vec::with_capacity(MAX_SPANS),
            current: None,
            trace_next: true,
            op_times: Vec::new(),
            generation: 0,
            sources: None,
            reserve: EPILOGUE_SPANS,
            workload_spans: None,
            overhead_pct: None,
            cycles: Vec::new(),
            merges: Vec::new(),
        };
        t.attach(Some(db));
        t
    }

    /// Absolute counter readings of the attached image.
    fn snapshot(&self) -> Counters {
        match &self.sources {
            Some((region, heap)) => {
                let s = region.stats();
                let h = heap.stats();
                Counters {
                    bytes_read: s.bytes_read,
                    bytes_written: s.bytes_written,
                    fences: s.fences,
                    lines_flushed: s.lines_flushed,
                    heap_live: h.high_water as i64 - h.free_bytes as i64,
                }
            }
            None => Counters::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn record<R>(
        &mut self,
        kind: Kind,
        parent: Option<u32>,
        slot: Option<usize>,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let generation = self.generation;
        let before = self.snapshot();
        let start_ns = self.now_ns();
        let out = f(self);
        let end_ns = self.now_ns();
        let after = self.snapshot();
        // A span during which the database was reopened reads its counters
        // from two different images; it reports no counter movement.
        let counters = if generation == self.generation {
            after.since(&before)
        } else {
            Counters::default()
        };
        let span = Span {
            kind,
            parent,
            start_ns,
            end_ns,
            counters,
        };
        match slot {
            Some(i) => self.spans[i] = span,
            None => self.spans.push(span),
        }
        out
    }

    /// How many more spans fit in memory.
    fn room(&self) -> usize {
        MAX_SPANS.saturating_sub(self.spans.len())
    }

    /// All spans of `kind`.
    pub fn spans(&self, kind: Kind) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Durations of all spans of `kind`, in ns.
    pub fn durations_ns(&self, kind: Kind) -> Vec<f64> {
        self.spans(kind).map(Span::ns).collect()
    }

    /// Mark the end of the workload's own operations: fixes the tracing
    /// overhead and the span range of [`Tracer::workload_roots`], and
    /// frees the spans held back for the epilogue.
    pub fn end_workload(&mut self) {
        self.overhead_pct = Some(self.op_overhead_pct());
        self.workload_spans = Some(self.spans.len());
        self.reserve = 0;
    }

    /// The tracing overhead of the workload's own operations.
    pub fn overhead_pct(&self) -> f64 {
        self.overhead_pct
            .expect("overhead fixed at the end of the workload")
    }

    /// The workload's traced operations, each with the counters its
    /// façade calls moved, summed. (An operation's own counters are not
    /// used: a restart cycle reopens the image, so its span reports none.)
    pub fn workload_roots(&self) -> Vec<Counters> {
        let end = self.workload_spans.expect("workload ended");
        let mut sums = vec![None; end];
        for (i, s) in self.spans[..end].iter().enumerate() {
            match s.parent {
                None => sums[i] = Some(Counters::default()),
                Some(p) => {
                    let sum = sums[p as usize].as_mut().expect("parent precedes child");
                    *sum = sum.plus(&s.counters);
                }
            }
        }
        sums.into_iter().flatten().collect()
    }

    /// Extra time per traced operation over an untraced one of the same
    /// kind, in percent of the untraced time, weighted by each kind's
    /// share of the untraced time.
    fn op_overhead_pct(&self) -> f64 {
        let (mut weighted, mut weight) = (0.0, 0.0);
        for (_, [t_ns, t_n, u_ns, u_n]) in &self.op_times {
            if *t_n > 0 && *u_n > 0 {
                let ratio = (*t_ns as f64 / *t_n as f64) / (*u_ns as f64 / *u_n as f64);
                weighted += ratio * *u_ns as f64;
                weight += *u_ns as f64;
            }
        }
        (weighted / weight - 1.0) * 100.0
    }

    /// Per span kind: count, total time and self time (duration minus the
    /// time its children cover), in ms, as an aligned table.
    pub fn self_time_table(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e6;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6;
            match rows.iter_mut().find(|r| r.0 == s.kind.name()) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.kind.name(), 1, total, own)),
            }
        }
        let mut out = format!(
            "{:<18} {:>9} {:>12} {:>12}\n",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, n, total, own) in rows {
            let _ = writeln!(out, "{name:<18} {n:>9} {total:>12.3} {own:>12.3}");
        }
        out
    }

    /// Write every span as one CSV line to `path`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "id,parent,span,start_ns,end_ns,bytes_read,bytes_written,fences,lines_flushed,heap_live_delta"
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let c = s.counters;
            writeln!(
                w,
                "{i},{},{},{},{},{},{},{},{},{}",
                s.parent.map_or(-1, i64::from),
                s.kind.name(),
                s.start_ns,
                s.end_ns,
                c.bytes_read,
                c.bytes_written,
                c.fences,
                c.lines_flushed,
                c.heap_live
            )?;
        }
        w.flush()
    }
}

impl Rec for Tracer {
    fn op<R>(&mut self, kind: Kind, f: impl FnOnce(&mut Self) -> R) -> R {
        // Once the spans are used up, operations are neither traced nor
        // counted as untraced, so both classes cover the same time span.
        if self.room() < 16 + self.reserve {
            return f(self);
        }
        let traced = self.trace_next;
        self.trace_next = !traced;
        let t0 = Instant::now();
        let out = if traced {
            let id = self.spans.len() as u32;
            // Reserve the operation's slot so its id precedes its children's.
            self.spans.push(Span {
                kind,
                parent: None,
                start_ns: 0,
                end_ns: 0,
                counters: Counters::default(),
            });
            self.current = Some(id);
            let out = self.record(kind, None, Some(id as usize), f);
            self.current = None;
            out
        } else {
            f(self)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        let i = match self.op_times.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                self.op_times.push((kind, [0; 4]));
                self.op_times.len() - 1
            }
        };
        let slot = if traced { 0 } else { 2 };
        self.op_times[i].1[slot] += ns;
        self.op_times[i].1[slot + 1] += 1;
        out
    }

    fn call<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        match self.current {
            Some(parent) => self.record(kind, Some(parent), None, |_| f()),
            None => f(),
        }
    }

    fn attach(&mut self, db: Option<&Database>) {
        self.generation += 1;
        self.sources = db
            .and_then(|db| db.nv_backend())
            .map(|b| (b.region().clone(), b.heap().clone()));
    }

    fn cycled(&mut self, cycle: &Cycle) {
        self.cycles.push(cycle.clone());
    }

    fn merged(&mut self, merge: MergeNote) {
        self.merges.push(merge);
    }
}
