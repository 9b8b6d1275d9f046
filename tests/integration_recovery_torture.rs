//! Crash-during-recovery torture: nested crash chains scheduled *inside*
//! recovery itself, recursively to depth 3, across all three durability
//! backends and composed with media faults and capacity exhaustion.
//!
//! A chain is one workload crash `p0` followed by `k-1` crashes scheduled
//! at sampled fence/mid-epoch points of the recovery that follows — each
//! `restart_scheduled_traced(p_i)` call models one power cycle whose
//! recovery is itself cut down by the next scheduled point. After the
//! terminal recovery the harness checks the four crash-torture invariants
//! (committed-prefix durability, no uncommitted effects, allocator
//! leak-freedom, index↔table agreement) **plus convergence**: the chain
//! must land in exactly the logical state of the single-crash oracle run
//! (same seed, same `p0`, no nested crashes), because everything recovery
//! writes is either re-derivable or guarded by the monotone
//! recovery-progress word.
//!
//! Chain counts scale with `RECOVERY_TORTURE_SCENARIOS` (default 100 per
//! scenario class) and nesting with `RECOVERY_TORTURE_DEPTH` (default 3);
//! failures shrink to the smallest nested chain that still reproduces and
//! are written as replay artifacts under `results/`.

use std::path::PathBuf;

use hyrise_nv::torture::{
    apply_workload, check_invariants, engine_state, env_usize, gen_workload_sized, setup_tables,
    Oracle, TortureTxn as Txn, TortureViolation as Violation,
};
use hyrise_nv::{Database, DurabilityConfig, TableId};
use nvm::{
    AllocFaultClass, AllocFaultSpec, CrashPoint, CrashSchedule, FaultClass, FaultSpec,
    LatencyModel, TraceConfig, CACHE_LINE,
};
use storage::Value;
use util::rng::{Rng, SmallRng};

/// This suite's workloads are a little shorter than the crash-torture
/// default: 8..20 transactions per seed.
fn gen_workload(seed: u64) -> Vec<Txn> {
    gen_workload_sized(seed, 8..20)
}

/// Which NVM-backed durability mode a scenario class runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NvKind {
    /// Plain NVM: flush/fence ordering only, no shadow WAL.
    Plain,
    /// NVM primary plus shadow WAL (enables the full recovery ladder).
    WithWal,
}

fn fresh_db(kind: NvKind) -> (Database, TableId) {
    let cfg = match kind {
        NvKind::Plain => DurabilityConfig::nvm(16 << 20, LatencyModel::zero()),
        NvKind::WithWal => DurabilityConfig::nvm_with_wal(16 << 20, LatencyModel::zero()),
    };
    let mut db = Database::create(cfg).unwrap();
    let t = setup_tables(&mut db).unwrap();
    (db, t)
}

fn run_workload(db: &mut Database, t: TableId, txns: &[Txn], snaps: &mut Vec<(u64, Oracle)>) {
    apply_workload(db, t, txns, snaps, |_, _| {}).unwrap();
}

/// Pre-trace preload for the media-fault classes: a merged main partition
/// gives the fault injector durable checksummed extents to aim at. Runs
/// before `trace_start`, so it shifts no traced fence numbering.
fn preload_main(db: &mut Database, t: TableId, snaps: &mut Vec<(u64, Oracle)>) {
    let mut oracle = snaps.last().map(|(_, o)| o.clone()).unwrap_or_default();
    for batch in 0..4i64 {
        let mut tx = db.begin();
        for k in 0..16i64 {
            let key = 2000 + batch * 16 + k;
            db.insert(&mut tx, t, &[Value::Int(key), Value::Int(1)])
                .unwrap();
            oracle.insert(key, 1);
        }
        let cts = db.commit(&mut tx).unwrap();
        snaps.push((cts, oracle.clone()));
    }
    db.merge(t).unwrap();
}

/// Outcome of a successfully recovered chain.
struct ChainResult {
    state: Oracle,
    last_cts: u64,
    /// Progress-word attempt number reported by the terminal recovery.
    attempt: u64,
    lint_findings: usize,
}

/// Pick a deterministic media-fault spec aimed strictly inside a
/// checksummed extent (interior lines only). Must be called on the live
/// pre-crash engine; the layout is a pure function of the seed, so the
/// oracle and chain runs of one scenario pick the identical target.
fn pick_fault(db: &Database, t: TableId, seed: u64) -> FaultSpec {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA01_7A6E);
    let extents: Vec<_> = db
        .media_extents(t)
        .unwrap()
        .into_iter()
        .filter(|e| e.checksummed && e.len >= 3 * CACHE_LINE)
        .collect();
    assert!(!extents.is_empty(), "workload left no checksummed extents");
    let e = extents[rng.gen_range_usize(0, extents.len())];
    let lo = e.offset + CACHE_LINE;
    let hi = e.offset + e.len - CACHE_LINE;
    let offset = lo + rng.gen_range_u64(0, hi - lo);
    let room = (e.offset + e.len - CACHE_LINE).saturating_sub(offset);
    FaultSpec {
        class: FaultClass::ScribbledBlock {
            len: 96.min(room.max(8)),
        },
        offset,
        seed,
    }
}

/// Extra adversity applied to a chain between the workload crash and the
/// first recovery — identical in the oracle and chain runs of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Adversity {
    None,
    /// Scribble a checksummed extent in *both* images while crashed, so
    /// every recovery of the chain faces the same damaged media.
    MediaFault,
    /// Arm a one-shot allocation fault so the first recovery attempt that
    /// needs heap space (the media-repair rebuild) fails outright and must
    /// be retried by the next power cycle.
    MediaFaultThenAllocFault,
}

/// Run one nested-crash chain: workload crashed at `p0`, then one power
/// cycle per nested point, then a terminal recovery. Checks the four
/// crash-torture invariants; convergence is the caller's job (it needs
/// the oracle run).
fn run_chain(
    kind: NvKind,
    seed: u64,
    txns: &[Txn],
    p0: CrashPoint,
    nested: &[CrashPoint],
    adversity: Adversity,
) -> Result<ChainResult, Violation> {
    let (mut db, t) = fresh_db(kind);
    let mut snaps: Vec<(u64, Oracle)> = vec![(0, Oracle::new())];
    if adversity != Adversity::None {
        preload_main(&mut db, t, &mut snaps);
    }
    let region = db.nv_backend().unwrap().region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    region.arm_crash(p0).unwrap();

    run_workload(&mut db, t, txns, &mut snaps);

    if adversity != Adversity::None {
        // The damage lands in both images, so it survives the crash
        // materialization exactly like real media decay over a power loss.
        let spec = pick_fault(&db, t, seed);
        region.inject_fault(&spec).unwrap();
    }
    if adversity == Adversity::MediaFaultThenAllocFault {
        db.arm_alloc_fault(AllocFaultSpec {
            class: AllocFaultClass::FailNth { nth: 0 },
            seed,
        })
        .unwrap();
    }

    let mut lint_findings = 0usize;
    // Each traced restart materializes the previous crash and arms the
    // next one inside its own recovery. A failed attempt (e.g. the armed
    // allocation fault firing mid-rebuild) leaves the trace active and the
    // crashed image untouched; the next iteration retries the power cycle.
    for p in nested {
        match db.restart_scheduled_traced(Some(*p)) {
            Ok(rep) => lint_findings += rep.lint_findings.len(),
            Err(e) if adversity == Adversity::MediaFaultThenAllocFault => {
                let _ = e; // expected: the one-shot alloc fault fired
            }
            Err(e) => {
                return Err(Violation {
                    invariant: "recovery",
                    detail: format!("seed {seed:#x}: nested recovery failed: {e}"),
                })
            }
        }
    }
    let report = db.restart_scheduled().map_err(|e| Violation {
        invariant: "recovery",
        detail: format!("seed {seed:#x}: terminal recovery failed: {e}"),
    })?;
    lint_findings += report.lint_findings.len();

    check_invariants(&mut db, t, &snaps, report.last_cts, seed)?;
    let got = engine_state(&mut db, t).unwrap();

    Ok(ChainResult {
        state: got,
        last_cts: report.last_cts,
        attempt: report.attempt,
        lint_findings,
    })
}

/// Reference run: how many fences does the recovery after `p0` issue?
/// Nested points are sampled from this budget; later recoveries of a chain
/// may issue slightly more or fewer, and an out-of-range fence simply
/// degrades to a crash at the end of a completed recovery.
fn recovery_fence_budget(kind: NvKind, txns: &[Txn], p0: CrashPoint, adversity: Adversity) -> u64 {
    let (mut db, t) = fresh_db(kind);
    let mut snaps = vec![(0, Oracle::new())];
    if adversity != Adversity::None {
        preload_main(&mut db, t, &mut snaps);
    }
    let region = db.nv_backend().unwrap().region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    region.arm_crash(p0).unwrap();
    run_workload(&mut db, t, txns, &mut snaps);
    if adversity != Adversity::None {
        let spec = pick_fault(&db, t, 0x0BAD_5EED);
        region.inject_fault(&spec).unwrap();
    }
    db.restart_scheduled_traced(None).unwrap();
    let fences = region.trace_fences();
    let _ = region.trace_stop();
    fences.max(1)
}

/// Workload-phase fence budget for `p0` sampling.
fn workload_fence_budget(kind: NvKind, txns: &[Txn], adversity: Adversity) -> u64 {
    let (mut db, t) = fresh_db(kind);
    let mut snaps = vec![(0, Oracle::new())];
    if adversity != Adversity::None {
        preload_main(&mut db, t, &mut snaps);
    }
    let region = db.nv_backend().unwrap().region().clone();
    region.trace_start(TraceConfig { keep_events: false });
    run_workload(&mut db, t, txns, &mut snaps);
    let fences = region.trace_stop().unwrap().fences;
    assert!(fences > 0);
    fences
}

fn results_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../../results");
    let _ = std::fs::create_dir_all(&p);
    p.push(name);
    p
}

/// Replay artifact: seed, workload point, and the full nested chain, so a
/// failure reproduces with one targeted run.
fn write_repro(
    class: &str,
    seed: u64,
    p0: CrashPoint,
    nested: &[CrashPoint],
    shrunk: &[CrashPoint],
    v: &Violation,
) {
    let suite = format!("recovery_torture/{class}");
    let p0_s = format!("{p0:?}");
    let nested_s = format!("{nested:?}");
    let shrunk_s = format!("{shrunk:?}");
    util::repro::write(
        &results_path("recovery_torture_repro.jsonl"),
        &suite,
        seed,
        [
            ("workload_point", p0_s.as_str()),
            ("nested_chain", nested_s.as_str()),
            ("shrunk_chain", shrunk_s.as_str()),
            ("invariant", v.invariant),
            ("detail", v.detail.as_str()),
        ],
    );
}

/// Shrink a failing nested chain: first drop points from the tail (a
/// shorter chain that still fails is strictly more informative), then
/// lower the last surviving point to the smallest fence that reproduces.
fn shrink_chain(
    kind: NvKind,
    seed: u64,
    txns: &[Txn],
    p0: CrashPoint,
    nested: &[CrashPoint],
    adversity: Adversity,
) -> (Vec<CrashPoint>, Violation) {
    let mut chain: Vec<CrashPoint> = nested.to_vec();
    let mut last_v = None;
    while chain.len() > 1 {
        let shorter = &chain[..chain.len() - 1];
        match run_chain(kind, seed, txns, p0, shorter, adversity) {
            Err(v) => {
                chain.pop();
                last_v = Some(v);
            }
            Ok(_) => break,
        }
    }
    if let Some(last) = chain.last().copied() {
        let limit = last.trip_fence().min(24);
        for fence in 1..=limit {
            let mut candidate = chain.clone();
            *candidate.last_mut().unwrap() = CrashPoint::AtFence { fence };
            if let Err(v) = run_chain(kind, seed, txns, p0, &candidate, adversity) {
                return (candidate, v);
            }
        }
    }
    match last_v {
        Some(v) => (chain, v),
        None => {
            let v = run_chain(kind, seed, txns, p0, &chain, adversity)
                .err()
                .expect("failure must reproduce");
            (chain, v)
        }
    }
}

fn scenario_count() -> usize {
    env_usize("RECOVERY_TORTURE_SCENARIOS", 100)
}

fn max_depth() -> usize {
    env_usize("RECOVERY_TORTURE_DEPTH", 3).clamp(1, 3)
}

/// One scenario class: `chains` nested-crash chains against `kind`, with
/// nesting depth cycling 1..=max_depth and convergence checked against the
/// per-`p0` single-crash oracle.
fn torture_class(class: &'static str, kind: NvKind, adversity: Adversity, seed_base: u64) {
    let chains = scenario_count();
    let depth_cap = max_depth();
    let per_seed = 20usize;
    let nseeds = chains.div_ceil(per_seed).max(1);
    let mut run = 0usize;
    let mut attempts_seen = 0u64;
    let mut lints = 0usize;
    for s in 0..nseeds {
        if run >= chains {
            break;
        }
        let seed = seed_base.wrapping_add(s as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);
        let f_work = workload_fence_budget(kind, &txns, adversity);
        let want = per_seed.min(chains - run);
        let p0s = CrashSchedule::sample(f_work, want, seed ^ 0xA4);
        // One recovery-fence reference run per workload seed: nested
        // points for all of this seed's chains are sampled from it.
        let f_rec = recovery_fence_budget(kind, &txns, p0s[0], adversity);
        for (i, p0) in p0s.iter().enumerate() {
            // Depth cycles 1..=cap so every class covers plain re-entry
            // (depth 1 ≡ the oracle itself) through doubly nested chains.
            let depth = 1 + (run % depth_cap);
            let nested = if depth > 1 {
                CrashSchedule::sample(f_rec, depth - 1, seed ^ (i as u64) << 16)
            } else {
                Vec::new()
            };

            let oracle = run_chain(kind, seed, &txns, *p0, &[], adversity).unwrap_or_else(|v| {
                panic!(
                    "{class}: seed {seed:#x} {p0:?}: single-crash oracle run violated \
                     `{}`: {}",
                    v.invariant, v.detail
                )
            });
            match run_chain(kind, seed, &txns, *p0, &nested, adversity) {
                Ok(chain) => {
                    if chain.state != oracle.state || chain.last_cts != oracle.last_cts {
                        let v = Violation {
                            invariant: "convergence",
                            detail: format!(
                                "seed {seed:#x}: chain (cts {}, {} rows) diverges from \
                                 single-crash oracle (cts {}, {} rows)",
                                chain.last_cts,
                                chain.state.len(),
                                oracle.last_cts,
                                oracle.state.len()
                            ),
                        };
                        write_repro(class, seed, *p0, &nested, &nested, &v);
                        panic!(
                            "{class}: chain {run} {p0:?} + {nested:?}: {} — {}",
                            v.invariant, v.detail
                        );
                    }
                    attempts_seen = attempts_seen.max(chain.attempt);
                    lints += chain.lint_findings;
                }
                Err(_) => {
                    let (shrunk, v) = shrink_chain(kind, seed, &txns, *p0, &nested, adversity);
                    write_repro(class, seed, *p0, &nested, &shrunk, &v);
                    panic!(
                        "{class}: chain {run} seed {seed:#x} {p0:?} + {nested:?}: invariant \
                         `{}` violated (shrunk to {shrunk:?}, repro written to \
                         results/recovery_torture_repro.jsonl): {}",
                        v.invariant, v.detail
                    );
                }
            }
            run += 1;
        }
    }
    eprintln!(
        "{class}: {run} chains converged (max recovery attempt #{attempts_seen}, \
         {lints} informational lint reads)"
    );
}

/// Depth-1..3 nested chains against NVM + shadow WAL — the full recovery
/// ladder (undo pass, poison retries, shadow re-baseline) re-entered under
/// arbitrary mid-recovery crashes.
#[test]
fn nested_chains_converge_nvm_with_wal() {
    torture_class(
        "nvm-with-wal",
        NvKind::WithWal,
        Adversity::None,
        0xA7_0001u64,
    );
}

/// Depth-1..3 nested chains against the plain NVM backend (no shadow WAL):
/// convergence must come from idempotent re-derivation alone.
#[test]
fn nested_chains_converge_plain_nvm() {
    torture_class("nvm-plain", NvKind::Plain, Adversity::None, 0xA7_0002u64);
}

/// Media-fault composition: the crash image carries a scribbled
/// checksummed extent, so every recovery of the chain must detect the
/// damage and climb the ladder — and a crash *inside* that repair must
/// still converge to the single-crash (same-fault) oracle.
#[test]
fn media_fault_chains_converge() {
    torture_class(
        "media-fault",
        NvKind::WithWal,
        Adversity::MediaFault,
        0xA7_0003u64,
    );
}

/// Exhaustion composition: the first post-crash recovery attempt hits a
/// one-shot allocation fault while repairing damaged media. The attempt
/// fails (or degrades) without panicking or leaking, and the next power
/// cycle retries to full convergence.
#[test]
fn failed_recovery_attempt_retries_to_convergence() {
    let chains = scenario_count().div_ceil(4).max(4);
    let mut retried = 0usize;
    for c in 0..chains {
        let seed = 0xA7_0004u64.wrapping_add(c as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);
        let f_work = workload_fence_budget(NvKind::WithWal, &txns, Adversity::MediaFault);
        let p0 = CrashSchedule::sample(f_work, 1, seed ^ 0xA4)[0];

        let oracle = run_chain(NvKind::WithWal, seed, &txns, p0, &[], Adversity::MediaFault)
            .unwrap_or_else(|v| {
                panic!(
                    "seed {seed:#x}: media-fault oracle violated `{}`: {}",
                    v.invariant, v.detail
                )
            });
        // The chain takes the same crash and the same media damage, but
        // its first recovery attempt is cut down by the allocation fault;
        // `run_chain` retries via the terminal power cycle.
        let chain = run_chain(
            NvKind::WithWal,
            seed,
            &txns,
            p0,
            &[CrashPoint::AtFence { fence: u64::MAX }],
            Adversity::MediaFaultThenAllocFault,
        )
        .unwrap_or_else(|v| {
            panic!(
                "seed {seed:#x}: alloc-faulted chain violated `{}`: {}",
                v.invariant, v.detail
            )
        });
        assert_eq!(
            chain.state, oracle.state,
            "seed {seed:#x}: retried recovery diverges from the single-crash oracle"
        );
        assert_eq!(chain.last_cts, oracle.last_cts, "seed {seed:#x}");
        if chain.attempt > 1 {
            retried += 1;
        }
    }
    eprintln!("alloc-fault composition: {retried}/{chains} chains recorded a re-entrant attempt");
}

/// WAL-backend class: file-based recovery durable-writes nothing until it
/// completes, so a crash at *any* point inside it is equivalent to a crash
/// at entry — chains of k power cycles are modeled as k repeated restarts
/// and must converge to the single-restart oracle.
#[test]
fn wal_backend_chains_converge_by_repeated_restart() {
    let chains = scenario_count();
    let depth_cap = max_depth();
    for c in 0..chains {
        let seed = 0xA7_0005u64.wrapping_add(c as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);
        let depth = 1 + (c % depth_cap);

        let run = |cycles: usize| {
            let mut db = Database::create(DurabilityConfig::wal_temp()).unwrap();
            let t = setup_tables(&mut db).unwrap();
            let mut snaps = vec![(0, Oracle::new())];
            run_workload(&mut db, t, &txns, &mut snaps);
            let mut last_cts = 0;
            for _ in 0..cycles {
                last_cts = db.restart_after_crash().unwrap().last_cts;
            }
            check_invariants(&mut db, t, &snaps, last_cts, seed).unwrap_or_else(|v| {
                panic!("cycles {cycles}: `{}` violated: {}", v.invariant, v.detail)
            });
            (engine_state(&mut db, t).unwrap(), last_cts)
        };

        let oracle = run(1);
        let chain = run(depth);
        assert_eq!(
            chain, oracle,
            "seed {seed:#x}: {depth} restarts diverge from a single restart"
        );
    }
}

/// Nested chains while the allocator is at the brim: the workload drives
/// the heap against a capacity clamp before crashing, so every recovery of
/// the chain re-enters against near-exhausted space.
#[test]
fn exhaustion_chains_converge() {
    let chains = scenario_count().div_ceil(4).max(4);
    let depth_cap = max_depth();
    for c in 0..chains {
        let seed = 0xA7_0006u64.wrapping_add(c as u64 * 0x9E37_79B9);
        let txns = gen_workload(seed);

        // Clamp the heap to just above its post-workload live size, then
        // crash: recovery runs with almost no free space.
        let clamp = {
            let (mut db, t) = fresh_db(NvKind::WithWal);
            let mut snaps = vec![(0, Oracle::new())];
            run_workload(&mut db, t, &txns, &mut snaps);
            let s = db.heap_stats().unwrap();
            (s.high_water - s.free_bytes) + 32 * 1024
        };

        let run = |nested: &[CrashPoint]| -> ChainResult {
            let (mut db, t) = fresh_db(NvKind::WithWal);
            let region = db.nv_backend().unwrap().region().clone();
            region.trace_start(TraceConfig { keep_events: false });
            let mut snaps = vec![(0, Oracle::new())];
            run_workload(&mut db, t, &txns, &mut snaps);
            db.set_capacity_clamp(Some(clamp)).unwrap();
            region
                .arm_crash(CrashPoint::AtFence { fence: u64::MAX })
                .unwrap();
            for p in nested {
                db.restart_scheduled_traced(Some(*p))
                    .unwrap_or_else(|e| panic!("seed {seed:#x}: brim recovery failed: {e}"));
            }
            let report = db
                .restart_scheduled()
                .unwrap_or_else(|e| panic!("seed {seed:#x}: brim recovery failed: {e}"));
            let integrity = db.verify_integrity().unwrap();
            assert!(
                integrity.heap_limbo_blocks == 0 && integrity.is_clean(),
                "seed {seed:#x}: {}",
                integrity.render()
            );
            ChainResult {
                state: engine_state(&mut db, t).unwrap(),
                last_cts: report.last_cts,
                attempt: report.attempt,
                lint_findings: report.lint_findings.len(),
            }
        };

        let oracle = run(&[]);
        let depth = 1 + (c % depth_cap);
        let nested: Vec<CrashPoint> = (0..depth - 1)
            .map(|i| CrashPoint::AtFence {
                fence: 1 + (seed >> (8 * i)) % 8,
            })
            .collect();
        let chain = run(&nested);
        assert_eq!(
            chain.state, oracle.state,
            "seed {seed:#x}: brim chain diverges from single-crash oracle"
        );
        assert_eq!(chain.last_cts, oracle.last_cts, "seed {seed:#x}");
    }
}
