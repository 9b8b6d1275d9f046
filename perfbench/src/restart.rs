//! `restart`: the `point_read` image (200 000 rows, half of them unmerged
//! delta), built once during set-up. Each cycle drops the `Database`
//! without `shutdown`, which leaves in the page cache exactly what a
//! `SIGKILL` would, then runs `Database::open`, one verified point read
//! and one committed update (see [`crate::cycle`]).
//!
//! This is the paper's headline, instant restart, measured in the state
//! the engine actually restarts from: a live delta, no clean-shutdown
//! marker, so the full recovery ladder and undo pass run. The steady-state
//! read and write paths are barely touched.
//!
//! The timed operation (`op_p50_us`, `op_p90_us`) is one cycle from the
//! open to the committed update: timing the first read and the first write
//! with the open keeps a lazy rebuild from hiding restart cost in them.
//! `ops_per_s` counts cycles, the drop included.

use std::collections::HashMap;

use hyrise_nv::{Database, TableId};
use util::rng::{Rng, SmallRng};
use workload::ycsb::payload;

use crate::image::{self, Image, Loaded, VALUE_LEN};
use crate::point_read::ROWS;
use crate::stats::FOR_P90;
use crate::trace::{Kind, Off, Rec};
use crate::{cycle, Phase, Tally, Workload, IMAGES};

/// Keys read and updated, one per cycle; generated before timing.
const KEYS: usize = 1 << 16;
/// Processes an untraced run spreads each image's cycles over, each on a
/// fresh copy of the image. A process's restart times settle at a level of
/// their own, set by where the image's pages and the process's heap (which
/// holds the structures `open` rebuilds) land in memory, so an untraced
/// run pools `IMAGES × PROCESSES` processes and page placements.
const PROCESSES: u64 = 4;

pub struct Restart {
    seed: u64,
    loaded: Loaded,
    keys: Vec<i64>,
    next: usize,
    /// Payloads changed by earlier cycles; other keys hold `payload(key)`.
    updated: HashMap<i64, String>,
    /// Row versions committed since set-up (one per cycle).
    committed: u64,
    tally: Tally,
}

impl Restart {
    /// Child process `index` of an untraced run, on the image the parent
    /// built (`handle` from [`Image::handle`]) after `committed` updates.
    /// It reads and updates only keys `≡ index (mod PROCESSES)`, so no other
    /// process changes what its oracle expects.
    pub fn child(seed: u64, handle: &str, index: u64, committed: u64) -> Restart {
        let (fd, capacity) = handle
            .split_once(',')
            .and_then(|(fd, cap)| Some((fd.parse().ok()?, cap.parse().ok()?)))
            .expect("image handle is <fd>,<capacity>");
        Restart {
            seed,
            loaded: Loaded {
                db: None,
                image: Image::inherited(fd, capacity),
                // Set by the first cycle's open.
                table: TableId(0),
                setup_s: 0.0,
            },
            keys: keys(seed.wrapping_add(index), PROCESSES, index),
            next: 0,
            updated: HashMap::new(),
            committed,
            tally: Tally::default(),
        }
    }

    /// Run a child's cycles and print each cycle's latency, then its
    /// tally and the time its cycles took.
    pub fn run_child(mut self, seconds: f64) {
        let mut latency_us = Vec::new();
        let min = FOR_P90.div_ceil(IMAGES * PROCESSES as usize);
        let phase = self.cycles_for(&mut Off, seconds, min, &mut latency_us);
        for us in &latency_us {
            println!("cycle {us}");
        }
        let t = self.tally;
        println!(
            "tally {} {} {} {}",
            t.attempted, t.failed, self.committed, phase.seconds
        );
    }

    /// Cycles for at least `seconds` and at least `min` cycles.
    fn cycles_for<R: Rec>(
        &mut self,
        rec: &mut R,
        seconds: f64,
        min: usize,
        latency_us: &mut Vec<f64>,
    ) -> Phase {
        let start = std::time::Instant::now();
        let mut last = start;
        let mut ops = 0;
        while (last - start).as_secs_f64() < seconds || ops < min {
            let key = self.keys[self.next % KEYS];
            self.next += 1;
            let expected = self.expected(key);
            let fresh = payload(self.next as u64 ^ 0xC0FFEE, VALUE_LEN);
            let rows = ROWS + self.committed;
            let loaded = &mut self.loaded;
            let (cycle, ok) = rec.op(Kind::Cycle, |rec| {
                cycle::run(rec, loaded, key, &expected, &fresh, rows)
            });
            last = std::time::Instant::now();
            self.tally.record(ok);
            if ok {
                self.committed += 1;
                self.updated.insert(key, fresh);
            }
            if let Some(c) = cycle {
                latency_us.push(c.ready_us());
                ops += 1;
            }
        }
        Phase {
            ops: ops as u64,
            seconds: (last - start).as_secs_f64(),
        }
    }

    /// Drop the database without shutdown and run [`PROCESSES`] child
    /// processes one after another, each for an equal share of `seconds`,
    /// pooling their cycles; then reopen the image here and check it holds
    /// every committed update.
    fn cycles_in_children(&mut self, seconds: f64, latency_us: &mut Vec<f64>) -> Phase {
        self.loaded.db = None;
        let mut phase = Phase {
            ops: 0,
            seconds: 0.0,
        };
        let exe = std::env::current_exe().expect("path of this executable");
        let share = seconds / PROCESSES as f64;
        for index in 0..PROCESSES {
            self.loaded.image = self.loaded.image.copy();
            let out = std::process::Command::new(&exe)
                .args(["--workload", "restart", "--seconds", &share.to_string()])
                .args(["--seed", &self.seed.to_string()])
                .args(["--restart-child", &self.loaded.image.handle()])
                .args(["--child-index", &index.to_string()])
                .args(["--committed", &self.committed.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .expect("run a restart child process");
            assert!(
                out.status.success(),
                "restart child {index} failed: {}",
                out.status
            );
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let f: Vec<f64> = line
                    .split(' ')
                    .skip(1)
                    .map(|v| v.parse().expect("number from a restart child"))
                    .collect();
                match (line.split(' ').next(), f.as_slice()) {
                    (Some("cycle"), [us]) => {
                        latency_us.push(*us);
                        phase.ops += 1;
                    }
                    (Some("tally"), [attempted, failed, committed, seconds]) => {
                        self.tally.attempted += *attempted as u64;
                        self.tally.failed += *failed as u64;
                        self.committed = *committed as u64;
                        phase.seconds += seconds;
                    }
                    _ => panic!("unexpected line from a restart child: {line}"),
                }
            }
        }
        let reopened = Database::open(self.loaded.image.config());
        let ok = matches!(&reopened, Ok((_, r)) if r.rows_recovered == ROWS + self.committed);
        self.tally.record(ok);
        self.loaded.db = reopened.ok().map(|(db, _)| db);
        phase
    }
}

impl Workload for Restart {
    fn setup(seed: u64) -> Restart {
        let loaded = image::load(ROWS, ROWS / 2, image::capacity_for(ROWS + KEYS as u64));
        Restart {
            seed,
            loaded,
            keys: keys(seed, 1, 0),
            next: 0,
            updated: HashMap::new(),
            committed: 0,
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
        self.updated
            .get(&key)
            .cloned()
            .unwrap_or_else(|| payload(key as u64, VALUE_LEN))
    }

    fn phase<R: Rec>(&mut self, rec: &mut R, seconds: f64, latency_us: &mut Vec<f64>) -> Phase {
        self.cycles_for(rec, seconds, FOR_P90, latency_us)
    }

    fn measure(&mut self, seconds: f64, latency_us: &mut Vec<f64>) -> Phase {
        self.cycles_in_children(seconds, latency_us)
    }

    fn tally(&mut self) -> &mut Tally {
        &mut self.tally
    }
}

/// `KEYS` keys `≡ offset (mod stride)`, uniform over the table.
fn keys(seed: u64, stride: u64, offset: u64) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..KEYS)
        .map(|_| (rng.gen_range_u64(0, ROWS / stride) * stride + offset) as i64)
        .collect()
}
