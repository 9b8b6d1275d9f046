//! Where the database images live, and how they are built.
//!
//! Every image is an anonymous memory file (`memfd_create`). That gives
//! the same storage the engine would get from a file on tmpfs: a
//! `MAP_SHARED` mapping whose `msync(MS_SYNC)` at every fence is a
//! page-cache operation, not a device write. The engine opens the image
//! by path, `/proc/self/fd/<fd>`, exactly as it would open a file.
//!
//! Using anonymous files settles the image lifecycle without any cleanup
//! code: an image exists only while this process holds its descriptor, so
//! it is gone on exit, on panic and on `SIGKILL` alike. A killed earlier
//! run therefore leaves no stale image behind, and repeated runs can never
//! fill `/dev/shm` or write anywhere outside the process.
//!
//! Flush policy (identical on every workload): `LatencyModel::zero()` and
//! no shadow WAL, so every number is wall time; each fence `msync`s the
//! lines flushed since the previous fence.

use std::ffi::{c_char, c_int, c_uint};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::time::Instant;

use hyrise_nv::{Database, DurabilityConfig, IndexKind, TableId};
use nvm::LatencyModel;
use storage::Value;
use workload::YcsbGenerator;

// SAFETY: `memfd_create` and `close` are glibc functions with exactly these
// C signatures (`man 2 memfd_create`, `man 2 close`); neither retains the
// name pointer after returning.
extern "C" {
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// Rows are loaded in transactions of this many inserts.
pub const LOAD_BATCH: i64 = 256;
/// Payload length of the `field` column, in bytes.
pub const VALUE_LEN: usize = 32;
/// User bytes per row: an 8-byte key plus the payload.
pub const USER_BYTES_PER_ROW: u64 = 8 + VALUE_LEN as u64;

/// One anonymous memory file holding a database image.
pub struct Image {
    fd: c_int,
    capacity: u64,
}

impl Image {
    /// A fresh, empty image of `capacity` bytes. The file is sparse: pages
    /// use memory only once the engine touches them.
    pub fn new(capacity: u64) -> Image {
        // SAFETY: the name is a NUL-terminated literal; flags 0 asks for a
        // plain read-write memory file. The result is checked below.
        let fd = unsafe { memfd_create(c"perfbench-image".as_ptr(), 0) };
        assert!(
            fd >= 0,
            "memfd_create failed: {}",
            std::io::Error::last_os_error()
        );
        Image { fd, capacity }
    }

    /// The image a parent process created and this process inherited as
    /// descriptor `fd` (memory files are created without close-on-exec).
    pub fn inherited(fd: c_int, capacity: u64) -> Image {
        Image { fd, capacity }
    }

    /// The descriptor and capacity a child process needs to open the image.
    pub fn handle(&self) -> String {
        format!("{},{}", self.fd, self.capacity)
    }

    /// A copy of this image in a fresh memory file, whose pages land
    /// elsewhere in memory. Blocks of zeros are not written, so the copy
    /// stays as sparse as the image. The image must not be open.
    pub fn copy(&self) -> Image {
        let copy = Image::new(self.capacity);
        let mut src = File::open(self.path()).expect("open the image");
        let dst = OpenOptions::new()
            .write(true)
            .open(copy.path())
            .expect("open the copy");
        dst.set_len(self.capacity).expect("size the copy");
        let mut block = vec![0u8; 1 << 16];
        let mut offset = 0;
        loop {
            let n = src.read(&mut block).expect("read the image");
            if n == 0 {
                break;
            }
            if block[..n].iter().any(|b| *b != 0) {
                dst.write_all_at(&block[..n], offset)
                    .expect("write the copy");
            }
            offset += n as u64;
        }
        copy
    }

    /// The path through which the engine opens the image.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(format!("/proc/self/fd/{}", self.fd))
    }

    /// The engine configuration every workload uses.
    pub fn config(&self) -> DurabilityConfig {
        DurabilityConfig::nvm_file(self.path(), self.capacity, LatencyModel::zero())
    }
}

impl Drop for Image {
    fn drop(&mut self) {
        // SAFETY: `fd` was returned by `memfd_create` and is closed once;
        // mappings the engine made through its own descriptor stay valid.
        unsafe { close(self.fd) };
    }
}

/// Capacity for an image that holds at most `versions` row versions
/// between merges. Measured footprints: 200 000 rows, half merged, reach a
/// heap high-water mark of 30 MB (150 B per row); 100 000 merged rows plus
/// 20 000 updates per merge hold at 37 MB from the first merge on, as the
/// allocator re-uses the freed partitions. Four times 150 B per version
/// plus 16 MiB keeps utilisation far below the engine's 85 % back-pressure
/// watermark; the memory file is sparse, so unused capacity costs nothing.
pub fn capacity_for(versions: u64) -> u64 {
    4 * 150 * versions + (16 << 20)
}

/// A loaded image: the database, its one table, and what it took.
pub struct Loaded {
    /// The open database; `None` only while a restart cycle reopens it,
    /// or in a `restart` child process before its first cycle.
    pub db: Option<Database>,
    pub image: Image,
    pub table: TableId,
    pub setup_s: f64,
}

impl Loaded {
    /// Move the database to a copy of its image (see [`Image::copy`]):
    /// drop it without shutdown and open the copy, as a restart would.
    pub fn relocate(&mut self) {
        self.db = None;
        self.image = self.image.copy();
        let (db, _) = Database::open(self.image.config()).expect("open the copied image");
        self.table = db.table_id("usertable").expect("table in the copied image");
        self.db = Some(db);
    }

    pub fn db(&self) -> &Database {
        self.db.as_ref().expect("database open between cycles")
    }

    pub fn db_mut(&mut self) -> &mut Database {
        self.db.as_mut().expect("database open between cycles")
    }
}

/// Create an image with `rows` rows `(key, payload(key))` in 256-row
/// transactions and a hash index on `key`. The first `merged` rows are
/// merged into main; the rest stay in the delta.
pub fn load(rows: u64, merged: u64, capacity: u64) -> Loaded {
    let t0 = Instant::now();
    let image = Image::new(capacity);
    let mut db = Database::create(image.config()).expect("create database image");
    let table = db
        .create_table("usertable", YcsbGenerator::schema())
        .expect("create table");
    db.create_index(table, 0, IndexKind::Hash)
        .expect("create hash index");
    let (rows, merged) = (rows as i64, merged as i64);
    let mut start = 0;
    while start < rows {
        // A batch never straddles the merge point.
        let limit = if start < merged { merged } else { rows };
        let end = (start + LOAD_BATCH).min(limit);
        let mut tx = db.begin();
        for k in start..end {
            let field = workload::ycsb::payload(k as u64, VALUE_LEN);
            db.insert(&mut tx, table, &row(k, field))
                .expect("load insert");
        }
        db.commit(&mut tx).expect("load commit");
        if end == merged {
            db.merge(table).expect("load merge");
        }
        start = end;
    }
    Loaded {
        db: Some(db),
        image,
        table,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// The row for `key` with payload `field`.
pub fn row(key: i64, field: String) -> [Value; 2] {
    [Value::Int(key), Value::Text(field)]
}

/// Heap high-water mark of `db`'s image divided by the user bytes of
/// `live_rows` rows.
pub fn bytes_per_user_byte(db: &Database, live_rows: u64) -> f64 {
    let hw = db.heap_stats().expect("file-backed heap").high_water;
    hw as f64 / (live_rows * USER_BYTES_PER_ROW) as f64
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
