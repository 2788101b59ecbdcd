//! `device_lifecycle`: the whole delegation lifecycle on a system booted
//! from one file-backed block device, with state well past its caches.
//!
//! Each session launches a delegate (COW fork), reads back two of its
//! tenant's committed 16 KiB files, writes four volatile 16 KiB files
//! (each spills past the 4 KiB threshold), appends 4 KiB to a private file
//! (copy-up), makes four dictionary inserts or updates, and ends with
//! `commit_vol` of the files and updated rows (even sessions) or
//! `clear_vol` (odd ones). Every 64th session runs an incremental
//! checkpoint and every 1024th a compaction. After the window the system
//! is dropped, cold-booted from the image and checked: every committed
//! file and row is present and every discarded one is absent.

use crate::harness::{fill, matches, ratio, timed, Layers, Outcome, Rng, Workload, T};
use crate::replay::ProvOp;
use crate::{Bench, Cfg, Finish, STREAM_LEN};
use maxoid::manifest::MaxoidManifest;
use maxoid::{
    Caller, ContentValues, DeviceBootConfig, MaxoidSystem, QueryArgs, Uri, VolCommitPlan,
};
use maxoid_block::{BlockDevice, BlockResult, FileDevice};
use maxoid_sqldb::Value;
use maxoid_vfs::{vpath, Mode, VPath};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

const TENANTS: usize = 64;
const WORDS: u32 = 20_000;
/// Committed public files per tenant (names are taken modulo this).
const SLOTS: usize = 16;
const FILE_BYTES: usize = 16 * 1024;
const PRIVATE_FILES: usize = 4;
const APPEND_BYTES: usize = 4 * 1024;
const WRITES: usize = 4;
const DICT_OPS: usize = 4;
const CHECKPOINT_EVERY: u64 = 64;
const COMPACT_EVERY: u64 = 1024;
const AUTHORITY: &str = "user_dictionary";

/// Device-call counters shared between the benchmark and the
/// [`CountingDevice`] the system owns.
#[derive(Debug, Default)]
pub struct DevCounters {
    writes: AtomicU64,
    write_bytes: AtomicU64,
    flushes: AtomicU64,
    ns: AtomicU64,
}

/// A point-in-time copy of [`DevCounters`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Storage {
    pub writes: u64,
    pub write_bytes: u64,
    pub flushes: u64,
    pub device_ns: u64,
}

impl DevCounters {
    pub fn snapshot(&self) -> Storage {
        Storage {
            writes: self.writes.load(Relaxed),
            write_bytes: self.write_bytes.load(Relaxed),
            flushes: self.flushes.load(Relaxed),
            device_ns: self.ns.load(Relaxed),
        }
    }
}

/// A [`BlockDevice`] that counts and times every call into the device it
/// wraps.
struct CountingDevice {
    inner: FileDevice,
    c: Arc<DevCounters>,
}

impl BlockDevice for CountingDevice {
    fn sector_size(&self) -> usize {
        self.inner.sector_size()
    }

    fn len_sectors(&self) -> u64 {
        self.inner.len_sectors()
    }

    fn read_sector(&mut self, sector: u64, buf: &mut [u8]) -> BlockResult<()> {
        let start = Instant::now();
        let r = self.inner.read_sector(sector, buf);
        self.c.ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        r
    }

    fn write_sector(&mut self, sector: u64, buf: &[u8]) -> BlockResult<()> {
        self.c.writes.fetch_add(1, Relaxed);
        self.c.write_bytes.fetch_add(buf.len() as u64, Relaxed);
        let start = Instant::now();
        let r = self.inner.write_sector(sector, buf);
        self.c.ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        r
    }

    fn flush(&mut self) -> BlockResult<()> {
        self.c.flushes.fetch_add(1, Relaxed);
        let start = Instant::now();
        let r = self.inner.flush();
        self.c.ns.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        r
    }
}

/// Opens the image file without fsync on flush: the policy both sides of
/// any comparison run with, recorded in each run's output.
fn open_image(path: &PathBuf, fresh: bool) -> Result<FileDevice, String> {
    let dev = if fresh { FileDevice::create(path) } else { FileDevice::open(path) };
    let mut dev = dev.map_err(|e| format!("device image {}: {e}", path.display()))?;
    dev.set_sync_on_flush(false);
    dev.set_delete_on_drop(false);
    Ok(dev)
}

/// Removes the image file when the workload is dropped.
struct ImageFile(PathBuf);

impl Drop for ImageFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

struct Tenant {
    init: String,
    app: String,
    /// Committed public files, by slot.
    public: Vec<VPath>,
    /// Their names relative to external storage (commit plans use these).
    rels: Vec<String>,
    /// The delegate app's private files (appended to through copy-up).
    private: Vec<VPath>,
}

/// One pre-generated session.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    tenant: u16,
    reads: [u8; 2],
    /// First slot written; the session writes four consecutive slots.
    write_base: u8,
    /// Per dictionary op: `Some(j)` updates the tenant's `j`-th seeded row,
    /// `None` inserts a new word. Updates and inserts alternate, so every
    /// commit carries the same work.
    dict: [Option<u16>; DICT_OPS],
    /// Even sessions commit, odd ones discard.
    commit: bool,
}

// Fields drop in order: the system (and the device it owns) before the
// image file is removed.
pub struct Lifecycle {
    sys: MaxoidSystem,
    tenants: Vec<Tenant>,
    words: Uri,
    dev: Arc<DevCounters>,
    sessions: AtomicU64,
    image: ImageFile,
}

fn word(id: u32) -> String {
    format!("d{id:05}")
}

/// Seeded row ids tenant `t` updates: those congruent to `t` mod
/// [`TENANTS`], so each row has a single writer and its committed value
/// is known.
fn tenant_row(t: usize, j: u16) -> i64 {
    (t + 1 + TENANTS * j as usize) as i64
}

const ROWS_PER_TENANT: u64 = WORDS as u64 / TENANTS as u64;

fn initial_tag(t: usize, slot: usize) -> u64 {
    (t * SLOTS + slot) as u64 + 1
}

/// The tag of write `i` of session `k` (unique within a tenant's slots).
fn write_tag(t: usize, k: u64, i: usize) -> u64 {
    ((k + 1) << 16) | ((t as u64) << 4) | i as u64
}

fn setup_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("device_lifecycle setup: {what}: {e}")
}

fn install_all(sys: &MaxoidSystem, tenants: &[Tenant]) -> Result<(), String> {
    for t in tenants {
        for pkg in [&t.app, &t.init] {
            sys.install(pkg, vec![], MaxoidManifest::new()).map_err(|e| setup_err("install", e))?;
        }
    }
    Ok(())
}

impl Bench for Lifecycle {
    /// One client: two initiators' `commit_vol`/`clear_vol` journal
    /// transactions can interleave in the log, and recovery reads
    /// interleaved transactions as nested ones, so a cold boot after a
    /// two-client run drops one of them and fails to replay.
    const MAX_CLIENTS: usize = 1;
    /// Two checkpoint periods: the storage state keeps growing over a
    /// round, so figures over a fixed number of sessions compare across
    /// rounds that got through different numbers of them.
    const MEASURED: u64 = 2 * CHECKPOINT_EVERY;
    /// A round's measured sessions are one block.
    const BLOCK: u64 = Self::MEASURED;

    fn setup(cfg: &Cfg, rep: usize) -> Result<Lifecycle, String> {
        std::fs::create_dir_all(&cfg.scratch).map_err(|e| setup_err("scratch dir", e))?;
        let image = ImageFile(cfg.scratch.join(format!("device-{}-{rep}.img", std::process::id())));
        let dev = Arc::new(DevCounters::default());
        let counting = CountingDevice { inner: open_image(&image.0, true)?, c: dev.clone() };
        let sys = MaxoidSystem::boot_from_device(Box::new(counting), &DeviceBootConfig::default())
            .map_err(|e| setup_err("boot", e))?;
        let words = Uri::parse("content://user_dictionary/words").expect("static uri");
        sys.install("dl.seeder", vec![], MaxoidManifest::new())
            .map_err(|e| setup_err("install", e))?;
        let seeder = sys.launch("dl.seeder").map_err(|e| setup_err("launch", e))?;
        for id in 1..=WORDS {
            let vals = ContentValues::new().put("word", word(id)).put("frequency", id as i64);
            sys.cp_insert(seeder, &words, &vals).map_err(|e| setup_err("seed dictionary", e))?;
        }
        let tenants: Vec<Tenant> = (0..TENANTS)
            .map(|t| {
                let (init, app) = (format!("dl.init{t}"), format!("dl.app{t}"));
                let rels: Vec<String> = (0..SLOTS).map(|j| format!("dl{t}_c{j}.dat")).collect();
                let public = rels.iter().map(|r| vpath(&format!("/storage/sdcard/{r}"))).collect();
                let private = (0..PRIVATE_FILES)
                    .map(|j| vpath(&format!("/data/data/{app}/files/p{j}.dat")))
                    .collect();
                Tenant { init, app, public, rels, private }
            })
            .collect();
        install_all(&sys, &tenants)?;
        let mut buf = vec![0u8; FILE_BYTES];
        for (t, ten) in tenants.iter().enumerate() {
            let owner = sys.launch(&ten.app).map_err(|e| setup_err("launch", e))?;
            let dir = vpath(&format!("/data/data/{}/files", ten.app));
            sys.kernel.mkdir_all(owner, &dir, Mode::PRIVATE).map_err(|e| setup_err("mkdir", e))?;
            for (j, p) in ten.private.iter().enumerate() {
                fill(&mut buf[..APPEND_BYTES], initial_tag(t, j));
                sys.kernel
                    .write(owner, p, &buf[..APPEND_BYTES], Mode::PRIVATE)
                    .map_err(|e| setup_err("seed", e))?;
            }
            let init = sys.launch(&ten.init).map_err(|e| setup_err("launch", e))?;
            for (slot, p) in ten.public.iter().enumerate() {
                fill(&mut buf, initial_tag(t, slot));
                sys.kernel.write(init, p, &buf, Mode::PUBLIC).map_err(|e| setup_err("seed", e))?;
            }
            for pid in [owner, init] {
                sys.kernel.kill(pid).map_err(|e| setup_err("kill", e))?;
            }
        }
        if let Some(j) = sys.journal() {
            j.flush().map_err(|e| setup_err("flush", e))?;
        }
        Ok(Lifecycle { sys, tenants, words, dev, sessions: AtomicU64::new(0), image })
    }

    /// Tenants are owned per client and chosen uniformly, so every
    /// tenant's files and rows cycle through the caches.
    fn streams(&self, cfg: &Cfg) -> Vec<Vec<Req>> {
        (0..cfg.clients)
            .map(|c| {
                let owned: Vec<u16> = (c..TENANTS).step_by(cfg.clients).map(|t| t as u16).collect();
                let mut rng = Rng::new(cfg.seed ^ ((c as u64 + 1) << 32));
                let slot = |rng: &mut Rng| rng.below(SLOTS as u64) as u8;
                (0..STREAM_LEN)
                    .map(|k| {
                        let tenant = owned[rng.below(owned.len() as u64) as usize];
                        Req {
                            tenant,
                            reads: [slot(&mut rng), slot(&mut rng)],
                            write_base: slot(&mut rng),
                            dict: std::array::from_fn(|i| {
                                (i % 2 == 0).then(|| rng.below(ROWS_PER_TENANT) as u16)
                            }),
                            commit: k % 2 == 0,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn client(&self) -> DevClient {
        DevClient::default()
    }

    fn sys(&self) -> &MaxoidSystem {
        &self.sys
    }

    fn initiators(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.init.clone()).collect()
    }

    fn resolve_stats(&self, clients: &[DevClient]) -> (u64, u64) {
        clients.iter().fold((0, 0), |(h, m), c| (h + c.resolve.0, m + c.resolve.1))
    }

    fn seed_rows(&self) -> Vec<(String, i64)> {
        (1..=WORDS).map(|id| (word(id), id as i64)).collect()
    }

    fn prov_ops(&self, r: &Req, k: u64, out: &mut Vec<ProvOp>) {
        let t = r.tenant as usize;
        let mut ids = Vec::new();
        for (i, op) in r.dict.iter().enumerate() {
            out.push(match op {
                Some(j) => {
                    let id = tenant_row(t, *j);
                    ids.push(id);
                    ProvOp::Update {
                        init: t,
                        id,
                        col: "frequency",
                        value: Value::Integer(row_value(t, k, i)),
                    }
                }
                None => ProvOp::Insert { init: t, word: inserted_word(t, k, i), freq: k as i64 },
            });
        }
        out.push(if r.commit {
            ProvOp::Commit { init: t, ids }
        } else {
            ProvOp::Clear { init: t }
        });
    }

    fn device(&self) -> Option<Storage> {
        Some(self.dev.snapshot())
    }

    fn user_bytes(&self, clients: &[DevClient]) -> u64 {
        clients.iter().map(|c| c.user_bytes).sum()
    }

    fn background(&self, clients: &[DevClient]) -> Layers {
        let mut l = Layers::default();
        for c in clients {
            l.merge(&c.background);
        }
        l
    }

    fn finish(self, clients: Vec<DevClient>, trace: bool) -> Finish {
        let mut fin = Finish::default();
        let Lifecycle { sys, tenants, words, image, .. } = self;
        let log = match sys.journal().map(|j| j.flush().map(|()| j.bytes())) {
            Some(Ok(log)) => log,
            _ => {
                fin.check(false);
                return fin;
            }
        };
        fin.log_bytes_at_boot = log.len() as f64;
        if trace {
            let (r, d) = timed(|| maxoid::recover(&log));
            fin.check(r.is_ok());
            fin.replay_ms = d.as_secs_f64() * 1e3;
        }
        drop(log);
        drop(sys);

        // Live user bytes: the committed public files, the private files
        // with every append, and the dictionary's words and frequencies.
        let appended: u64 = clients.iter().map(|c| c.appended).sum();
        let live = (TENANTS * (SLOTS * FILE_BYTES + PRIVATE_FILES * APPEND_BYTES)) as u64
            + appended
            + (1..=WORDS).map(|id| word(id).len() as u64 + 8).sum::<u64>();
        let image_bytes = std::fs::metadata(&image.0).map_or(0, |m| m.len());
        fin.space_amp = ratio(image_bytes as f64, live as f64);

        let booted = open_image(&image.0, false).and_then(|dev| {
            let (r, d) = timed(|| {
                MaxoidSystem::boot_from_device(Box::new(dev), &DeviceBootConfig::default())
            });
            fin.cold_boot_ms = d.as_secs_f64() * 1e3;
            r.map_err(|e| e.to_string())
        });
        let sys = match booted.and_then(|s| install_all(&s, &tenants).map(|()| s)) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: device_lifecycle cold boot failed: {e}");
                fin.check(false);
                return fin;
            }
        };
        verify_after_reboot(&sys, &tenants, &words, &clients, &mut fin);
        drop(sys);
        drop(image);
        fin
    }
}

/// S2 all-or-nothing after the cold boot: committed files hold the last
/// committed bytes (so discarded writes to the same names are absent),
/// committed rows hold their last committed value, no inserted word (all
/// were discarded) survives, and no tenant has volatile files left.
fn verify_after_reboot(
    sys: &MaxoidSystem,
    tenants: &[Tenant],
    words: &Uri,
    clients: &[DevClient],
    fin: &mut Finish,
) {
    let mut check = |ok: bool| fin.check(ok);
    let mut files = HashMap::new();
    let mut rows = HashMap::new();
    for c in clients {
        files.extend(c.files.iter().map(|(k, v)| (*k, *v)));
        rows.extend(c.touched.iter().map(|id| (*id, c.rows.get(id).copied().unwrap_or(*id))));
    }
    let mut scratch = Vec::new();
    for (t, ten) in tenants.iter().enumerate() {
        let Ok(pid) = sys.launch(&ten.init) else {
            check(false);
            continue;
        };
        for (slot, p) in ten.public.iter().enumerate() {
            let tag =
                files.get(&(t as u16, slot as u8)).copied().unwrap_or_else(|| initial_tag(t, slot));
            check(
                sys.kernel.read(pid, p).is_ok_and(|b| matches(&b, tag, FILE_BYTES, &mut scratch)),
            );
        }
        check(sys.volatile_files(&ten.init).is_ok_and(|v| v.is_empty()));
    }
    let reader = Caller::normal("dl.seeder");
    let args = QueryArgs { projection: vec!["frequency".into()], ..Default::default() };
    for (id, freq) in rows {
        let rs = sys.resolver.query(&reader, &words.with_id(id), &args);
        check(rs.is_ok_and(|rs| rs.rows == vec![vec![Value::Integer(freq)]]));
    }
    let by_word = |w: &str| QueryArgs {
        selection: Some("word = ?".into()),
        selection_args: vec![Value::from(w)],
        ..Default::default()
    };
    for c in clients {
        for w in &c.inserted {
            check(
                sys.resolver.query(&reader, words, &by_word(w)).is_ok_and(|rs| rs.rows.is_empty()),
            );
        }
    }
}

fn row_value(t: usize, k: u64, i: usize) -> i64 {
    write_tag(t, k, i) as i64
}

fn inserted_word(t: usize, k: u64, i: usize) -> String {
    format!("x{t}_{k}_{i}")
}

/// A client's model of its tenants' committed state.
#[derive(Debug, Default)]
pub struct DevClient {
    /// `(tenant, slot) -> tag` of files committed since set-up.
    files: HashMap<(u16, u8), u64>,
    /// Committed frequency by row id, for rows committed since set-up.
    rows: HashMap<i64, i64>,
    /// Every row id a session updated, committed or not.
    touched: Vec<i64>,
    /// Every word inserted (all are discarded by their session's end).
    inserted: Vec<String>,
    user_bytes: u64,
    appended: u64,
    resolve: (u64, u64),
    /// Checkpoint and compaction times, from every session.
    background: Layers,
    buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl Workload for Lifecycle {
    type Req = Req;
    type Client = DevClient;

    fn run(&self, cl: &mut DevClient, r: &Req, k: u64, mut trace: Option<&mut Layers>) -> Outcome {
        let sys = &self.sys;
        let t = r.tenant as usize;
        let ten = &self.tenants[t];
        let mut o = Outcome::default();

        // 1. Launch the delegate: the COW fork of its private state.
        let (pid, d) = timed(|| sys.launch_as_delegate(&ten.app, &ten.init));
        o.call(d, pid.is_ok());
        if let Some(l) = trace.as_deref_mut() {
            l.add(T::CoreFork, d);
        }
        let Ok(pid) = pid else { return o };
        let proc = match trace {
            Some(_) => sys.kernel.process(pid).ok(),
            None => None,
        };

        // 2. Read back two committed files.
        for &slot in &r.reads {
            let path = &ten.public[slot as usize];
            let tag = cl
                .files
                .get(&(r.tenant, slot))
                .copied()
                .unwrap_or_else(|| initial_tag(t, slot as usize));
            let (res, d) = timed(|| sys.kernel.read(pid, path));
            o.call(d, res.is_ok_and(|b| matches(&b, tag, FILE_BYTES, &mut cl.scratch)));
            if let (Some(l), Some(p)) = (trace.as_deref_mut(), &proc) {
                let (res, dv) = timed(|| sys.kernel.vfs().read(p.cred(), &p.ns, path));
                o.call(dv, res.is_ok_and(|b| matches(&b, tag, FILE_BYTES, &mut cl.scratch)));
                l.add(T::KernelSyscall, d);
                l.add(T::VfsRead, dv);
                l.add_ns(T::KernelSelf, d.as_nanos() as i64 - dv.as_nanos() as i64);
            }
        }

        // 3. Four volatile 16 KiB writes; traced sessions alternate the
        // entry point between the kernel and the VFS.
        let mut written = Vec::with_capacity(WRITES);
        for i in 0..WRITES {
            let slot = (r.write_base as usize + i) % SLOTS;
            let tag = write_tag(t, k, i);
            cl.buf.resize(FILE_BYTES, 0);
            fill(&mut cl.buf, tag);
            let path = &ten.public[slot];
            match (trace.as_deref_mut(), &proc) {
                (Some(l), Some(p)) if i % 2 == 1 => {
                    let (res, d) = timed(|| {
                        sys.kernel.vfs().write(p.cred(), &p.ns, path, &cl.buf, Mode::PUBLIC)
                    });
                    o.call(d, res.is_ok());
                    l.add(T::VfsWrite, d);
                }
                (l, _) => {
                    let (res, d) = timed(|| sys.kernel.write(pid, path, &cl.buf, Mode::PUBLIC));
                    o.call(d, res.is_ok());
                    if let Some(l) = l {
                        l.add(T::KernelSyscall, d);
                    }
                }
            }
            written.push((slot, tag));
            cl.user_bytes += FILE_BYTES as u64;
        }

        // 4. Append to a private file: the first write since the fork
        // copies it up into the delegate's branch.
        let path = &ten.private[k as usize % PRIVATE_FILES];
        cl.buf.resize(APPEND_BYTES, 0);
        fill(&mut cl.buf, k);
        match (trace.as_deref_mut(), &proc) {
            (Some(l), Some(p)) if (k / 2) % 2 == 1 => {
                let (res, d) = timed(|| sys.kernel.vfs().append(p.cred(), &p.ns, path, &cl.buf));
                o.call(d, res.is_ok());
                l.add(T::VfsAppend, d);
            }
            (l, _) => {
                let (res, d) = timed(|| sys.kernel.append(pid, path, &cl.buf));
                o.call(d, res.is_ok());
                if let Some(l) = l {
                    l.add(T::KernelSyscall, d);
                }
            }
        }
        cl.user_bytes += APPEND_BYTES as u64;
        cl.appended += APPEND_BYTES as u64;

        // 5. Four dictionary inserts or updates.
        let caller = proc.as_ref().map(|p| Caller { app: p.app.clone(), ctx: p.ctx.clone() });
        let args = QueryArgs::default();
        let mut updated = Vec::new();
        for (i, op) in r.dict.iter().enumerate() {
            match op {
                Some(j) => {
                    let id = tenant_row(t, *j);
                    let v = row_value(t, k, i);
                    let uri = self.words.with_id(id);
                    let vals = ContentValues::new().put("frequency", v);
                    let (res, d) = match (trace.as_deref_mut(), &caller) {
                        (Some(l), Some(c)) => {
                            let (res, d) = timed(|| sys.resolver.update(c, &uri, &vals, &args));
                            l.add(T::ProvUpdate, d);
                            (res.map_err(|_| ()), d)
                        }
                        _ => {
                            let (res, d) = timed(|| sys.cp_update(pid, &uri, &vals, &args));
                            (res.map_err(|_| ()), d)
                        }
                    };
                    o.call(d, res == Ok(1));
                    updated.retain(|(u, _)| *u != id);
                    updated.push((id, v));
                    cl.touched.push(id);
                    cl.user_bytes += 8;
                }
                None => {
                    let w = inserted_word(t, k, i);
                    let vals =
                        ContentValues::new().put("word", w.as_str()).put("frequency", k as i64);
                    let (res, d) = match (trace.as_deref_mut(), &caller) {
                        (Some(l), Some(c)) => {
                            let (res, d) = timed(|| sys.resolver.insert(c, &self.words, &vals));
                            l.add(T::ProvInsert, d);
                            (res.map_err(|_| ()), d)
                        }
                        _ => {
                            let (res, d) = timed(|| sys.cp_insert(pid, &self.words, &vals));
                            (res.map_err(|_| ()), d)
                        }
                    };
                    o.call(d, res.is_ok());
                    cl.user_bytes += w.len() as u64 + 8;
                    cl.inserted.push(w);
                }
            }
        }

        // 6. The gesture: commit files and updated rows, or discard.
        let commit = r.commit;
        let (res, d) = if commit {
            let plan = VolCommitPlan {
                external: written.iter().map(|(slot, _)| ten.rels[*slot].clone()).collect(),
                internal: vec![],
                provider_rows: updated
                    .iter()
                    .map(|(id, _)| (AUTHORITY.into(), "words".into(), *id))
                    .collect(),
                discard_rest: true,
            };
            let (res, d) = timed(|| sys.commit_vol(&ten.init, &plan));
            (res.map(|out| out.rows_committed == updated.len()), d)
        } else {
            let (res, d) = timed(|| sys.clear_vol(&ten.init));
            (res.map(|_| true), d)
        };
        let ok = res.unwrap_or(false);
        o.call(d, ok);
        o.gesture = Some(d);
        if let Some(l) = trace {
            l.add(if commit { T::CoreCommit } else { T::CoreClear }, d);
        }
        if commit && ok {
            cl.files.extend(written.iter().map(|(slot, tag)| ((r.tenant, *slot as u8), *tag)));
            cl.rows.extend(updated);
        }

        if let Ok(st) = sys.kernel.resolve_cache_stats(pid) {
            cl.resolve.0 += st.0;
            cl.resolve.1 += st.1;
        }
        let (res, d) = timed(|| sys.kernel.kill(pid));
        o.call(d, res.is_ok());

        // Background work runs inline in the session that triggers it, so
        // its stalls show in the request latency.
        let n = self.sessions.fetch_add(1, Relaxed) + 1;
        if n.is_multiple_of(CHECKPOINT_EVERY) {
            let (res, d) = timed(|| sys.checkpoint_incremental());
            o.call(d, res.is_ok());
            cl.background.add(T::Checkpoint, d);
        }
        if n.is_multiple_of(COMPACT_EVERY) {
            let (res, d) = timed(|| sys.compact());
            o.call(d, res.is_ok());
            cl.background.add(T::Compact, d);
        }
        o
    }
}
