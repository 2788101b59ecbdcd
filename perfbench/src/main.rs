//! The repository benchmark: one command, three closed-loop workloads.
//!
//! ```text
//! perfbench --workload <fleet_sessions|provider_cow|device_lifecycle>
//!           --seed <n> --seconds <s> --trace <0|1> [--clients <n>]
//! ```
//!
//! A run is a number of rounds. Each round sets its workload up afresh
//! (timed as `setup_s`), generates every client's op stream from the
//! seed, then drives one closed-loop client thread per stream for its
//! share of the given seconds and checks every reply against a model of
//! the expected state. With `--trace 0` the run makes [`ROUNDS`] rounds
//! and prints the end-to-end metrics of their fastest blocks. With
//! `--trace 1` one round takes the whole window, alternating untraced and
//! traced requests, and the run prints the per-layer metrics. The last
//! line of standard output is the JSON result; the line before it records
//! the run's settings.

mod device;
mod fleet;
mod harness;
mod provider;
mod replay;

use harness::{
    latency_ns, median, peak_rss_mb, percentile, ratio, result_json, timed, Block, Layers, Metric,
    Unit, Window, Workload, T,
};
use maxoid::MaxoidSystem;
use maxoid_block::CacheStats;
use maxoid_journal::JournalStats;
use replay::ProvOp;
use std::path::PathBuf;
use std::time::Duration;

/// Rounds of an end-to-end run, each a fresh set-up driven for an equal
/// share of the window.
const ROUNDS: usize = 15;
/// Requests pre-generated per client; a client that outruns its stream
/// starts it again (its state model carries over).
const STREAM_LEN: usize = 1 << 16;

pub struct Cfg {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub clients: usize,
    pub scratch: PathBuf,
}

/// What a workload adds to the generic flow.
pub trait Bench: Workload + Sized {
    /// Most client threads the workload runs without failing ops.
    const MAX_CLIENTS: usize = usize::MAX;
    /// Requests per client the end-to-end figures are taken over; the
    /// window runs and checks every request regardless.
    const MEASURED: u64 = u64::MAX;
    /// Measured requests per block. Each block gives one throughput, p50
    /// and p99; a thousand leaves ten samples beyond the p99.
    const BLOCK: u64 = 1000;
    fn setup(cfg: &Cfg, rep: usize) -> Result<Self, String>;
    fn streams(&self, cfg: &Cfg) -> Vec<Vec<Self::Req>>;
    fn client(&self) -> Self::Client;
    fn sys(&self) -> &MaxoidSystem;
    /// Initiator names, indexed as [`ProvOp`] tenants.
    fn initiators(&self) -> Vec<String>;
    /// Cumulative `(hits, misses)` of the delegates' resolution caches.
    fn resolve_stats(&self, clients: &[Self::Client]) -> (u64, u64);
    /// The dictionary rows set-up seeded, ids from 1.
    fn seed_rows(&self) -> Vec<(String, i64)>;
    /// The provider ops request `k` issued.
    fn prov_ops(&self, req: &Self::Req, k: u64, out: &mut Vec<ProvOp>);
    /// The block device's counters, for workloads booted from one.
    fn device(&self) -> Option<device::Storage> {
        None
    }
    /// User bytes the clients wrote (file contents and row values).
    fn user_bytes(&self, _clients: &[Self::Client]) -> u64 {
        0
    }
    /// Timers of background work, which runs in traced and untraced
    /// requests alike.
    fn background(&self, _clients: &[Self::Client]) -> Layers {
        Layers::default()
    }
    /// Post-window work: the device workload's cold boot and its checks.
    fn finish(self, _clients: Vec<Self::Client>, _trace: bool) -> Finish {
        Finish::default()
    }
}

/// Post-window results: extra checks, and the durability numbers.
#[derive(Debug, Default)]
pub struct Finish {
    pub checks: u64,
    pub failed: u64,
    pub cold_boot_ms: f64,
    pub space_amp: f64,
    pub log_bytes_at_boot: f64,
    pub replay_ms: f64,
}

impl Finish {
    pub fn check(&mut self, ok: bool) {
        self.checks += 1;
        self.failed += !ok as u64;
    }
}

/// Layer counters read before and after the window.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    resolve: (u64, u64),
    spill: CacheStats,
    reads: (u64, u64),
    heap: CacheStats,
    journal: JournalStats,
    device: device::Storage,
}

fn counters<B: Bench>(b: &B, clients: &[B::Client]) -> Counters {
    let sys = b.sys();
    Counters {
        resolve: b.resolve_stats(clients),
        spill: sys.store_stats().cache.unwrap_or_default(),
        reads: sys.resolver.read_path_stats(),
        heap: sys.heap().map(|h| h.stats()).unwrap_or_default(),
        journal: sys.journal().map(|j| j.stats()).unwrap_or_default(),
        device: b.device().unwrap_or_default(),
    }
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    ratio(hits as f64, (hits + misses) as f64)
}

/// One set-up, driven for one share of the window.
struct Round {
    setup_s: f64,
    win: Window,
    before: Counters,
    after: Counters,
    user_bytes: u64,
    on_device: bool,
    /// The replayed `cowproxy.*` and `sqldb.*` metrics (traced runs).
    replayed: Vec<Metric>,
    /// The cold boot and its checks: the last round's only.
    fin: Finish,
}

fn round<B: Bench>(cfg: &Cfg, rep: usize, share: Duration, last: bool) -> Result<Round, String> {
    let (bench, setup) = timed(|| B::setup(cfg, rep));
    let bench = bench?;
    let streams = bench.streams(cfg);
    let mut clients: Vec<B::Client> = (0..cfg.clients).map(|_| bench.client()).collect();

    let before = counters(&bench, &clients);
    let mut win =
        harness::drive(&bench, &streams, &mut clients, share, B::MEASURED, B::BLOCK, cfg.trace);
    let after = counters(&bench, &clients);
    // Read before the device workload's cold boot, which is measured on
    // its own as `cold_boot_ms`.
    if win.peak_rss_mb.is_none() {
        win.peak_rss_mb = Some(peak_rss_mb());
    }

    let mut replayed = Vec::new();
    if cfg.trace {
        let mut ops = Vec::new();
        let longest = win.per_client.iter().copied().max().unwrap_or(0);
        'collect: for k in 0..longest {
            for (c, stream) in streams.iter().enumerate() {
                if k < win.per_client[c] {
                    bench.prov_ops(&stream[k as usize % stream.len()], k, &mut ops);
                    if ops.len() >= replay::MAX_REPLAY {
                        break 'collect;
                    }
                }
            }
        }
        replayed = replay::replay(&bench.initiators(), &bench.seed_rows(), &ops);
        let sys = bench.sys();
        let delta_rows: usize = bench
            .initiators()
            .iter()
            .filter_map(|i| sys.tenant_stats(i).ok())
            .map(|s| s.delta_rows)
            .sum();
        replayed.push(Metric::new("cowproxy.delta_rows", Unit::Count, delta_rows as f64));
    }
    let on_device = bench.device().is_some();
    let user_bytes = bench.user_bytes(&clients);
    win.layers.merge(&bench.background(&clients));
    let fin = if last { bench.finish(clients, cfg.trace) } else { Finish::default() };
    Ok(Round {
        setup_s: setup.as_secs_f64(),
        win,
        before,
        after,
        user_bytes,
        on_device,
        replayed,
        fin,
    })
}

fn run<B: Bench>(name: &str, cfg: &mut Cfg, explicit_clients: bool) -> Result<(), String> {
    if cfg.clients > B::MAX_CLIENTS {
        if explicit_clients {
            return Err(format!("{name} runs at most {} client(s)", B::MAX_CLIENTS));
        }
        cfg.clients = B::MAX_CLIENTS;
    }
    let cfg = &*cfg;
    // The traced run drives one system for the whole window, so its
    // counters and background work cover one system's life.
    let rounds = if cfg.trace { 1 } else { ROUNDS };
    let share = Duration::from_secs(cfg.seconds) / rounds as u32;
    let mut done = Vec::with_capacity(rounds);
    for rep in 0..rounds {
        done.push(round::<B>(cfg, rep, share, rep + 1 == rounds)?);
    }
    let last = done.last().expect("at least one round");
    let attempted: u64 = done.iter().map(|r| r.win.ops + r.fin.checks).sum();
    let failed: u64 = done.iter().map(|r| r.win.failed + r.fin.failed).sum();
    let setups: Vec<f64> = done.iter().map(|r| r.setup_s).collect();

    let metrics = if cfg.trace {
        let win = &last.win;
        let mut m = per_layer(win, &last.before, &last.after, last.user_bytes as f64, &last.fin);
        m.extend(last.replayed.iter().cloned());
        m.push(Metric::new("failed_ratio", Unit::Ratio, ratio(failed as f64, attempted as f64)));
        for (name, q) in [("gesture_p50_us", 0.50), ("gesture_p99_us", 0.99)] {
            m.push(Metric::new(name, Unit::Us, latency_ns(&win.gesture_ns, q) / 1e3));
        }
        m
    } else {
        // A shared host's neighbours only ever slow the system, and their
        // load comes and goes, so each window figure is that of the
        // blocks the host disturbed least: the fastest twentieth.
        let fastest = |f: fn(&Block) -> f64, q: f64| {
            percentile(done.iter().flat_map(|r| &r.win.blocks).map(f), q)
        };
        vec![
            Metric::new("setup_s", Unit::S, median(&setups)),
            Metric::new("ops_per_s", Unit::OpsPerS, fastest(|b| b.ops_per_s, 0.95)),
            Metric::new("request_p50_us", Unit::Us, fastest(|b| b.p50_us, 0.05)),
            Metric::new("request_p99_us", Unit::Us, fastest(|b| b.p99_us, 0.05)),
            // The first round's: later rounds inherit the heap earlier
            // ones left behind.
            Metric::new("peak_rss_mb", Unit::Mb, done[0].win.peak_rss_mb.unwrap_or_default()),
        ]
    };

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let flush_policy =
        if last.on_device { "file_device_sync_on_flush_off" } else { "none_in_memory" };
    let sum = |f: fn(&Round) -> u64| done.iter().map(f).sum::<u64>();
    println!(
        "{{\"run\": {{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"clients\": {}, \"flush_policy\": \"{flush_policy}\", \"git_rev\": \"{}\", \
         \"rounds\": {rounds}, \"measured\": {}, \"setup_s\": {setups:?}, \"requests\": {}, \
         \"gestures\": {}, \"attempted\": {attempted}, \"failed\": {failed}}}}}",
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        cfg.clients,
        std::env::var("PERFBENCH_REV").unwrap_or_else(|_| "unknown".into()),
        sum(|r| r.win.request_ns.len() as u64),
        sum(|r| r.win.requests),
        sum(|r| r.win.gestures),
    );
    println!("{}", result_json(failed == 0, attempted.max(1), failed, &metrics));
    Ok(())
}

/// The traced run's metrics that come from the window and the counters.
fn per_layer(win: &Window, b: &Counters, a: &Counters, user: f64, fin: &Finish) -> Vec<Metric> {
    let l = &win.layers;
    let per_req = |v: u64| ratio(v as f64, win.requests as f64);
    let gestures = win.gestures as f64;
    let (dev, dev0) = (&a.device, &b.device);
    let jf = a.journal.group_commits - b.journal.group_commits;
    let rate = |m: (u64, u64)| ratio(m.0 as f64, m.1 as f64);
    let (untraced, traced) = (win.by_mode[0], win.by_mode[1]);
    // Requests per wall second inside each mode; traced requests also
    // make the paired lower-layer calls.
    let overhead = ratio(rate((traced.0, traced.1)), rate((untraced.0, untraced.1)));
    vec![
        Metric::new("kernel.syscall_us", Unit::Us, l.mean_us(T::KernelSyscall)),
        Metric::new("kernel.self_us", Unit::Us, l.mean_us(T::KernelSelf)),
        Metric::new("vfs.read_us", Unit::Us, l.mean_us(T::VfsRead)),
        Metric::new("vfs.write_us", Unit::Us, l.mean_us(T::VfsWrite)),
        Metric::new("vfs.copyup_append_us", Unit::Us, l.mean_us(T::VfsAppend)),
        Metric::new(
            "vfs.resolve_hit_rate",
            Unit::Ratio,
            hit_rate(a.resolve.0 - b.resolve.0, a.resolve.1 - b.resolve.1),
        ),
        Metric::new(
            "vfs.spill_hit_rate",
            Unit::Ratio,
            hit_rate(a.spill.hits - b.spill.hits, a.spill.misses - b.spill.misses),
        ),
        Metric::new(
            "vfs.spill_evictions",
            Unit::Count,
            per_req(a.spill.evictions - b.spill.evictions),
        ),
        Metric::new("core.cp_self_us", Unit::Us, l.mean_us(T::CoreCpSelf)),
        Metric::new("core.delegate_fork_us", Unit::Us, l.mean_us(T::CoreFork)),
        Metric::new("core.commit_vol_us", Unit::Us, l.mean_us(T::CoreCommit)),
        Metric::new("core.clear_vol_us", Unit::Us, l.mean_us(T::CoreClear)),
        Metric::new("providers.query_us", Unit::Us, l.mean_us(T::ProvQuery)),
        Metric::new("providers.update_us", Unit::Us, l.mean_us(T::ProvUpdate)),
        Metric::new("providers.insert_us", Unit::Us, l.mean_us(T::ProvInsert)),
        Metric::new("providers.delete_us", Unit::Us, l.mean_us(T::ProvDelete)),
        Metric::new(
            "providers.snapshot_read_share",
            Unit::Ratio,
            hit_rate(a.reads.0 - b.reads.0, a.reads.1 - b.reads.1),
        ),
        Metric::new(
            "sqldb.heap_hit_rate",
            Unit::Ratio,
            hit_rate(a.heap.hits - b.heap.hits, a.heap.misses - b.heap.misses),
        ),
        Metric::new(
            "sqldb.heap_evictions",
            Unit::Count,
            per_req(a.heap.evictions - b.heap.evictions),
        ),
        Metric::new(
            "journal.bytes_per_user_byte",
            Unit::Ratio,
            ratio((a.journal.bytes_flushed - b.journal.bytes_flushed) as f64, user),
        ),
        Metric::new(
            "journal.flushes_per_gesture",
            Unit::Ratio,
            ratio((a.journal.flushes - b.journal.flushes) as f64, gestures),
        ),
        Metric::new(
            "journal.follower_share",
            Unit::Ratio,
            ratio(
                (a.journal.group_follower_waits - b.journal.group_follower_waits) as f64,
                jf as f64,
            ),
        ),
        Metric::new("journal.checkpoint_us", Unit::Us, l.mean_us(T::Checkpoint)),
        Metric::new("journal.compact_ms", Unit::Ms, l.mean_us(T::Compact) / 1e3),
        Metric::new("journal.log_bytes_at_boot", Unit::Bytes, fin.log_bytes_at_boot),
        Metric::new("journal.replay_ms", Unit::Ms, fin.replay_ms),
        Metric::new("block.device_writes", Unit::Count, per_req(dev.writes - dev0.writes)),
        Metric::new(
            "block.device_write_bytes_per_user_byte",
            Unit::Ratio,
            ratio((dev.write_bytes - dev0.write_bytes) as f64, user),
        ),
        Metric::new("block.device_flushes", Unit::Count, per_req(dev.flushes - dev0.flushes)),
        Metric::new("block.device_us", Unit::Us, per_req(dev.device_ns - dev0.device_ns) / 1e3),
        Metric::new("trace.overhead_ratio", Unit::Ratio, overhead),
        Metric::new("cold_boot_ms", Unit::Ms, fin.cold_boot_ms),
        Metric::new("space_amp", Unit::Ratio, fin.space_amp),
    ]
}

fn parse_args() -> Result<(String, Cfg, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let num = |flag: &str, v: &str| {
        v.parse::<u64>().map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
    };
    let workload = need("--workload")?.to_string();
    let seed = num("--seed", need("--seed")?)?;
    let seconds = num("--seconds", need("--seconds")?)?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One client thread unless asked for more: on a few shared cores a
    // second closed-loop thread measures the host's scheduler as much as
    // the system.
    let clients = match get("--clients") {
        Some(v) => num("--clients", v)? as usize,
        None => 1,
    };
    if clients == 0 || clients > nproc {
        return Err(format!("--clients must be between 1 and nproc ({nproc}), got {clients}"));
    }
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let scratch = std::env::var_os("PERFBENCH_SCRATCH")
        .map_or_else(|| PathBuf::from(".bench_build/perfbench-scratch"), PathBuf::from);
    let cfg = Cfg { seed, seconds, trace, clients, scratch };
    Ok((workload, cfg, get("--clients").is_some()))
}

fn main() {
    let res = parse_args().and_then(|(workload, mut cfg, explicit)| match workload.as_str() {
        "fleet_sessions" => run::<fleet::Fleet>(&workload, &mut cfg, explicit),
        "provider_cow" => run::<provider::ProviderCow>(&workload, &mut cfg, explicit),
        "device_lifecycle" => run::<device::Lifecycle>(&workload, &mut cfg, explicit),
        other => Err(format!("unknown workload {other:?}")),
    });
    if let Err(e) = res {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
