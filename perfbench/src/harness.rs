//! Workload-independent parts of the benchmark: seeded sampling, the
//! closed-loop client threads, per-layer accumulators, percentiles and the
//! unit-tagged result line.

use std::time::{Duration, Instant};

/// Deterministic xorshift64* generator; the seed fully fixes every op
/// stream the benchmark generates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds by a
    /// splitmix64 step (xorshift state must also be non-zero).
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of a sample in any order; 0
/// for an empty one.
pub fn percentile(values: impl IntoIterator<Item = f64>, q: f64) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The unit a metric is reported in. Every metric carries its own: a
/// count is never filed as a latency, nor a latency as a ratio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    S,
    Ms,
    Us,
    OpsPerS,
    Ratio,
    Count,
    Bytes,
    Mb,
}

impl Unit {
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::OpsPerS => "ops_per_s",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::Bytes => "bytes",
            Unit::Mb => "MB",
        }
    }

    /// The unit a metric name implies by its suffix, for names that carry
    /// one (`_s`, `_ms`, `_us`, `_mb`, `ops_per_s`).
    pub fn from_suffix(name: &str) -> Option<Unit> {
        // `ops_per_s` first: it also ends in `_s`.
        [
            ("ops_per_s", Unit::OpsPerS),
            ("_us", Unit::Us),
            ("_ms", Unit::Ms),
            ("_mb", Unit::Mb),
            ("_s", Unit::S),
        ]
        .into_iter()
        .find(|(suffix, _)| name.ends_with(suffix))
        .map(|(_, u)| u)
    }
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: Unit,
    pub value: f64,
}

impl Metric {
    /// A metric whose name suffix, if it has one, must agree with `unit`.
    pub fn new(name: &'static str, unit: Unit, value: f64) -> Metric {
        if let Some(implied) = Unit::from_suffix(name) {
            assert_eq!(implied, unit, "metric {name} is tagged {unit:?}");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, unit, value }
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                m.value,
                m.unit.as_str()
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer timers of the traced run. Each is the time spent inside one
/// layer's public entry point, measured by the benchmark around its own
/// call; `*Self` timers hold the difference between the same seeded op
/// entered one layer up and one layer down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum T {
    KernelSyscall,
    KernelSelf,
    VfsRead,
    VfsWrite,
    VfsAppend,
    CoreCpSelf,
    CoreFork,
    CoreCommit,
    CoreClear,
    ProvQuery,
    ProvUpdate,
    ProvInsert,
    ProvDelete,
    Checkpoint,
    Compact,
    CowQuery,
    CowUpdate,
    CowOp,
    SqlQuery,
    SqlExecute,
    SqlOp,
}

const TIMERS: usize = T::SqlOp as usize + 1;

/// Sums of nanoseconds (signed: a difference of two timed calls can be
/// negative for one op) and sample counts, one slot per [`T`].
#[derive(Debug, Clone)]
pub struct Layers {
    ns: [i64; TIMERS],
    n: [u64; TIMERS],
}

impl Default for Layers {
    fn default() -> Self {
        Layers { ns: [0; TIMERS], n: [0; TIMERS] }
    }
}

impl Layers {
    pub fn add(&mut self, t: T, d: Duration) {
        self.add_ns(t, d.as_nanos() as i64);
    }

    pub fn add_ns(&mut self, t: T, ns: i64) {
        self.ns[t as usize] += ns;
        self.n[t as usize] += 1;
    }

    pub fn merge(&mut self, other: &Layers) {
        for i in 0..TIMERS {
            self.ns[i] += other.ns[i];
            self.n[i] += other.n[i];
        }
    }

    /// Mean microseconds per sample (0 when the layer was never entered).
    pub fn mean_us(&self, t: T) -> f64 {
        ratio(self.ns[t as usize] as f64, self.n[t as usize] as f64) / 1e3
    }
}

/// Times `f`, returning its result and the elapsed time.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// What one request did, as seen by its client.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    /// Calls into the system the request made.
    pub ops: u64,
    /// Calls that failed or returned wrong bytes or rows.
    pub failed: u64,
    /// Time inside the system's calls (staging and checking excluded).
    pub busy: Duration,
    /// Time of the commit/discard gesture, when the request made one.
    pub gesture: Option<Duration>,
}

impl Outcome {
    /// Accounts one timed call and whether its result checked out.
    pub fn call(&mut self, d: Duration, ok: bool) {
        self.ops += 1;
        self.busy += d;
        if !ok {
            self.failed += 1;
        }
    }
}

/// A closed-loop workload: each client issues its next request only after
/// the previous one returned.
pub trait Workload: Sync {
    /// One pre-generated request descriptor.
    type Req: Send + Sync;
    /// Per-client state: the expected-state model and scratch buffers.
    type Client: Send;

    /// Runs request number `k` of a client. `trace` is set on traced
    /// requests, which enter each layer separately and time it.
    fn run(
        &self,
        cl: &mut Self::Client,
        req: &Self::Req,
        k: u64,
        trace: Option<&mut Layers>,
    ) -> Outcome;
}

/// Everything the timed window produced.
#[derive(Debug, Default)]
pub struct Window {
    pub requests: u64,
    pub ops: u64,
    pub failed: u64,
    pub gestures: u64,
    /// The measured requests' figures, one block of consecutive requests
    /// of one client at a time.
    pub blocks: Vec<Block>,
    /// Latencies of the measured requests and of their gestures.
    pub request_ns: Vec<u32>,
    pub gesture_ns: Vec<u32>,
    /// Peak resident memory when the measured requests ended, if they
    /// ended before the window did.
    pub peak_rss_mb: Option<f64>,
    pub layers: Layers,
    /// `(requests, wall ns)` of untraced and traced requests: the traced
    /// run alternates the two so the overhead ratio sees the same state.
    pub by_mode: [(u64, u64); 2],
    /// Requests each client completed (their streams' consumed prefixes).
    pub per_client: Vec<u64>,
}

/// Figures of one block of consecutive measured requests of one client.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Calls into the system per wall second.
    pub ops_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

fn saturating_ns(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Whether request `k` of a traced run is traced: half of the requests,
/// picked by a hash of `k` so the choice does not line up with the
/// workloads' every-16th/64th/128th op patterns.
pub fn is_traced(k: u64) -> bool {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 63 == 1
}

/// Drives one client thread per stream for `dur`. The first `measured`
/// requests of each client give the end-to-end figures, in blocks of
/// `block` requests; every request is run and checked. With `trace`, the
/// requests [`is_traced`] picks are traced.
pub fn drive<W: Workload>(
    w: &W,
    streams: &[Vec<W::Req>],
    clients: &mut [W::Client],
    dur: Duration,
    measured: u64,
    block: u64,
    trace: bool,
) -> Window {
    let barrier = std::sync::Barrier::new(streams.len() + 1);
    let results: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .zip(clients.iter_mut())
            .map(|(stream, cl)| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut out = Window::default();
                    barrier.wait();
                    let start = Instant::now();
                    let mut k = 0u64;
                    // The open block's start and calls, and each closed
                    // block's `(calls, wall ns)`.
                    let (mut block_start, mut block_ops) = (start, 0u64);
                    let mut closed = Vec::new();
                    while start.elapsed() < dur {
                        let req = &stream[k as usize % stream.len()];
                        let traced = trace && is_traced(k);
                        let t0 = Instant::now();
                        let o = if traced {
                            w.run(cl, req, k, Some(&mut out.layers))
                        } else {
                            w.run(cl, req, k, None)
                        };
                        let wall = t0.elapsed().as_nanos() as u64;
                        let mode = &mut out.by_mode[traced as usize];
                        mode.0 += 1;
                        mode.1 += wall;
                        out.requests += 1;
                        out.ops += o.ops;
                        out.failed += o.failed;
                        out.gestures += o.gesture.is_some() as u64;
                        if k < measured {
                            block_ops += o.ops;
                            out.request_ns.push(saturating_ns(o.busy));
                            out.gesture_ns.extend(o.gesture.map(saturating_ns));
                        }
                        k += 1;
                        if k <= measured && k.is_multiple_of(block) {
                            let now = Instant::now();
                            closed.push((block_ops, (now - block_start).as_nanos() as f64));
                            (block_start, block_ops) = (now, 0);
                        }
                        if k == measured {
                            out.peak_rss_mb = Some(peak_rss_mb());
                        }
                    }
                    out.blocks = out
                        .request_ns
                        .chunks_exact(block as usize)
                        .zip(closed)
                        .map(|(lat, (ops, ns))| Block {
                            ops_per_s: ratio(ops as f64 * 1e9, ns),
                            p50_us: latency_ns(lat, 0.50) / 1e3,
                            p99_us: latency_ns(lat, 0.99) / 1e3,
                        })
                        .collect();
                    out.per_client.push(k);
                    out
                })
            })
            .collect();
        barrier.wait();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut total = Window::default();
    for r in results {
        total.requests += r.requests;
        total.ops += r.ops;
        total.failed += r.failed;
        total.gestures += r.gestures;
        total.blocks.extend(r.blocks);
        total.request_ns.extend(r.request_ns);
        total.gesture_ns.extend(r.gesture_ns);
        total.peak_rss_mb = total.peak_rss_mb.into_iter().chain(r.peak_rss_mb).reduce(f64::max);
        total.layers.merge(&r.layers);
        for m in 0..2 {
            total.by_mode[m].0 += r.by_mode[m].0;
            total.by_mode[m].1 += r.by_mode[m].1;
        }
        total.per_client.extend(r.per_client);
    }
    total
}

/// The `q` quantile of latency samples, in nanoseconds.
pub fn latency_ns(samples: &[u32], q: f64) -> f64 {
    percentile(samples.iter().map(|&x| x as f64), q)
}

/// Fills `buf` with the content identified by `tag`: every stored file's
/// bytes are a function of its tag, so a read is checked against the
/// tag the model expects without keeping the bytes.
pub fn fill(buf: &mut [u8], tag: u64) {
    let mut x = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for chunk in buf.chunks_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bytes = x.to_le_bytes();
        chunk.copy_from_slice(&bytes[..chunk.len()]);
    }
}

/// True when `got` is exactly the content of `tag` at length `len`.
pub fn matches(got: &[u8], tag: u64, len: usize, scratch: &mut Vec<u8>) -> bool {
    scratch.resize(len, 0);
    fill(scratch, tag);
    got == scratch.as_slice()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = || (1..=100).rev().map(f64::from);
        assert_eq!(percentile(v(), 0.50), 50.0);
        assert_eq!(percentile(v(), 0.99), 99.0);
        assert_eq!(percentile(v(), 1.0), 100.0);
        assert_eq!(percentile(v(), 0.0), 1.0);
        assert_eq!(percentile([7.0], 0.99), 7.0);
        assert_eq!(percentile([], 0.5), 0.0);
    }

    #[test]
    fn tracing_picks_half_of_every_residue_class() {
        for m in [2u64, 16, 64, 128] {
            let traced = (0..64_000u64).filter(|k| k % m == m - 1 && is_traced(*k)).count();
            let share = traced as f64 / (64_000 / m) as f64;
            assert!((share - 0.5).abs() < 0.1, "k = {m}n-1: traced share {share}");
        }
    }

    #[test]
    fn latency_quantiles_of_unsorted_samples() {
        let v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(latency_ns(&v, 0.50), 50.0);
        assert_eq!(latency_ns(&v, 0.99), 99.0);
        assert_eq!(latency_ns(&[], 0.99), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(7);
        let mut counts = vec![0u32; 1000];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // Zipf(1) over 1000 ranks: rank 0 holds 1/H(1000) ~ 13.4% of draws
        // and rank 1 half of that.
        let share0 = counts[0] as f64 / 100_000.0;
        assert!((share0 - 0.134).abs() < 0.01, "rank-0 share {share0}");
        let r = counts[0] as f64 / counts[1] as f64;
        assert!((r - 2.0).abs() < 0.2, "rank0/rank1 {r}");
        assert!(counts[999] < counts[0] / 100);
        let draw = |seed| {
            let mut rng = Rng::new(seed);
            (0..32).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
    }

    #[test]
    fn units_follow_metric_names() {
        assert_eq!(Unit::from_suffix("setup_s"), Some(Unit::S));
        assert_eq!(Unit::from_suffix("request_p99_us"), Some(Unit::Us));
        assert_eq!(Unit::from_suffix("cold_boot_ms"), Some(Unit::Ms));
        assert_eq!(Unit::from_suffix("ops_per_s"), Some(Unit::OpsPerS));
        assert_eq!(Unit::from_suffix("peak_rss_mb"), Some(Unit::Mb));
        assert_eq!(Unit::from_suffix("space_amp"), None);
        let m = Metric::new("request_p50_us", Unit::Us, 1.5);
        assert_eq!(m.unit.as_str(), "us");
        assert_eq!(Metric::new("x", Unit::Ratio, f64::NAN).value, 0.0);
    }

    #[test]
    #[should_panic(expected = "tagged")]
    fn a_latency_name_cannot_carry_a_ratio() {
        Metric::new("request_p50_us", Unit::Ratio, 1.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(
            true,
            10,
            0,
            &[Metric::new("setup_s", Unit::S, 0.25), Metric::new("space_amp", Unit::Ratio, 2.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"space_amp\": {\"value\": 2.0, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn fill_is_a_function_of_the_tag() {
        let mut a = vec![0u8; 100];
        let mut b = vec![0u8; 100];
        fill(&mut a, 5);
        fill(&mut b, 5);
        assert_eq!(a, b);
        fill(&mut b, 6);
        assert_ne!(a, b);
        let mut scratch = Vec::new();
        fill(&mut a, 9);
        assert!(matches(&a, 9, 100, &mut scratch));
        assert!(!matches(&a, 9, 99, &mut scratch));
        assert!(!matches(&a, 8, 100, &mut scratch));
    }
}
