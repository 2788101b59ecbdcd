//! The one measurement harness of the bench bins: a timing loop, its
//! statistics, the JSON rows every bin writes, and the exit gates read
//! from those rows.

use std::time::Instant;

/// Untimed warmup iterations run before the timed trials. Warmup absorbs
/// allocator growth, cold caches and (since the hot-path caching work)
/// first-use cache population, so the first mode benchmarked is not
/// penalized relative to later ones.
pub const WARMUP_TRIALS: usize = 3;

/// A set of timed trials.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Per-trial wall times in nanoseconds.
    pub trials_ns: Vec<u64>,
}

impl Measurement {
    /// Mean time in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.trials_ns.is_empty() {
            return 0.0;
        }
        self.trials_ns.iter().sum::<u64>() as f64 / self.trials_ns.len() as f64
    }

    /// Sample standard deviation in nanoseconds.
    pub fn stddev_ns(&self) -> f64 {
        let n = self.trials_ns.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_ns();
        let var = self
            .trials_ns
            .iter()
            .map(|&t| {
                let d = t as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// Mean time in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1_000.0
    }

    fn sorted(&self) -> Vec<u64> {
        let mut sorted = self.trials_ns.clone();
        sorted.sort_unstable();
        sorted
    }

    /// Median time in nanoseconds (average of the two middle trials for
    /// even counts). Robust against a single pathological trial.
    pub fn median_ns(&self) -> f64 {
        if self.trials_ns.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted();
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2] as f64
        } else {
            (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
        }
    }

    /// Median time in microseconds.
    pub fn median_us(&self) -> f64 {
        self.median_ns() / 1_000.0
    }

    /// Trimmed mean in nanoseconds: drops the slowest and fastest tenth
    /// of the trials (at least one from each end once there are three or
    /// more) before averaging. Falls back to the plain mean when too few
    /// trials remain.
    pub fn trimmed_mean_ns(&self) -> f64 {
        let n = self.trials_ns.len();
        if n < 3 {
            return self.mean_ns();
        }
        let k = (n / 10).max(1);
        if 2 * k >= n {
            return self.mean_ns();
        }
        let sorted = self.sorted();
        let kept = &sorted[k..n - k];
        kept.iter().sum::<u64>() as f64 / kept.len() as f64
    }

    /// Trimmed mean in microseconds.
    pub fn trimmed_mean_us(&self) -> f64 {
        self.trimmed_mean_ns() / 1_000.0
    }

    /// The `q` quantile in nanoseconds by the nearest-rank method: the
    /// smallest trial at or above rank `ceil(q * n)`. Tail latency is what
    /// a user feels when a gesture occasionally stalls; the mean hides it.
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.trials_ns.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted();
        let n = sorted.len();
        let rank = ((n as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, n) - 1] as f64
    }

    /// 95th-percentile time in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.percentile_ns(0.95) / 1_000.0
    }

    /// Overhead of `self` relative to a baseline measurement, in percent
    /// (negative means faster than baseline).
    pub fn overhead_pct(&self, baseline: &Measurement) -> f64 {
        let b = baseline.mean_ns();
        if b == 0.0 {
            return 0.0;
        }
        (self.mean_ns() - b) / b * 100.0
    }
}

/// Runs `op` for `trials` timed iterations, invoking `setup` before each
/// (untimed) to reset or stage state: [`measure_interleaved`] over one
/// case.
pub fn measure<'a>(trials: usize, setup: impl FnMut() + 'a, op: impl FnMut() + 'a) -> Measurement {
    let mut out = measure_interleaved(trials, vec![(Box::new(setup), Box::new(op))]);
    out.remove(0)
}

/// One interleaved-measurement case: (per-trial setup, timed operation).
pub type Case<'a> = (Box<dyn FnMut() + 'a>, Box<dyn FnMut() + 'a>);

/// Measures several alternatives with interleaved trials (round-robin),
/// so allocator warm-up and cache effects spread evenly across modes
/// instead of favouring whichever runs last.
pub fn measure_interleaved(trials: usize, mut cases: Vec<Case<'_>>) -> Vec<Measurement> {
    // Warmup round.
    for (setup, op) in cases.iter_mut() {
        for _ in 0..WARMUP_TRIALS.min(trials) {
            setup();
            op();
        }
    }
    let mut out: Vec<Measurement> =
        cases.iter().map(|_| Measurement { trials_ns: Vec::with_capacity(trials) }).collect();
    for _ in 0..trials {
        for (i, (setup, op)) in cases.iter_mut().enumerate() {
            setup();
            let start = Instant::now();
            op();
            out[i].trials_ns.push(start.elapsed().as_nanos() as u64);
        }
    }
    out
}

/// Runs every leg once per repetition, in the order given on even
/// repetitions and in reverse on odd ones, so a host whose speed drifts
/// during a run favours no leg; returns, in leg order, each leg's
/// repetition with the highest `rate`.
pub fn best_of_alternated<L: Copy, T>(
    reps: usize,
    legs: &[L],
    mut run: impl FnMut(L) -> T,
    rate: impl Fn(&T) -> f64,
) -> Vec<T> {
    let mut best: Vec<Option<T>> = legs.iter().map(|_| None).collect();
    for rep in 0..reps {
        for k in 0..legs.len() {
            let i = if rep % 2 == 0 { k } else { legs.len() - 1 - k };
            let got = run(legs[i]);
            if best[i].as_ref().is_none_or(|b| rate(&got) > rate(b)) {
                best[i] = Some(got);
            }
        }
    }
    best.into_iter().map(|b| b.expect("at least one repetition")).collect()
}

/// Cores the host offers this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// The unit a benchmark row is expressed in. Emitted verbatim as the
/// `unit` field of every row so downstream tooling does not have to
/// guess from the row name whether smaller-is-better applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Microseconds (latency cells; smaller is better).
    Us,
    /// Operations per second (throughput cells; larger is better).
    OpsPerSec,
    /// Dimensionless scalar: hit rates, speedups, cost ratios.
    Ratio,
    /// A number of things: cores, tenants, evictions, rows.
    Count,
    /// A number of bytes.
    Bytes,
    /// Seconds (whole phases, such as a fleet boot).
    Seconds,
}

impl Unit {
    /// The string emitted in the JSON `unit` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Us => "us",
            Unit::OpsPerSec => "ops_per_sec",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::Bytes => "bytes",
            Unit::Seconds => "s",
        }
    }
}

/// What one row holds: the statistics of a timed cell, or one scalar.
#[derive(Debug)]
enum Stat {
    Timing { mean: f64, stddev: f64, median: f64, trimmed_mean: f64, p95: f64 },
    Scalar(f64),
}

#[derive(Debug)]
struct Row {
    name: String,
    unit: Unit,
    stat: Stat,
}

/// The rows one bin writes to `BENCH_<bin>.json`, in one schema: a
/// timing row is `{name, unit: "us", stats: {mean, stddev, median,
/// trimmed_mean, p95}}` and a scalar row is `{name, unit, value}`.
///
/// Hand-rolled on purpose: the workspace carries no JSON dependency and
/// the schema is flat enough not to need one.
#[derive(Debug)]
pub struct BenchJson {
    bin: &'static str,
    rows: Vec<Row>,
}

impl BenchJson {
    /// Creates the report of bin `bin`; its first row is `<bin>/cores`.
    pub fn new(bin: &'static str) -> Self {
        let mut json = BenchJson { bin, rows: Vec::new() };
        json.push_scalar(&format!("{bin}/cores"), cores() as f64, Unit::Count);
        json
    }

    /// Records one timed cell under `name`.
    pub fn push(&mut self, name: &str, m: &Measurement) {
        let stat = Stat::Timing {
            mean: m.mean_us(),
            stddev: m.stddev_ns() / 1_000.0,
            median: m.median_us(),
            trimmed_mean: m.trimmed_mean_us(),
            p95: m.p95_us(),
        };
        self.rows.push(Row { name: name.to_string(), unit: Unit::Us, stat });
    }

    /// Records one scalar cell (a rate, a count, a throughput) under
    /// `name`.
    pub fn push_scalar(&mut self, name: &str, value: f64, unit: Unit) {
        self.rows.push(Row { name: name.to_string(), unit, stat: Stat::Scalar(value) });
    }

    /// The value a gate reads from cell `name`: a scalar's value or a
    /// timed cell's median. `None` when the bin wrote no such row.
    fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| match r.stat {
            Stat::Timing { median, .. } => median,
            Stat::Scalar(v) => v,
        })
    }

    /// Renders the report as `{"benchmarks": [row, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let body = match row.stat {
                Stat::Timing { mean, stddev, median, trimmed_mean, p95 } => format!(
                    "\"stats\": {{\"mean\": {mean:.3}, \"stddev\": {stddev:.3}, \
                     \"median\": {median:.3}, \"trimmed_mean\": {trimmed_mean:.3}, \
                     \"p95\": {p95:.3}}}"
                ),
                Stat::Scalar(v) => format!("\"value\": {v:.3}"),
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", {body}}}{comma}\n",
                json_escape(&row.name),
                row.unit.as_str(),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `BENCH_<bin>.json`, then checks the bin's rows of
    /// `GATES`: prints every verdict and exits 1 if any gate fails.
    pub fn finish(self) {
        let path = format!("BENCH_{}.json", self.bin);
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\n(wrote {path})");
        if !self.gates_pass() {
            std::process::exit(1);
        }
    }

    /// Checks every gate of this bin, printing each verdict.
    fn gates_pass(&self) -> bool {
        let mut pass = true;
        for gate in GATES.iter().filter(|g| g.bin == self.bin) {
            match gate.check(self) {
                Ok(why) => println!("gate pass: {why}"),
                Err(why) => {
                    eprintln!("FAIL: {why}");
                    pass = false;
                }
            }
        }
        pass
    }
}

/// How a gated cell must compare with its bound.
#[derive(Debug, Clone, Copy)]
enum Cmp {
    /// `cell <= bound`.
    AtMost,
    /// `cell >= bound`.
    AtLeast,
    /// `cell > bound`.
    Above,
}

/// What a gated cell is compared with.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// A fixed threshold.
    Value(f64),
    /// `factor` times another cell of the same bin. On a one-core host,
    /// where N threads can only interleave, `one_core` replaces `factor`.
    Times {
        /// The cell the factor multiplies.
        cell: &'static str,
        /// The factor on two or more cores.
        factor: f64,
        /// The factor on one core.
        one_core: f64,
    },
}

/// One exit gate: every cell in `cells` must compare with `bound` as
/// `cmp` says. A cell the bin did not write fails the gate.
struct Gate {
    /// The bin whose rows the gate reads.
    bin: &'static str,
    /// The gated cells.
    cells: &'static [&'static str],
    /// The comparison each cell must pass.
    cmp: Cmp,
    /// The threshold, fixed or relative to another cell.
    bound: Bound,
    /// The gate holds without looking at `cells` while this cell reads 0.
    unless_zero: Option<&'static str>,
}

/// Every exit gate of the bench bins.
const GATES: &[Gate] = &[
    // A paged 4 KB read and write on a cache-resident hot set cost at
    // most 3x the all-in-memory store, by median.
    Gate {
        bin: "block",
        cells: &[
            "backend/read_4k/median_ratio_paged_mem_vs_resident",
            "backend/write_4k/median_ratio_paged_mem_vs_resident",
        ],
        cmp: Cmp::AtMost,
        bound: Bound::Value(3.0),
        unless_zero: None,
    },
    // The journaled (batch 16) 4 KB file write costs at most 5x the
    // unjournaled one, by median.
    Gate {
        bin: "journal",
        cells: &["journal_overhead/fs_write_4k/median_ratio_batch16_vs_off"],
        cmp: Cmp::AtMost,
        bound: Bound::Value(5.0),
        unless_zero: None,
    },
    // A paged PK point query on a cache-resident hot set costs at most
    // 3x the resident table, by median.
    Gate {
        bin: "sqlheap",
        cells: &["backend/point_query/median_ratio_paged_mem_vs_resident"],
        cmp: Cmp::AtMost,
        bound: Bound::Value(3.0),
        unless_zero: None,
    },
    // A cyclic re-scan at 2x the page budget keeps a non-zero hit rate
    // (the scan cliff the segmented clock exists to prevent).
    Gate {
        bin: "sqlheap",
        cells: &["heap_working_set/ratio2/hit_rate"],
        cmp: Cmp::Above,
        bound: Bound::Value(0.0),
        unless_zero: None,
    },
    // 4 app threads reach one thread's throughput (0.7x on one core).
    Gate {
        bin: "concurrency",
        cells: &["concurrency/threads4/ops_per_sec"],
        cmp: Cmp::AtLeast,
        bound: Bound::Times {
            cell: "concurrency/threads1/ops_per_sec",
            factor: 1.0,
            one_core: 0.7,
        },
        unless_zero: None,
    },
    // 4 readers reach one reader's throughput (0.9x on one core: they
    // share the authority's lock and no cache, so interleaving costs
    // nothing).
    Gate {
        bin: "mvcc",
        cells: &["mvcc/readers4/ops_per_sec"],
        cmp: Cmp::AtLeast,
        bound: Bound::Times { cell: "mvcc/readers1/ops_per_sec", factor: 1.0, one_core: 0.9 },
        unless_zero: None,
    },
    // 8 fleet workers reach one worker's throughput (0.7x on one core).
    Gate {
        bin: "fleet",
        cells: &["fleet/threads8/ops_per_sec"],
        cmp: Cmp::AtLeast,
        bound: Bound::Times { cell: "fleet/threads1/ops_per_sec", factor: 1.0, one_core: 0.7 },
        unless_zero: None,
    },
    // Eviction reclaims every sampled volatile byte and delta row.
    Gate {
        bin: "fleet",
        cells: &["fleet/cow/volatile_bytes_after", "fleet/cow/delta_rows_after"],
        cmp: Cmp::AtMost,
        bound: Bound::Value(0.0),
        unless_zero: None,
    },
    // The evictor finds idle tenants whenever the sample held volatile
    // state.
    Gate {
        bin: "fleet",
        cells: &["fleet/evict/tenants"],
        cmp: Cmp::Above,
        bound: Bound::Value(0.0),
        unless_zero: Some("fleet/cow/volatile_bytes_before"),
    },
];

impl Gate {
    /// The verdict on `json`'s rows, with the inputs it read: `Ok` when
    /// the gate holds.
    fn check(&self, json: &BenchJson) -> Result<String, String> {
        let cell = |name: &str| {
            json.value(name)
                .ok_or_else(|| format!("{} gate: cell {name} was not written", self.bin))
        };
        if let Some(guard) = self.unless_zero {
            if cell(guard)? == 0.0 {
                return Ok(format!("{} gate: {guard} = 0, nothing to check", self.bin));
            }
        }
        let (bound, shown) = match self.bound {
            Bound::Value(v) => (v, format!("{v}")),
            Bound::Times { cell: base, factor, one_core } => {
                let cores = cell(&format!("{}/cores", self.bin))?;
                let f = if cores >= 2.0 { factor } else { one_core };
                let b = cell(base)?;
                (f * b, format!("{f} x {base} ({b:.3}) on {cores} core(s)"))
            }
        };
        let (op, holds): (&str, fn(f64, f64) -> bool) = match self.cmp {
            Cmp::AtMost => ("<=", |v, b| v <= b),
            Cmp::AtLeast => (">=", |v, b| v >= b),
            Cmp::Above => (">", |v, b| v > b),
        };
        let mut pass = true;
        let mut seen = Vec::new();
        for name in self.cells {
            let v = cell(name)?;
            pass &= holds(v, bound);
            seen.push(format!("{name} = {v:.3}"));
        }
        let why = format!("{} gate: {} {op} {shown}", self.bin, seen.join(", "));
        if pass {
            Ok(why)
        } else {
            Err(why)
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an overhead percentage the way the paper's Table 3 does.
pub fn fmt_overhead(pct: f64) -> String {
    if pct.abs() < 0.5 {
        "0".to_string()
    } else {
        format!("{pct:.1}%")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let m = Measurement { trials_ns: vec![100, 200, 300] };
        assert!((m.mean_ns() - 200.0).abs() < 1e-9);
        assert!(m.stddev_ns() > 0.0);
        let b = Measurement { trials_ns: vec![100, 100, 100] };
        assert!((m.overhead_pct(&b) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn median_is_outlier_robust() {
        let m = Measurement { trials_ns: vec![100, 110, 120, 130, 100_000] };
        assert!((m.median_ns() - 120.0).abs() < 1e-9);
        // Even count: average of the two middle trials.
        let e = Measurement { trials_ns: vec![100, 200, 300, 400] };
        assert!((e.median_ns() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // One trial from each end is dropped; the huge outlier vanishes.
        let m = Measurement { trials_ns: vec![100, 110, 120, 130, 100_000] };
        assert!((m.trimmed_mean_ns() - 120.0).abs() < 1e-9);
        // Too few trials to trim: falls back to the plain mean.
        let small = Measurement { trials_ns: vec![100, 300] };
        assert!((small.trimmed_mean_ns() - small.mean_ns()).abs() < 1e-9);
    }

    #[test]
    fn measure_runs_trials() {
        let mut count = 0;
        let m = measure(5, || {}, || count += 1);
        assert_eq!(m.trials_ns.len(), 5);
        // Trials plus the untimed warmup iterations.
        assert_eq!(count, 5 + WARMUP_TRIALS);
    }

    #[test]
    fn degenerate_stats_are_zero() {
        let empty = Measurement { trials_ns: vec![] };
        assert_eq!(empty.mean_ns(), 0.0);
        assert_eq!(empty.stddev_ns(), 0.0);
        assert_eq!(empty.median_ns(), 0.0);
        assert_eq!(empty.trimmed_mean_ns(), 0.0);
        let single = Measurement { trials_ns: vec![7] };
        assert_eq!(single.stddev_ns(), 0.0);
        assert_eq!(single.median_ns(), 7.0);
        assert_eq!(single.trimmed_mean_ns(), 7.0);
    }

    #[test]
    fn p95_is_the_tail() {
        // 20 trials 1..=20 (in ns): rank ceil(20*0.95)=19 -> value 19.
        let m = Measurement { trials_ns: (1..=20).collect() };
        assert!((m.percentile_ns(0.95) - 19.0).abs() < 1e-9);
        // Nearest rank, not interpolation: p50 of 1..=20 is the 10th.
        assert_eq!(m.percentile_ns(0.50), 10.0);
        assert_eq!(m.percentile_ns(0.99), 20.0);
        // Small samples: p95 is the max.
        let s = Measurement { trials_ns: vec![300, 100, 200] };
        assert!((s.percentile_ns(0.95) - 300.0).abs() < 1e-9);
        assert_eq!(Measurement { trials_ns: vec![] }.percentile_ns(0.95), 0.0);
    }

    #[test]
    fn overhead_formatting() {
        assert_eq!(fmt_overhead(0.2), "0");
        assert_eq!(fmt_overhead(7.5), "7.5%");
        assert_eq!(fmt_overhead(-3.0), "-3.0%");
    }

    fn empty(bin: &'static str) -> BenchJson {
        BenchJson { bin, rows: Vec::new() }
    }

    #[test]
    fn bench_json_shape() {
        let mut j = empty("t");
        j.push("dict/insert/android", &Measurement { trials_ns: vec![1_000, 3_000] });
        j.push("dict/insert/delegate", &Measurement { trials_ns: vec![2_000] });
        let s = j.to_json();
        assert!(s.starts_with("{\n  \"benchmarks\": [\n"));
        assert!(s.contains(
            "\"name\": \"dict/insert/android\", \"unit\": \"us\", \"stats\": {\"mean\": 2.000"
        ));
        assert!(s.contains(
            "\"name\": \"dict/insert/delegate\", \"unit\": \"us\", \"stats\": {\"mean\": 2.000, \
             \"stddev\": 0.000, \"median\": 2.000, \"trimmed_mean\": 2.000, \"p95\": 2.000}}"
        ));
        // Exactly one separating comma between the two entries.
        assert_eq!(s.matches("}},").count(), 1);
        assert!(s.trim_end().ends_with("]\n}"));
    }

    #[test]
    fn bench_json_scalar_rows() {
        let mut j = empty("t");
        j.push_scalar("cache/stmt_hit_rate", 0.9375, Unit::Ratio);
        let s = j.to_json();
        assert!(s.contains(
            "{\"name\": \"cache/stmt_hit_rate\", \"unit\": \"ratio\", \"value\": 0.938}"
        ));
        // A scalar carries no timing statistics.
        assert!(!s.contains("\"stats\""));
    }

    #[test]
    fn bench_json_unit_field() {
        let mut j = BenchJson::new("t");
        j.push("lat/cell", &Measurement { trials_ns: vec![1_000] });
        j.push_scalar("concurrency/threads4/ops_per_sec", 1234.5, Unit::OpsPerSec);
        j.push_scalar("fleet/cow/volatile_bytes_before", 4096.0, Unit::Bytes);
        j.push_scalar("fleet/boot/secs", 0.25, Unit::Seconds);
        let s = j.to_json();
        // The first row is the host's core count.
        let cores =
            format!("{{\"name\": \"t/cores\", \"unit\": \"count\", \"value\": {}.000}}", cores());
        assert!(s.starts_with(&format!("{{\n  \"benchmarks\": [\n    {cores},")));
        assert!(s.contains("\"name\": \"lat/cell\", \"unit\": \"us\", \"stats\": {"));
        assert!(s.contains(
            "{\"name\": \"concurrency/threads4/ops_per_sec\", \"unit\": \"ops_per_sec\", \
             \"value\": 1234.500}"
        ));
        assert!(s.contains("\"unit\": \"bytes\", \"value\": 4096.000}"));
        assert!(s.contains("\"unit\": \"s\", \"value\": 0.250}"));
        // Every row carries a unit, and only the timed one has stats.
        assert_eq!(s.matches("\"unit\":").count(), 5);
        assert_eq!(s.matches("\"stats\":").count(), 1);
        assert_eq!(s.matches("\"value\":").count(), 4);
    }

    #[test]
    fn bench_json_escapes_names() {
        let mut j = empty("t");
        j.push("a\"b\\c\nd", &Measurement { trials_ns: vec![1] });
        let s = j.to_json();
        assert!(s.contains(r#""name": "a\"b\\c\nd""#));
    }

    /// The gate that reads `cell`.
    fn gate(cell: &str) -> &'static Gate {
        GATES.iter().find(|g| g.cells.contains(&cell)).expect("a gate reads the cell")
    }

    /// The verdict, over hand-built rows, of the gate that reads the last
    /// row's cell.
    fn holds(bin: &'static str, cells: &[(&str, f64)]) -> bool {
        let mut j = empty(bin);
        for &(name, v) in cells {
            j.push_scalar(name, v, Unit::Ratio);
        }
        gate(cells.last().expect("rows").0).check(&j).is_ok()
    }

    #[test]
    fn gates_pass_at_their_threshold_and_fail_just_past_it() {
        assert_eq!(GATES.len(), 9);
        let past = 1e-9;

        let read = "backend/read_4k/median_ratio_paged_mem_vs_resident";
        let write = "backend/write_4k/median_ratio_paged_mem_vs_resident";
        assert!(holds("block", &[(read, 3.0), (write, 3.0)]));
        assert!(!holds("block", &[(read, 3.0 + past), (write, 1.0)]));
        assert!(!holds("block", &[(read, 1.0), (write, 3.0 + past)]));

        let batch16 = "journal_overhead/fs_write_4k/median_ratio_batch16_vs_off";
        assert!(holds("journal", &[(batch16, 5.0)]));
        assert!(!holds("journal", &[(batch16, 5.0 + past)]));

        let point = "backend/point_query/median_ratio_paged_mem_vs_resident";
        assert!(holds("sqlheap", &[(point, 3.0)]));
        assert!(!holds("sqlheap", &[(point, 3.0 + past)]));
        let hit2x = "heap_working_set/ratio2/hit_rate";
        assert!(holds("sqlheap", &[(hit2x, past)]));
        assert!(!holds("sqlheap", &[(hit2x, 0.0)]));

        let after = ["fleet/cow/volatile_bytes_after", "fleet/cow/delta_rows_after"];
        assert!(holds("fleet", &[(after[0], 0.0), (after[1], 0.0)]));
        assert!(!holds("fleet", &[(after[0], 1.0), (after[1], 0.0)]));
        assert!(!holds("fleet", &[(after[1], 1.0), (after[0], 0.0)]));

        let (before, evicted) = ("fleet/cow/volatile_bytes_before", "fleet/evict/tenants");
        assert!(holds("fleet", &[(before, 4096.0), (evicted, 1.0)]));
        assert!(!holds("fleet", &[(before, 4096.0), (evicted, 0.0)]));
        // No volatile state before eviction: finding no tenant is fine.
        assert!(holds("fleet", &[(before, 0.0), (evicted, 0.0)]));
    }

    #[test]
    fn alternated_legs_reverse_on_odd_repetitions_and_keep_each_legs_best() {
        let mut order = Vec::new();
        let rates = [3.0, 1.0, 2.0];
        let mut rep = 0;
        let best = best_of_alternated(
            3,
            &[1, 2, 4],
            |n| {
                order.push(n);
                let r = (n as f64) * rates[rep / 3];
                rep += 1;
                (n, r)
            },
            |&(_, r)| r,
        );
        assert_eq!(order, [1, 2, 4, 4, 2, 1, 1, 2, 4]);
        assert_eq!(best, [(1, 3.0), (2, 6.0), (4, 12.0)]);
    }

    #[test]
    fn scaling_gates_use_their_floor_only_on_one_core() {
        for (bin, n, one, floor) in [
            (
                "concurrency",
                "concurrency/threads4/ops_per_sec",
                "concurrency/threads1/ops_per_sec",
                0.7,
            ),
            ("mvcc", "mvcc/readers4/ops_per_sec", "mvcc/readers1/ops_per_sec", 0.9),
            ("fleet", "fleet/threads8/ops_per_sec", "fleet/threads1/ops_per_sec", 0.7),
        ] {
            let cores = format!("{bin}/cores");
            let cores = cores.as_str();
            let base = 1000.0;
            // Two cores: N threads must reach one thread's throughput.
            assert!(holds(bin, &[(cores, 2.0), (one, base), (n, base)]), "{bin}");
            assert!(!holds(bin, &[(cores, 2.0), (one, base), (n, base - 1e-9)]), "{bin}");
            assert!(!holds(bin, &[(cores, 2.0), (one, base), (n, floor * base)]), "{bin}");
            // One core: the floor.
            assert!(holds(bin, &[(cores, 1.0), (one, base), (n, floor * base)]), "{bin}");
            assert!(!holds(bin, &[(cores, 1.0), (one, base), (n, floor * base - 1e-9)]), "{bin}");
        }
    }

    #[test]
    fn a_gate_whose_cell_is_missing_fails() {
        for g in GATES {
            let mut j = empty(g.bin);
            j.push_scalar(&format!("{}/cores", g.bin), 2.0, Unit::Count);
            assert!(g.check(&j).is_err(), "{} gate on {:?}", g.bin, g.cells);
            // Every cell but the last one written, at a passing value:
            // still a failure.
            let mut j = empty(g.bin);
            j.push_scalar(&format!("{}/cores", g.bin), 2.0, Unit::Count);
            if let Some(guard) = g.unless_zero {
                j.push_scalar(guard, 1.0, Unit::Count);
            }
            if let Bound::Times { cell, .. } = g.bound {
                j.push_scalar(cell, 1.0, Unit::OpsPerSec);
            }
            for name in &g.cells[..g.cells.len() - 1] {
                j.push_scalar(name, 1.0, Unit::Ratio);
            }
            assert!(g.check(&j).is_err(), "{} gate on {:?}", g.bin, g.cells);
        }
        // A scaling gate without its base cell or the core count fails.
        let g = gate("mvcc/readers4/ops_per_sec");
        let mut j = empty("mvcc");
        j.push_scalar("mvcc/readers4/ops_per_sec", 1.0, Unit::OpsPerSec);
        j.push_scalar("mvcc/cores", 2.0, Unit::Count);
        assert!(g.check(&j).is_err());
        let mut j = empty("mvcc");
        j.push_scalar("mvcc/readers4/ops_per_sec", 1.0, Unit::OpsPerSec);
        j.push_scalar("mvcc/readers1/ops_per_sec", 1.0, Unit::OpsPerSec);
        assert!(g.check(&j).is_err());
    }
}
