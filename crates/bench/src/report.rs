//! Tiny measurement helpers for the table-printing binaries.

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

    /// Median time in nanoseconds (average of the two middle trials for
    /// even counts). Robust against a single pathological trial.
    pub fn median_ns(&self) -> f64 {
        if self.trials_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.trials_ns.clone();
        sorted.sort_unstable();
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
        let mut sorted = self.trials_ns.clone();
        sorted.sort_unstable();
        let kept = &sorted[k..n - k];
        kept.iter().sum::<u64>() as f64 / kept.len() as f64
    }

    /// Trimmed mean in microseconds.
    pub fn trimmed_mean_us(&self) -> f64 {
        self.trimmed_mean_ns() / 1_000.0
    }

    /// 95th-percentile time in nanoseconds (nearest-rank method: the
    /// smallest trial at or above the 95% rank). Tail latency is what a
    /// user feels when a gesture occasionally stalls; the mean hides it.
    pub fn p95_ns(&self) -> f64 {
        if self.trials_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.trials_ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((n as f64) * 0.95).ceil() as usize;
        sorted[rank.clamp(1, n) - 1] as f64
    }

    /// 95th-percentile time in microseconds.
    pub fn p95_us(&self) -> f64 {
        self.p95_ns() / 1_000.0
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
/// (untimed) to reset state.
pub fn measure<S, O>(trials: usize, mut setup: S, mut op: O) -> Measurement
where
    S: FnMut(),
    O: FnMut(),
{
    for _ in 0..WARMUP_TRIALS.min(trials) {
        setup();
        op();
    }
    let mut trials_ns = Vec::with_capacity(trials);
    for _ in 0..trials {
        setup();
        let start = Instant::now();
        op();
        trials_ns.push(start.elapsed().as_nanos() as u64);
    }
    Measurement { trials_ns }
}

/// One interleaved-measurement case: (per-trial setup, timed operation).
pub type Case = (Box<dyn FnMut()>, Box<dyn FnMut()>);

/// Measures several alternatives with interleaved trials (round-robin),
/// so allocator warm-up and cache effects spread evenly across modes
/// instead of favouring whichever runs last.
pub fn measure_interleaved(trials: usize, mut cases: Vec<Case>) -> Vec<Measurement> {
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

/// The unit a benchmark row is expressed in. Emitted verbatim as the
/// `unit` field of every row so downstream tooling does not have to
/// guess from the row name whether smaller-is-better applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Microseconds (latency cells; smaller is better).
    Us,
    /// Operations per second (throughput cells; larger is better).
    OpsPerSec,
    /// Dimensionless scalar: hit rates, speedups, counts.
    Ratio,
}

impl Unit {
    /// The string emitted in the JSON `unit` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Us => "us",
            Unit::OpsPerSec => "ops_per_sec",
            Unit::Ratio => "ratio",
        }
    }
}

/// Accumulates named measurements and serialises them as a small JSON
/// document for CI artifacts (`BENCH_table3.json`, `BENCH_table4.json`).
///
/// Hand-rolled on purpose: the workspace carries no JSON dependency and
/// the schema is flat enough not to need one.
#[derive(Debug, Default)]
pub struct BenchJson {
    rows: Vec<Row>,
}

#[derive(Debug)]
struct Row {
    name: String,
    unit: Unit,
    mean: f64,
    stddev: f64,
    median: f64,
    trimmed: f64,
    p95: f64,
}

impl Default for Unit {
    fn default() -> Self {
        Unit::Us
    }
}

impl BenchJson {
    /// Creates an empty report.
    pub fn new() -> Self {
        BenchJson::default()
    }

    /// Records one benchmark cell under `name` (unit `us`).
    pub fn push(&mut self, name: &str, m: &Measurement) {
        self.rows.push(Row {
            name: name.to_string(),
            unit: Unit::Us,
            mean: m.mean_us(),
            stddev: m.stddev_ns() / 1_000.0,
            median: m.median_us(),
            trimmed: m.trimmed_mean_us(),
            p95: m.p95_us(),
        });
    }

    /// Records a bare scalar cell (e.g. a cache hit rate) under `name`
    /// with unit `ratio`. Scalars reuse the `mean_us` slot and zero the
    /// spread columns.
    pub fn push_scalar(&mut self, name: &str, value: f64) {
        self.push_scalar_unit(name, value, Unit::Ratio);
    }

    /// Records a bare scalar cell with an explicit [`Unit`] — used for
    /// throughput rows (`Unit::OpsPerSec`) that would otherwise read as
    /// dimensionless.
    pub fn push_scalar_unit(&mut self, name: &str, value: f64, unit: Unit) {
        self.rows.push(Row {
            name: name.to_string(),
            unit,
            mean: value,
            stddev: 0.0,
            median: value,
            trimmed: value,
            p95: value,
        });
    }

    /// Renders the report as a JSON string:
    /// `{"benchmarks": [{"name": ..., "unit": ..., "mean_us": ...,
    /// "stddev_us": ..., "median_us": ..., "trimmed_mean_us": ...,
    /// "p95_us": ...}, ...]}`. The stat keys keep their historical
    /// `_us` suffix for all units; the `unit` field is authoritative.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"mean_us\": {:.3}, \
                 \"stddev_us\": {:.3}, \"median_us\": {:.3}, \"trimmed_mean_us\": {:.3}, \
                 \"p95_us\": {:.3}}}{comma}\n",
                json_escape(&row.name),
                row.unit.as_str(),
                row.mean,
                row.stddev,
                row.median,
                row.trimmed,
                row.p95,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path`.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
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
        assert!((m.p95_ns() - 19.0).abs() < 1e-9);
        // Small samples: p95 is the max.
        let s = Measurement { trials_ns: vec![300, 100, 200] };
        assert!((s.p95_ns() - 300.0).abs() < 1e-9);
        assert_eq!(Measurement { trials_ns: vec![] }.p95_ns(), 0.0);
    }

    #[test]
    fn overhead_formatting() {
        assert_eq!(fmt_overhead(0.2), "0");
        assert_eq!(fmt_overhead(7.5), "7.5%");
        assert_eq!(fmt_overhead(-3.0), "-3.0%");
    }

    #[test]
    fn bench_json_shape() {
        let mut j = BenchJson::new();
        j.push("dict/insert/android", &Measurement { trials_ns: vec![1_000, 3_000] });
        j.push("dict/insert/delegate", &Measurement { trials_ns: vec![2_000] });
        let s = j.to_json();
        assert!(s.starts_with("{\n  \"benchmarks\": [\n"));
        assert!(
            s.contains("\"name\": \"dict/insert/android\", \"unit\": \"us\", \"mean_us\": 2.000")
        );
        assert!(s.contains(
            "\"name\": \"dict/insert/delegate\", \"unit\": \"us\", \"mean_us\": 2.000, \
             \"stddev_us\": 0.000, \"median_us\": 2.000, \"trimmed_mean_us\": 2.000, \
             \"p95_us\": 2.000}"
        ));
        // Exactly one separating comma between the two entries.
        assert_eq!(s.matches("},").count(), 1);
        assert!(s.trim_end().ends_with("]\n}"));
    }

    #[test]
    fn bench_json_scalar_rows() {
        let mut j = BenchJson::new();
        j.push_scalar("cache/stmt_hit_rate", 0.9375);
        let s = j.to_json();
        assert!(s.contains(
            "\"name\": \"cache/stmt_hit_rate\", \"unit\": \"ratio\", \"mean_us\": 0.938, \
             \"stddev_us\": 0.000"
        ));
    }

    #[test]
    fn bench_json_unit_field() {
        let mut j = BenchJson::new();
        j.push("lat/cell", &Measurement { trials_ns: vec![1_000] });
        j.push_scalar("cache/hit_rate", 0.5);
        j.push_scalar_unit("concurrency/threads4/ops_per_sec", 1234.5, Unit::OpsPerSec);
        let s = j.to_json();
        assert!(s.contains("\"name\": \"lat/cell\", \"unit\": \"us\""));
        assert!(s.contains("\"name\": \"cache/hit_rate\", \"unit\": \"ratio\""));
        assert!(s.contains(
            "\"name\": \"concurrency/threads4/ops_per_sec\", \"unit\": \"ops_per_sec\", \
             \"mean_us\": 1234.500"
        ));
        // Every row carries a unit.
        assert_eq!(s.matches("\"unit\":").count(), 3);
    }

    #[test]
    fn bench_json_escapes_names() {
        let mut j = BenchJson::new();
        j.push("a\"b\\c\nd", &Measurement { trials_ns: vec![1] });
        let s = j.to_json();
        assert!(s.contains(r#""name": "a\"b\\c\nd""#));
    }
}
