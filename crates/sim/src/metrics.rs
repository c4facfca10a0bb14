//! Measurement plumbing: log-bucketed sample histograms, plus a by-name
//! view of the counter registry.
//!
//! Experiment drivers read these after a run to produce the paper's tables.
//! Sample series are keyed by string names so protocol code can record
//! without the harness pre-registering anything. Hot paths pass `&'static
//! str` names, which are stored as borrowed [`Cow`]s — recording into an
//! existing (or even a fresh) series never allocates a key.
//!
//! Counting is not done here: every counted event is a typed
//! [`Counter`] in the per-node [`Counters`] registry, which this struct
//! carries so that [`Metrics::counter`] can read it by dotted name.
//!
//! Sample series are [`Histogram`]s rather than raw `Vec<u64>` so that
//! multi-hour fuzz sweeps and million-op benchmark runs stay bounded in
//! memory: a histogram is at most ~8 KB regardless of how many samples it
//! absorbs, at the price of ~3% relative error above 64.

use crate::health::{Counter, Counters};
use std::borrow::Cow;
use std::collections::HashMap;

/// Named sample histograms and the simulation's counter registry.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    samples: HashMap<Cow<'static, str>, Histogram>,
    /// The one counter registry (`Simulation::health` hands it out).
    pub(crate) counters: Counters,
}

impl Metrics {
    /// Creates an empty metrics registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Cluster-wide total of the counter whose dotted name is `name`
    /// (e.g. `"net.dropped"`) — a by-name read of [`Counters`].
    ///
    /// # Panics
    ///
    /// Panics if no [`Counter`] carries `name`: every name is a
    /// constant, so an unknown one is a typo that would otherwise read
    /// as a silent zero.
    pub fn counter(&self, name: &str) -> u64 {
        let i = Counter::NAMES
            .iter()
            .position(|&n| n == name)
            .unwrap_or_else(|| panic!("no counter is named `{name}`"));
        self.counters.total_at(i)
    }

    /// Records a sample (e.g. a latency in nanoseconds) into series `name`.
    pub fn record(&mut self, name: impl Into<Cow<'static, str>>, value: u64) {
        self.samples.entry(name.into()).or_default().record(value);
    }

    /// The histogram behind series `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.samples.get(name)
    }

    /// Summary statistics over a series (zeroed if never written).
    pub fn summary(&self, name: &str) -> Summary {
        self.samples
            .get(name)
            .map_or_else(Summary::default, Histogram::summary)
    }

    /// Removes every sample. The counters are left alone: a reader
    /// windows them by difference (read before, read after, subtract),
    /// or clears them with [`Counters::reset`].
    pub fn reset(&mut self) {
        self.samples.clear();
    }
}

/// Sub-bucket precision: values ≥ [`LINEAR_BUCKETS`] land in one of
/// `2^SUB_BITS` sub-buckets per power of two, bounding relative error to
/// `2^-SUB_BITS` (≈ 3.1% hereunder, HDR-histogram style).
const SUB_BITS: u32 = 4;
/// Values below this are counted exactly, one bucket per value.
const LINEAR_BUCKETS: u64 = 64;
/// Smallest exponent handled by the logarithmic range (`2^6` = 64).
const MIN_EXP: u32 = 6;
/// Total bucket count: 64 exact + 16 per power of two for 2^6..2^63.
const BUCKETS: usize = LINEAR_BUCKETS as usize + (64 - MIN_EXP as usize) * (1 << SUB_BITS);

/// A log-bucketed histogram of `u64` samples with exact count/sum/min/max
/// and ≈3% worst-case relative error on percentiles above 64.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index `value` falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value < LINEAR_BUCKETS {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let sub = (value >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
        LINEAR_BUCKETS as usize + ((exp - MIN_EXP) as usize) * (1 << SUB_BITS) + sub as usize
    }

    /// The inclusive lower bound of bucket `idx`.
    pub fn bucket_lower(idx: usize) -> u64 {
        if idx < LINEAR_BUCKETS as usize {
            return idx as u64;
        }
        let log = idx - LINEAR_BUCKETS as usize;
        let exp = (log / (1 << SUB_BITS)) as u32 + MIN_EXP;
        let sub = (log % (1 << SUB_BITS)) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }

    /// The width of bucket `idx` (its exclusive upper bound is
    /// `bucket_lower(idx) + bucket_width(idx)`).
    pub fn bucket_width(idx: usize) -> u64 {
        if idx < LINEAR_BUCKETS as usize {
            return 1;
        }
        let exp = ((idx - LINEAR_BUCKETS as usize) / (1 << SUB_BITS)) as u32 + MIN_EXP;
        1u64 << (exp - SUB_BITS)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile estimate: the midpoint of the bucket that
    /// holds the sample of rank `ceil(p · count)`, clamped to the exact
    /// observed `[min, max]` range.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = Self::bucket_lower(idx) + Self::bucket_width(idx) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Summary statistics over the recorded samples.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count as usize,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            p999: self.percentile(0.999),
        }
    }
}

/// Summary statistics of a sample series.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0.0 when empty).
    pub mean: f64,
    /// Median (0 when empty).
    pub p50: u64,
    /// 90th percentile (0 when empty).
    pub p90: u64,
    /// 99th percentile (0 when empty).
    pub p99: u64,
    /// 99.9th percentile (0 when empty).
    pub p999: u64,
}

impl Summary {
    /// Computes exact summary statistics of `samples` using the
    /// nearest-rank method: the p-th percentile is the sample of rank
    /// `ceil(p · count)` (1-based) in sorted order.
    pub fn of(samples: &[u64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let count = sorted.len();
        let sum: u128 = sorted.iter().map(|&x| x as u128).sum();
        let pct = |p: f64| {
            let rank = ((p * count as f64).ceil() as usize).clamp(1, count);
            sorted[rank - 1]
        };
        Summary {
            count,
            min: sorted[0],
            max: sorted[count - 1],
            mean: sum as f64 / count as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            p999: pct(0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The four names `benchmark/src/harness.rs` reads through
    /// `Metrics::counter` resolve to their variants.
    #[test]
    fn counter_reads_the_registry_by_dotted_name() {
        let mut m = Metrics::new();
        let names = [
            ("net.dropped", Counter::NetDropped),
            ("cpu.dropped", Counter::CpuDropped),
            ("replica.ops_executed", Counter::OpsExecuted),
            ("client.busy_received", Counter::BusyReceived),
        ];
        for (i, &(name, c)) in names.iter().enumerate() {
            assert_eq!(c.name(), name);
            m.counters.count_add(i as u32, c, i as u64 + 1);
            m.counters.count(7, c);
        }
        for (i, &(name, _)) in names.iter().enumerate() {
            assert_eq!(m.counter(name), i as u64 + 2, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "no counter is named `client.ops_complete`")]
    fn counter_panics_on_an_unknown_name() {
        Metrics::new().counter("client.ops_complete");
    }

    #[test]
    fn series_and_summary() {
        let mut m = Metrics::new();
        for v in [10u64, 20, 30, 40, 50] {
            m.record("latency", v);
        }
        let s = m.summary("latency");
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 50);
        assert_eq!(s.p50, 30);
        assert!((s.mean - 30.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let m = Metrics::new();
        assert_eq!(m.summary("none"), Summary::default());
        assert!(m.histogram("none").is_none());
    }

    #[test]
    fn reset_clears_samples_not_counters() {
        let mut m = Metrics::new();
        m.counters.count(0, Counter::OpsCompleted);
        m.record("b", 1);
        m.reset();
        assert!(m.histogram("b").is_none());
        assert_eq!(m.counter("client.ops_completed"), 1);
    }

    #[test]
    fn p99_of_100_samples() {
        let s = Summary::of(&(1..=100u64).collect::<Vec<_>>());
        // Nearest rank: p99 is the sample of rank ceil(0.99 · 100) = 99,
        // p50 the sample of rank ceil(0.50 · 100) = 50.
        assert_eq!(s.p99, 99);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p90, 90);
        assert_eq!(s.p999, 100);
    }

    #[test]
    fn histogram_is_exact_below_64() {
        let mut h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        for p in [0.25f64, 0.5, 0.75, 1.0] {
            let rank = (p * 64.0).ceil() as u64;
            assert_eq!(h.percentile(p), rank - 1, "p{p}");
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        let mut h = Histogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 977); // spread across many log buckets
        }
        for p in [0.5, 0.9, 0.99, 0.999] {
            let exact = (p * 10_000f64).ceil() as u64 * 977;
            let est = h.percentile(p);
            let err = (est as f64 - exact as f64).abs() / exact as f64;
            assert!(err < 0.04, "p{p}: est {est} vs exact {exact} (err {err})");
        }
    }

    #[test]
    fn histogram_matches_metrics_summary() {
        let mut m = Metrics::new();
        for v in [5u64, 5, 7, 100, 1000] {
            m.record("x", v);
        }
        let s = m.summary("x");
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 1000);
        assert_eq!(s.p50, 7);
    }

    proptest! {
        /// Every recorded value falls inside the bounds of the bucket it
        /// is assigned to, and bucket bounds tile the u64 line in order.
        #[test]
        fn bucket_round_trip(v in any::<u64>()) {
            let idx = Histogram::bucket_index(v);
            let lo = Histogram::bucket_lower(idx);
            let w = Histogram::bucket_width(idx);
            prop_assert!(lo <= v, "lower {lo} > value {v}");
            prop_assert!(v - lo < w, "value {v} beyond bucket [{lo}, {lo}+{w})");
            if idx + 1 < BUCKETS {
                prop_assert_eq!(Histogram::bucket_lower(idx + 1), lo.saturating_add(w));
            }
        }

        /// Percentile estimates stay within the histogram's error bound
        /// of the exact nearest-rank answer.
        #[test]
        fn percentile_error_bound(mut vals in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            for &v in &vals {
                h.record(v);
            }
            vals.sort_unstable();
            for &(p, _) in &[(0.5, ()), (0.99, ())] {
                let rank = ((p * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
                let exact = vals[rank - 1];
                let est = h.percentile(p);
                // Bucket width is < 1/16 of the value for log buckets and
                // 1 below 64; allow one bucket of slack either way.
                let slack = (exact / 16).max(1);
                prop_assert!(est >= exact.saturating_sub(slack) && est <= exact + slack,
                    "p{}: est {} vs exact {}", p, est, exact);
            }
        }
    }
}
