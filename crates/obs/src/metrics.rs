//! The metrics registry: named, labeled, lock-free counters, gauges, and
//! log-bucketed histograms, with point-in-time snapshots rendered as
//! Prometheus text exposition or JSON.
//!
//! Registration takes a short registry lock once per instrument and hands
//! back an `Arc` handle; every subsequent update is a single relaxed atomic
//! operation, so N writer threads never serialize on telemetry. Snapshots
//! read each atomic once — values from different instruments are *not*
//! mutually coherent (each is exact at its own read instant), which is the
//! standard Prometheus scrape contract.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Duration;

use crate::json::JsonValue;

/// A monotonically increasing counter (wrap-around at `u64::MAX`).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        // ordering: Relaxed — independent monotonic counter; scrapes only
        // need an eventually-consistent point-in-time value.
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        // ordering: Relaxed — scrape reads are advisory, never ordered
        // against the instrumented operations they count.
        self.value.load(Ordering::Relaxed)
    }
}

/// A settable floating-point gauge (stored as `f64` bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        // ordering: Relaxed — last-writer-wins sample; no other memory is
        // published alongside the gauge bits.
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (compare-and-swap loop; gauges are low-frequency).
    pub fn add(&self, delta: f64) {
        // ordering: Relaxed — the CAS loop only needs atomicity of the one
        // cell; no cross-variable ordering hangs off a gauge update.
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + delta).to_bits();
            match self.bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed, // ordering: same-cell CAS, no dependent loads
                Ordering::Relaxed, // ordering: failure reload of the same cell
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        // ordering: Relaxed — advisory scrape read of one atomic cell.
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two buckets. Bucket 0 holds the value 0; bucket `i`
/// (for `i >= 1`) holds values in `[2^(i-1), 2^i)`. 63 value buckets cover
/// the entire `u64` range.
const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free, log-bucketed histogram of `u64` samples (microseconds,
/// bytes, …). Recording costs one relaxed `fetch_add` per sample (plus one
/// for the running sum).
///
/// Bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 holds zeros), so any
/// quantile is known to within its bucket. [`Histogram::quantile`]
/// interpolates linearly *within* the bucket — on unimodal data this lands
/// within a few percent of the true value.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (0 for the zero bucket; the final
/// clamp bucket absorbs everything up to `u64::MAX`).
fn bucket_upper_inclusive(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Value range `[lo, hi)` of bucket `i`, as floats for interpolation.
fn bucket_range(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 1.0)
    } else {
        (
            (1u64 << (i - 1)) as f64,
            if i >= HISTOGRAM_BUCKETS - 1 { u64::MAX as f64 } else { (1u64 << i) as f64 },
        )
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, value: u64) {
        // ordering: Relaxed — bucket and sum are sampled independently;
        // scrapes tolerate a count/sum tear between the two updates.
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed); // ordering: same contract
    }

    /// Records a duration in whole microseconds.
    pub fn record_duration(&self, elapsed: Duration) {
        self.record(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        // ordering: Relaxed — the per-bucket sum is already a racy snapshot
        // by construction; stronger ordering would not make it consistent.
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples (wrapping).
    pub fn sum(&self) -> u64 {
        // ordering: Relaxed — advisory scrape read.
        self.sum.load(Ordering::Relaxed)
    }

    fn counts(&self) -> Vec<u64> {
        // ordering: Relaxed — same racy-snapshot contract as count().
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated within the
    /// containing power-of-two bucket; 0.0 when nothing has been recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = bucket_range(i);
                // Position of the rank within this bucket, in (0, 1].
                let within = (rank - seen) as f64 / c as f64;
                return lo + within * (hi - lo);
            }
            seen += c;
        }
        bucket_range(HISTOGRAM_BUCKETS - 1).1
    }

    /// Materializes the histogram's non-empty buckets and headline
    /// quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.counts();
        let count: u64 = counts.iter().sum();
        let buckets: Vec<(u64, u64)> = {
            let mut cumulative = 0u64;
            counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| {
                    cumulative += c;
                    (bucket_upper_inclusive(i), cumulative)
                })
                .collect()
        };
        HistogramSnapshot {
            count,
            sum: self.sum(),
            buckets,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time view of one [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// `(inclusive_upper_bound, cumulative_count)` for each non-empty
    /// bucket, in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 90th percentile.
    pub p90: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
}

#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    instrument: Instrument,
}

/// A set of named, labeled instruments.
///
/// Instruments are identified by `(name, sorted labels)`; registering the
/// same identity twice returns the **same** underlying instrument (so
/// independent components may share a counter), while re-registering a name
/// as a different instrument kind panics — that is a programming error, not
/// a runtime condition.
#[derive(Default)]
pub struct Registry {
    entries: RwLock<Vec<Entry>>,
}

fn canonical_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut owned: Vec<(String, String)> =
        labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    owned.sort();
    owned
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide default registry (used by library-level
    /// instrumentation that has no registry handle threaded through).
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
        extract: impl Fn(&Instrument) -> Option<Arc<T>>,
    ) -> Arc<T> {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let labels = canonical_labels(labels);
        let mut entries = self.entries.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(entry) = entries.iter().find(|e| e.name == name && e.labels == labels) {
            return extract(&entry.instrument).unwrap_or_else(|| {
                // lint: allow(no_hot_panic, registering one name as two instrument kinds is a programming error caught at startup, not a runtime condition)
                panic!("metric {name:?} already registered as a {}", entry.instrument.kind())
            });
        }
        let instrument = make();
        // lint: allow(no_hot_panic, extract and make are paired by the caller one line up — a mismatch cannot depend on runtime input)
        let handle = extract(&instrument).expect("freshly built instrument matches its kind");
        entries.push(Entry { name: name.to_string(), help: help.to_string(), labels, instrument });
        handle
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Counter(Arc::new(Counter::default())),
            |i| match i {
                Instrument::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Gauge(Arc::new(Gauge::default())),
            |i| match i {
                Instrument::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            || Instrument::Histogram(Arc::new(Histogram::default())),
            |i| match i {
                Instrument::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Materializes a point-in-time view of every registered instrument,
    /// sorted by `(name, labels)` for deterministic rendering.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.entries.read().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut metrics: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: match &e.instrument {
                    Instrument::Counter(c) => MetricValue::Counter(c.get()),
                    Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                    Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        metrics.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Snapshot { metrics }
    }
}

/// One instrument's state inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: MetricValue,
}

/// A snapshot value, by instrument kind.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

impl MetricValue {
    /// The counter value, if this is a counter.
    pub fn as_counter(&self) -> Option<u64> {
        match self {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge value, if this is a gauge.
    pub fn as_gauge(&self) -> Option<f64> {
        match self {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram state, if this is a histogram.
    pub fn as_histogram(&self) -> Option<&HistogramSnapshot> {
        match self {
            MetricValue::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// A point-in-time view of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// All instruments, sorted by `(name, labels)`.
    pub metrics: Vec<MetricSnapshot>,
}

fn prometheus_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, &str)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Snapshot {
    /// Looks up a metric by name and exact label set.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        let labels = canonical_labels(labels);
        self.metrics.iter().find(|m| m.name == name && m.labels == labels).map(|m| &m.value)
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (`# HELP`/`# TYPE` headers; histograms as cumulative `_bucket`
    /// series plus `_sum`/`_count`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for m in &self.metrics {
            if last_name != Some(m.name.as_str()) {
                let kind = match &m.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                if !m.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                }
                let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
                last_name = Some(m.name.as_str());
            }
            match &m.value {
                MetricValue::Counter(v) => {
                    out.push_str(&m.name);
                    prometheus_labels(&mut out, &m.labels, None);
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&m.name);
                    prometheus_labels(&mut out, &m.labels, None);
                    let _ = writeln!(out, " {}", format_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    for (le, cumulative) in &h.buckets {
                        let _ = write!(out, "{}_bucket", m.name);
                        prometheus_labels(&mut out, &m.labels, Some(("le", &le.to_string())));
                        let _ = writeln!(out, " {cumulative}");
                    }
                    let _ = write!(out, "{}_bucket", m.name);
                    prometheus_labels(&mut out, &m.labels, Some(("le", "+Inf")));
                    let _ = writeln!(out, " {}", h.count);
                    out.push_str(&m.name);
                    out.push_str("_sum");
                    prometheus_labels(&mut out, &m.labels, None);
                    let _ = writeln!(out, " {}", h.sum);
                    out.push_str(&m.name);
                    out.push_str("_count");
                    prometheus_labels(&mut out, &m.labels, None);
                    let _ = writeln!(out, " {}", h.count);
                }
            }
        }
        out
    }

    /// Renders the snapshot as a compact JSON document:
    /// `{"metrics": [{"name", "type", "labels", ...}]}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<JsonValue> = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("name".to_string(), JsonValue::String(m.name.clone())),
                    (
                        "labels".to_string(),
                        JsonValue::Object(
                            m.labels
                                .iter()
                                .map(|(k, v)| (k.clone(), JsonValue::String(v.clone())))
                                .collect(),
                        ),
                    ),
                ];
                match &m.value {
                    MetricValue::Counter(v) => {
                        fields.push(("type".to_string(), JsonValue::String("counter".into())));
                        fields.push(("value".to_string(), JsonValue::Number(*v as f64)));
                    }
                    MetricValue::Gauge(v) => {
                        fields.push(("type".to_string(), JsonValue::String("gauge".into())));
                        fields.push(("value".to_string(), JsonValue::Number(*v)));
                    }
                    MetricValue::Histogram(h) => {
                        fields.push(("type".to_string(), JsonValue::String("histogram".into())));
                        fields.push(("count".to_string(), JsonValue::Number(h.count as f64)));
                        fields.push(("sum".to_string(), JsonValue::Number(h.sum as f64)));
                        fields.push(("p50".to_string(), JsonValue::Number(h.p50)));
                        fields.push(("p90".to_string(), JsonValue::Number(h.p90)));
                        fields.push(("p99".to_string(), JsonValue::Number(h.p99)));
                        fields.push((
                            "buckets".to_string(),
                            JsonValue::Array(
                                h.buckets
                                    .iter()
                                    .map(|(le, c)| {
                                        JsonValue::Object(vec![
                                            ("le".to_string(), JsonValue::Number(*le as f64)),
                                            (
                                                "cumulative".to_string(),
                                                JsonValue::Number(*c as f64),
                                            ),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ));
                    }
                }
                JsonValue::Object(fields)
            })
            .collect();
        JsonValue::Object(vec![("metrics".to_string(), JsonValue::Array(metrics))]).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_update_lock_free() {
        let r = Registry::new();
        let c = r.counter("wmp_test_total", "help", &[]);
        let g = r.gauge("wmp_test_gauge", "help", &[]);
        c.inc();
        c.add(4);
        g.set(2.5);
        g.add(-0.5);
        assert_eq!(c.get(), 5);
        assert!((g.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn re_registration_returns_the_same_instrument() {
        let r = Registry::new();
        let a = r.counter("wmp_shared_total", "help", &[("shard", "0")]);
        let b = r.counter("wmp_shared_total", "help", &[("shard", "0")]);
        let other = r.counter("wmp_shared_total", "help", &[("shard", "1")]);
        a.inc();
        b.inc();
        other.inc();
        assert_eq!(a.get(), 2, "same identity shares the counter");
        assert_eq!(other.get(), 1, "different labels are a different series");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _c = r.counter("wmp_kind_total", "help", &[]);
        let _g = r.gauge("wmp_kind_total", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("0bad name", "help", &[]);
    }

    #[test]
    fn histogram_quantiles_interpolate_within_the_bucket() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(50_000);
        // 100 µs lives in [64, 128); interpolation lands near the upper
        // half of the bucket instead of pinning to 127.
        let p50 = h.quantile(0.50);
        assert!((64.0..128.0).contains(&p50), "p50 = {p50}");
        assert!((p50 - 96.3).abs() < 1.0, "p50 = {p50} (rank 50 of 99 in-bucket)");
        // p100 reaches the outlier's bucket.
        assert!(h.quantile(1.0) >= 32_768.0);
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 99 * 100 + 50_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn zero_samples_hit_the_zero_bucket() {
        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.snapshot().buckets, vec![(0, 1)]);
        assert!(h.quantile(1.0) <= 1.0);
    }

    #[test]
    fn sub_microsecond_records_hit_bucket_zero() {
        let h = Histogram::default();
        h.record_duration(Duration::from_nanos(10));
        assert_eq!(h.snapshot().buckets, vec![(0, 1)]);
    }

    #[test]
    fn extreme_values_clamp_to_the_last_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.snapshot().buckets, vec![(u64::MAX, 1)]);
        assert!(h.quantile(1.0).is_finite());
    }

    #[test]
    fn record_duration_uses_microseconds() {
        let h = Histogram::default();
        h.record_duration(Duration::from_micros(100));
        assert_eq!(h.sum(), 100);
    }

    #[test]
    fn concurrent_writers_never_lose_increments() {
        // Registry concurrency stress: N writer threads hammer shared
        // instruments while a reader snapshots continuously; the final
        // counts must be exact.
        let r = Arc::new(Registry::new());
        const WRITERS: usize = 8;
        const PER_WRITER: u64 = 20_000;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    let c = r.counter("wmp_stress_total", "stress", &[]);
                    let h = r.histogram("wmp_stress_us", "stress", &[]);
                    let g = r.gauge("wmp_stress_gauge", "stress", &[]);
                    for i in 0..PER_WRITER {
                        c.inc();
                        h.record(i % 1024);
                        g.set(w as f64);
                    }
                });
            }
            let r = Arc::clone(&r);
            scope.spawn(move || {
                for _ in 0..200 {
                    let snap = r.snapshot();
                    // Snapshots observe monotonically growing counters and
                    // render without panicking mid-stress.
                    let _ = snap.to_prometheus();
                    let _ = snap.to_json();
                }
            });
        });
        let snap = r.snapshot();
        assert_eq!(
            snap.get("wmp_stress_total", &[]),
            Some(&MetricValue::Counter(WRITERS as u64 * PER_WRITER))
        );
        match snap.get("wmp_stress_us", &[]) {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, WRITERS as u64 * PER_WRITER);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    fn golden_registry() -> Registry {
        let r = Registry::new();
        r.counter("wmp_queries_served_total", "Queries served.", &[]).add(25);
        r.counter("wmp_shard_total", "Per-shard submissions.", &[("shard", "0")]).add(7);
        r.counter("wmp_shard_total", "Per-shard submissions.", &[("shard", "1")]).add(9);
        r.gauge("wmp_model_version", "Serving model version.", &[]).set(3.0);
        r.gauge("wmp_prediction_mae_mb", "Rolling MAE (MB).", &[]).set(12.5);
        let h = r.histogram("wmp_latency_us", "Scoring latency (µs).", &[]);
        for _ in 0..3 {
            h.record(100);
        }
        h.record(5);
        r
    }

    #[test]
    fn prometheus_rendering_matches_golden() {
        let text = golden_registry().snapshot().to_prometheus();
        let expected = "\
# HELP wmp_latency_us Scoring latency (µs).
# TYPE wmp_latency_us histogram
wmp_latency_us_bucket{le=\"7\"} 1
wmp_latency_us_bucket{le=\"127\"} 4
wmp_latency_us_bucket{le=\"+Inf\"} 4
wmp_latency_us_sum 305
wmp_latency_us_count 4
# HELP wmp_model_version Serving model version.
# TYPE wmp_model_version gauge
wmp_model_version 3
# HELP wmp_prediction_mae_mb Rolling MAE (MB).
# TYPE wmp_prediction_mae_mb gauge
wmp_prediction_mae_mb 12.5
# HELP wmp_queries_served_total Queries served.
# TYPE wmp_queries_served_total counter
wmp_queries_served_total 25
# HELP wmp_shard_total Per-shard submissions.
# TYPE wmp_shard_total counter
wmp_shard_total{shard=\"0\"} 7
wmp_shard_total{shard=\"1\"} 9
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_rendering_is_valid_and_complete() {
        let text = golden_registry().snapshot().to_json();
        let doc = crate::json::parse(&text).expect("renderer emits valid JSON");
        let metrics = doc.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 6);
        let latency = metrics
            .iter()
            .find(|m| m.get("name").and_then(crate::json::Value::as_str) == Some("wmp_latency_us"))
            .unwrap();
        assert_eq!(latency.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(latency.get("count").unwrap().as_f64(), Some(4.0));
        let shard1 = metrics
            .iter()
            .find(|m| {
                m.get("labels").and_then(|l| l.get("shard")).and_then(crate::json::Value::as_str)
                    == Some("1")
            })
            .unwrap();
        assert_eq!(shard1.get("value").unwrap().as_f64(), Some(9.0));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        let a = Registry::global().counter("wmp_global_smoke_total", "smoke", &[]);
        let b = Registry::global().counter("wmp_global_smoke_total", "smoke", &[]);
        a.inc();
        assert!(b.get() >= 1);
    }
}
