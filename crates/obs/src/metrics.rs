//! Metric primitives and the named registry.
//!
//! Recording handles ([`Counter`], [`Gauge`], [`Histogram`]) are
//! resolved once from the [`Registry`] and then record lock-free: each
//! operation is one relaxed atomic load (the shared enable flag) plus,
//! when enabled, one or two relaxed RMWs. Registration takes a mutex,
//! but it happens once per name, not per record — hot paths hold
//! pre-resolved handles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json_escape;

const RELAXED: Ordering = Ordering::Relaxed;

/// A monotone event counter.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    on: Arc<AtomicBool>,
}

impl Counter {
    /// A handle wired to nothing (recording disabled). Useful as a
    /// default before a subsystem is attached to a registry.
    pub fn detached() -> Self {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
            on: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Adds `n` to the counter (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if self.on.load(RELAXED) {
            self.cell.fetch_add(n, RELAXED);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(RELAXED)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::detached()
    }
}

/// A signed instantaneous value.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
    on: Arc<AtomicBool>,
}

impl Gauge {
    /// A handle wired to nothing (recording disabled).
    pub fn detached() -> Self {
        Gauge {
            cell: Arc::new(AtomicI64::new(0)),
            on: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Sets the gauge (no-op while recording is disabled).
    #[inline]
    pub fn set(&self, v: i64) {
        if self.on.load(RELAXED) {
            self.cell.store(v, RELAXED);
        }
    }

    /// Adjusts the gauge by `d` (no-op while recording is disabled).
    #[inline]
    pub fn add(&self, d: i64) {
        if self.on.load(RELAXED) {
            self.cell.fetch_add(d, RELAXED);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(RELAXED)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::detached()
    }
}

/// Log-linear bucketing: values `0..8` get exact buckets, then 8
/// sub-buckets per power of two (≤ 12.5% quantization error) up to
/// [`HISTOGRAM_MAX_NS`], above which values saturate into the last
/// bucket. `sum` and `max` are exact regardless of bucketing.
const SUB_BITS: u32 = 3;
const MAX_MSB: u32 = 40;
const N_BUCKETS: usize = (((MAX_MSB - SUB_BITS) as usize + 1) << SUB_BITS) + (1 << SUB_BITS);

/// Values at or above this (≈ 36 minutes in nanoseconds) land in the
/// histogram's saturation bucket; percentiles never exceed it.
pub const HISTOGRAM_MAX_NS: u64 = 1 << (MAX_MSB + 1);

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    if msb > MAX_MSB {
        return N_BUCKETS - 1;
    }
    let sub = (v >> (msb - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    ((((msb - SUB_BITS) as usize + 1) << SUB_BITS) + sub as usize).min(N_BUCKETS - 1)
}

/// Upper bound of bucket `i` — the value percentiles report.
fn bucket_upper(i: usize) -> u64 {
    if i < (1 << SUB_BITS) {
        return i as u64;
    }
    if i >= N_BUCKETS - 1 {
        return HISTOGRAM_MAX_NS;
    }
    let msb = (i >> SUB_BITS) as u32 + SUB_BITS - 1;
    let sub = (i & ((1 << SUB_BITS) - 1)) as u64;
    (1u64 << msb) + ((sub + 1) << (msb - SUB_BITS)) - 1
}

struct HistCell {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        HistCell {
            buckets: buckets.try_into().unwrap_or_else(|_| unreachable!()),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; N_BUCKETS];
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            counts[i] = b.load(RELAXED);
            count += counts[i];
        }
        let percentile = |p: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count * p).div_ceil(100)).max(1);
            let mut cum = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                cum += c;
                if cum >= rank {
                    return bucket_upper(i);
                }
            }
            bucket_upper(N_BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(RELAXED),
            max: self.max.load(RELAXED),
            p50: percentile(50),
            p90: percentile(90),
            p99: percentile(99),
        }
    }
}

/// A latency histogram over nanosecond values.
#[derive(Clone)]
pub struct Histogram {
    cell: Arc<HistCell>,
    on: Arc<AtomicBool>,
}

impl Histogram {
    /// A handle wired to nothing (recording disabled).
    pub fn detached() -> Self {
        Histogram {
            cell: Arc::new(HistCell::new()),
            on: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Records one value (no-op while recording is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if !self.on.load(RELAXED) {
            return;
        }
        self.cell.buckets[bucket_of(v)].fetch_add(1, RELAXED);
        self.cell.sum.fetch_add(v, RELAXED);
        self.cell.max.fetch_max(v, RELAXED);
    }

    /// Point-in-time summary of this histogram alone.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::detached()
    }
}

/// Summary of one histogram: exact count/sum/max plus bucket-resolution
/// percentiles (values in nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values.
    pub sum: u64,
    /// Exact maximum recorded value.
    pub max: u64,
    /// Median (bucket upper bound, ≤ 12.5% over).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistogramSnapshot {
    /// Exact mean of the recorded values, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named metric registry. Cloning shares the underlying map; handle
/// resolution takes a mutex, recording through handles does not.
#[derive(Clone)]
pub struct Registry {
    on: Arc<AtomicBool>,
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// A standalone enabled registry with its own flag.
    pub fn new() -> Self {
        Self::with_flag(Arc::new(AtomicBool::new(true)))
    }

    /// A registry whose handles observe the shared `on` flag.
    pub(crate) fn with_flag(on: Arc<AtomicBool>) -> Self {
        Registry {
            on,
            metrics: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Get-or-register the counter named `name`. If the name is already
    /// taken by a different metric kind, returns a detached handle.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.lock().unwrap();
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
                on: self.on.clone(),
            })
        }) {
            Metric::Counter(c) => c.clone(),
            _ => {
                debug_assert!(false, "metric {name:?} registered with another kind");
                Counter::detached()
            }
        }
    }

    /// Get-or-register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.metrics.lock().unwrap();
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge {
                cell: Arc::new(AtomicI64::new(0)),
                on: self.on.clone(),
            })
        }) {
            Metric::Gauge(g) => g.clone(),
            _ => {
                debug_assert!(false, "metric {name:?} registered with another kind");
                Gauge::detached()
            }
        }
    }

    /// Get-or-register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.metrics.lock().unwrap();
        match map.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram {
                cell: Arc::new(HistCell::new()),
                on: self.on.clone(),
            })
        }) {
            Metric::Histogram(h) => h.clone(),
            _ => {
                debug_assert!(false, "metric {name:?} registered with another kind");
                Histogram::detached()
            }
        }
    }

    /// Consistent point-in-time view of every registered metric,
    /// sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time view of every metric in a [`Registry`], sorted by
/// name within each kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of the counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Value of the gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.gauges[i].1)
    }

    /// Summary of the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i].1)
    }

    /// Sum of every counter whose name starts with `prefix` — e.g.
    /// `prefix_sum("guard.trips.")` for total trips across phase×cause.
    pub fn prefix_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Renders the snapshot as a single JSON object, following the
    /// `gsls-analyze` diagnostic conventions (sorted keys, escaped
    /// strings, nanosecond-suffixed duration fields).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json_escape(name), v));
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\": {}", json_escape(name), v));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"count\": {}, \"sum_ns\": {}, \"max_ns\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}",
                json_escape(name),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p90,
                h.p99
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Renders a registry in the Prometheus text exposition format
/// (version 0.0.4): counters and gauges as single samples, histograms
/// as summaries with `quantile` labels plus `_sum`/`_count` series.
/// Metric names are prefixed `gsls_` and dots become underscores
/// (`wal.group_syncs` → `gsls_wal_group_syncs`); any other character
/// outside `[a-zA-Z0-9_:]` is replaced with `_` too, so every emitted
/// name is valid regardless of what was registered.
pub fn render_prometheus(registry: &Registry) -> String {
    let snap = registry.snapshot();
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        out.push_str(&format!(
            "# TYPE {n} summary\n\
             {n}{{quantile=\"0.5\"}} {}\n\
             {n}{{quantile=\"0.9\"}} {}\n\
             {n}{{quantile=\"0.99\"}} {}\n\
             {n}_sum {}\n\
             {n}_count {}\n",
            h.p50, h.p90, h.p99, h.sum, h.count
        ));
    }
    out
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("gsls_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of({v}) regressed");
            assert!(v <= bucket_upper(b), "v={v} above upper of its bucket");
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_upper(N_BUCKETS - 1), HISTOGRAM_MAX_NS);
    }

    #[test]
    fn bucket_upper_error_is_bounded() {
        for v in [100u64, 1_000, 10_000, 1_000_000, 1_000_000_000] {
            let upper = bucket_upper(bucket_of(v));
            assert!(upper >= v);
            assert!((upper - v) as f64 <= v as f64 * 0.13, "v={v} upper={upper}");
        }
    }

    #[test]
    fn prometheus_rendering_is_well_formed() {
        let reg = Registry::new();
        reg.counter("wal.group_syncs").add(3);
        reg.gauge("conns.active").set(-2);
        let h = reg.histogram("commit.total");
        h.record(1_000);
        h.record(2_000);
        let text = render_prometheus(&reg);
        assert!(text.contains("# TYPE gsls_wal_group_syncs counter\ngsls_wal_group_syncs 3\n"));
        assert!(text.contains("# TYPE gsls_conns_active gauge\ngsls_conns_active -2\n"));
        assert!(text.contains("# TYPE gsls_commit_total summary\n"));
        assert!(text.contains("gsls_commit_total{quantile=\"0.99\"}"));
        assert!(text.contains("gsls_commit_total_count 2\n"));
        // Every emitted name is a valid Prometheus identifier.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad name {name}"
            );
            assert!(!name.chars().next().unwrap().is_ascii_digit());
        }
    }
}
