//! Sample arithmetic: nearest-rank percentiles, medians, geometric
//! means and the interquartile spread the A/A procedure reports.

/// Latency samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    /// An empty set with room for `cap` samples (so pushes inside the
    /// measured window do not reallocate).
    pub fn with_capacity(cap: usize) -> Samples {
        Samples {
            ns: Vec::with_capacity(cap),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    /// The raw samples, in recording order.
    pub fn raw(&self) -> &[u64] {
        &self.ns
    }

    /// Nearest-rank percentile in nanoseconds (`p` in 0..=100); 0 for
    /// an empty set.
    pub fn percentile_ns(&self, p: f64) -> f64 {
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        percentile(&sorted, p)
    }

    /// Percentile in milliseconds.
    pub fn p_ms(&self, p: f64) -> f64 {
        self.percentile_ns(p) / 1e6
    }

    /// Percentile in microseconds.
    pub fn p_us(&self, p: f64) -> f64 {
        self.percentile_ns(p) / 1e3
    }

    /// Largest sample in milliseconds; 0 for an empty set.
    pub fn max_ms(&self) -> f64 {
        self.ns.iter().copied().max().unwrap_or(0) as f64 / 1e6
    }
}

/// How many runs of consecutive operations a window's series is cut
/// into.
pub const CHUNKS: usize = 20;
/// The fewest operations a chunk may hold.
pub const MIN_CHUNK: usize = 3;

/// One operation class's measured operations, in completion order.
///
/// The sandbox this runs in slows down by up to half for stretches of
/// a few hundred milliseconds to tens of seconds, and interference only
/// ever *adds* time. A whole-window median therefore moves by 10–25%
/// between identical runs. So every end-to-end figure is taken from the
/// **best chunk**: the series is cut into [`CHUNKS`] runs of consecutive
/// operations (about a second each in a 20 s window; never fewer than
/// [`MIN_CHUNK`] operations), and the latency reported is the lowest
/// chunk median, the throughput the highest chunk rate. Measured
/// across ten seeds in a noisy half hour that repeats to 3–9% where the
/// whole-window median repeats to 7–28%. The same rule is applied on
/// both sides of every comparison.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// `(completed at, seconds into the window; latency in ns)`.
    ops: Vec<(f64, u64)>,
}

impl Series {
    /// Records an operation that took `ns` and completed `done_at_s`
    /// seconds into the window.
    pub fn record(&mut self, done_at_s: f64, ns: u64) {
        self.ops.push((done_at_s, ns));
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The latencies alone, in completion order.
    pub fn latencies(&self) -> Samples {
        Samples {
            ns: self.ops.iter().map(|&(_, ns)| ns).collect(),
        }
    }

    /// The chunks: consecutive runs of `max(MIN_CHUNK, ⌈len / CHUNKS⌉)`
    /// operations; a shorter remainder joins the last chunk.
    fn chunks(&self) -> Vec<&[(f64, u64)]> {
        let size = self.ops.len().div_ceil(CHUNKS).max(MIN_CHUNK);
        let mut chunks: Vec<&[(f64, u64)]> = self.ops.chunks(size).collect();
        if chunks.len() > 1 && chunks[chunks.len() - 1].len() < MIN_CHUNK {
            chunks.pop();
            let start = (chunks.len() - 1) * size;
            let last = chunks.len() - 1;
            chunks[last] = &self.ops[start..];
        }
        chunks
    }

    /// The lowest chunk median, in milliseconds; 0 for an empty series.
    pub fn best_p50_ms(&self) -> f64 {
        self.chunks()
            .into_iter()
            .map(|chunk| {
                let mut ns: Vec<u64> = chunk.iter().map(|&(_, ns)| ns).collect();
                ns.sort_unstable();
                percentile(&ns, 50.0) / 1e6
            })
            .min_by(f64::total_cmp)
            .unwrap_or(0.0)
    }

    /// The highest chunk rate, in operations per second: a chunk's
    /// operations over the wall time from the completion before it (the
    /// window's start for the first chunk) to its last completion — so
    /// time the caller spent on other classes, checks and waiting counts.
    pub fn best_per_s(&self) -> f64 {
        let mut since = 0.0;
        let mut best = 0.0f64;
        for chunk in self.chunks() {
            let until = chunk[chunk.len() - 1].0;
            if until > since {
                best = best.max(chunk.len() as f64 / (until - since));
            }
            since = until;
        }
        best
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Median of arbitrary floats (mean of the two middle values for an
/// even count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Geometric mean of positive values; 0 if any value is not positive
/// or the slice is empty.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// First and third quartile by the exclusive method — the values
/// Python's `statistics.quantiles(values, n=4)` returns as its first
/// and last cut point — so the spread this harness prints is the one
/// the acceptance procedure computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| -> f64 {
        // Position i*(n+1)/4 in 1-based order statistics, linearly
        // interpolated and clamped to the sample range.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median — the A/A spread.
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 99.0), 10.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let mut s = Samples::default();
        for ns in [3_000_000, 1_000_000, 2_000_000] {
            s.push(ns);
        }
        assert_eq!(s.p_ms(50.0), 2.0);
        assert_eq!(s.p_us(100.0), 3000.0);
        assert_eq!(s.max_ms(), 3.0);
    }

    #[test]
    fn series_reports_its_best_chunk() {
        // 60 operations → 20 chunks of 3. One a second; all take 10 ms
        // except a quiet chunk (ops 30..33: 4, 5, 6 ms, half a second
        // apart) and a disturbed one (ops 45..48: 50 ms).
        let mut s = Series::default();
        let mut at = 0.0;
        for i in 0..60 {
            let (gap, ms) = match i {
                30..=32 => (0.5, 4 + (i - 30)),
                45..=47 => (1.0, 50),
                _ => (1.0, 10),
            };
            at += gap;
            s.record(at, ms * 1_000_000);
        }
        assert_eq!(s.len(), 60);
        assert_eq!(s.best_p50_ms(), 5.0);
        assert_eq!(s.best_per_s(), 2.0);
        assert_eq!(s.latencies().p_ms(50.0), 10.0);
        assert_eq!(s.latencies().max_ms(), 50.0);
    }

    #[test]
    fn series_chunks_never_hold_fewer_than_three() {
        // 7 operations: chunks of 3, and the remainder of 1 joins the last.
        let mut s = Series::default();
        for (i, ms) in [9, 9, 9, 1, 2, 3, 100].into_iter().enumerate() {
            s.record(i as f64 + 1.0, ms * 1_000_000);
        }
        let sizes: Vec<usize> = s.chunks().iter().map(|c| c.len()).collect();
        assert_eq!(sizes, [3, 4]);
        assert_eq!(s.best_p50_ms(), 2.0); // nearest rank of 1, 2, 3, 100
        assert_eq!(s.best_per_s(), 1.0);
        // Fewer than three operations are one chunk; none is nothing.
        let mut two = Series::default();
        two.record(0.5, 2_000_000);
        two.record(1.0, 4_000_000);
        assert_eq!(two.best_p50_ms(), 2.0);
        assert_eq!(two.best_per_s(), 2.0);
        assert_eq!(Series::default().best_p50_ms(), 0.0);
        assert_eq!(Series::default().best_per_s(), 0.0);
        // Many operations: twenty chunks.
        let mut many = Series::default();
        for i in 0..1_010 {
            many.record(f64::from(i), 1);
        }
        assert_eq!(many.chunks().len(), 20);
        assert_eq!(many.chunks()[19].len(), 41);
    }

    #[test]
    fn median_and_geometric_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[2.0, 0.0]), 0.0);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }
}
