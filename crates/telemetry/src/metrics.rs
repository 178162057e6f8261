//! The metrics registry: named gauges and log-scaled histograms. Event
//! counts are not kept here: they live in the simulator's statistics
//! structs, which feed `counters.json` directly.
//!
//! Registration returns a small index (`GaugeId`, `HistId`); the hot-path
//! update methods are plain slice indexing, so an enabled sink costs one
//! bounds-checked array write per update and a disabled sink (see
//! [`crate::Telemetry`]) costs one branch.

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

/// Number of histogram buckets: bucket 0 holds zeros, bucket `k` holds
/// values with `ilog2(v) == k - 1`, so the full `u64` range fits.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` values.
///
/// Bucket 0 counts zeros; bucket `k` (for `k >= 1`) counts values `v`
/// with `2^(k-1) <= v < 2^k`. Exact count/sum/min/max ride along so the
/// mean is exact even though the distribution is coarse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let bucket = match v {
            0 => 0,
            v => v.ilog2() as usize + 1,
        };
        self.buckets[bucket] += 1;
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts (see [`HIST_BUCKETS`] for the layout).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 <= p <= 1.0`); 0 when empty. Coarse by construction: the
    /// true quantile lies within a factor of two below the returned
    /// value.
    #[must_use]
    pub fn quantile_upper_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (k, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return match k {
                    0 => 0,
                    64 => u64::MAX,
                    k => (1u64 << k) - 1,
                };
            }
        }
        self.max
    }
}

/// A registry of named metrics. Names are `&'static str` by design: every
/// instrumentation site names its metric in code, and registration
/// deduplicates, so repeated attach/registration cycles are idempotent.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    gauges: Vec<(&'static str, i64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl Metrics {
    /// Registers (or finds) the gauge `name`.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| *n == name) {
            return GaugeId(i as u32);
        }
        self.gauges.push((name, 0));
        GaugeId((self.gauges.len() - 1) as u32)
    }

    /// Registers (or finds) the histogram `name`.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| *n == name) {
            return HistId(i as u32);
        }
        self.histograms.push((name, Histogram::default()));
        HistId((self.histograms.len() - 1) as u32)
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, value: i64) {
        self.gauges[id.0 as usize].1 = value;
    }

    /// Records `value` into a histogram.
    #[inline]
    pub fn record(&mut self, id: HistId, value: u64) {
        self.histograms[id.0 as usize].1.record(value);
    }

    /// Iterates gauges in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, i64)> + '_ {
        self.gauges.iter().copied()
    }

    /// Iterates histograms in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(n, h)| (*n, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_holds_last_value() {
        let mut m = Metrics::default();
        let g = m.gauge("depth");
        assert_eq!(m.gauge("depth"), g, "registration dedupes");
        m.set_gauge(g, 5);
        m.set_gauge(g, -2);
        assert_eq!(m.gauges().collect::<Vec<_>>(), vec![("depth", -2)]);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        let b = h.buckets();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2..=3
        assert_eq!(b[3], 2); // 4..=7
        assert_eq!(b[4], 1); // 8..=15
        assert_eq!(b[11], 1); // 1024..=2047
        assert!((h.mean() - (1 + 2 + 3 + 4 + 7 + 8 + 1024) as f64 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_upper_bound(0.5), 0);
    }

    #[test]
    fn quantile_bound_brackets_the_median() {
        let mut h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let q = h.quantile_upper_bound(0.5);
        assert!((50..=127).contains(&q), "median bound off: {q}");
    }
}
