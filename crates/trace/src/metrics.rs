//! A lightweight registry of named counters, gauges and histograms.
//!
//! Metrics complement the trace ring: where the ring answers *when and
//! where*, the registry answers *how much in total* — cheaply enough to be
//! updated from run summaries without touching kernel hot loops.

use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::sync::Mutex;

use crate::poison::lock_recover;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples in `[2^i, 2^(i+1))` (bucket 0 counts zeros and
/// ones); exact min/max/sum ride along so means and extremes stay exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// An upper bound of the `q`-quantile (0.0–1.0) from the bucket
    /// boundaries, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                let upper = if i >= 63 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
                return Some(upper.min(self.max));
            }
        }
        Some(self.max)
    }
}

#[derive(Debug, Default, Clone, PartialEq)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The entry for `name`, default-created on first use. Looks the key up
/// first, so the name is copied into the map once, not on every update.
fn slot<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// The registry. Shared behind the probe; updates take a short lock, so
/// callers should aggregate locally and publish summaries (end of run, end
/// of superstep), not per event.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to the named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut inner = lock_recover(&self.inner);
        let c = slot(&mut inner.counters, name);
        *c = c.saturating_add(n);
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        *slot(&mut lock_recover(&self.inner).gauges, name) = v;
    }

    /// Raises the named gauge (created at zero) to `v` if it reads lower:
    /// a high-water mark.
    pub fn gauge_max(&self, name: &str, v: f64) {
        let mut inner = lock_recover(&self.inner);
        let g = slot(&mut inner.gauges, name);
        *g = g.max(v);
    }

    /// Records a sample into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        slot(&mut lock_recover(&self.inner).histograms, name).observe(v);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = lock_recover(&self.inner);
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }
}

/// An immutable copy of the registry, used by reports and exporters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

impl Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name} = {v}")?;
        }
        for (name, v) in &self.gauges {
            writeln!(f, "{name} = {v:.3}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(
                f,
                "{name}: n={} mean={:.1} min={} max={} p99<={}",
                h.count(),
                h.mean(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let m = Metrics::new();
        m.counter_add("events", 10);
        m.counter_add("events", 5);
        m.gauge_set("util", 0.75);
        let s = m.snapshot();
        assert_eq!(s.counters["events"], 15);
        assert_eq!(s.gauges["util"], 0.75);
        assert!(s.to_string().contains("events = 15"));
    }

    #[test]
    fn gauge_max_keeps_the_high_water_mark() {
        let m = Metrics::new();
        m.gauge_max("peak", 3.0);
        m.gauge_max("peak", 1.0);
        m.gauge_set("level", 2.0);
        m.gauge_set("level", 1.0);
        let s = m.snapshot();
        assert_eq!((s.gauges["peak"], s.gauges["level"]), (3.0, 1.0));
    }

    #[test]
    fn counter_saturates() {
        let m = Metrics::new();
        m.counter_add("x", u64::MAX - 1);
        m.counter_add("x", 100);
        assert_eq!(m.snapshot().counters["x"], u64::MAX);
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 4, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean() - 203.0).abs() < 1.0);
        assert!(h.quantile(0.5).unwrap() <= 8);
        assert!(h.quantile(1.0).unwrap() >= 1000);
        let empty = Histogram::default();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.min(), None);
    }
}
