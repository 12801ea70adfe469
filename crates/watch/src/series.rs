//! Time-series rings sampled from a live metrics
//! [`Registry`](dvm_telemetry::Registry) snapshot.
//!
//! The registry's counters and histograms are cumulative since process
//! start; a console wants *rates over the last minute*. The [`Sampler`]
//! turns one into the other: each `tick` diffs the current snapshot
//! against the previous one and appends per-interval points to
//! fixed-capacity rings —
//!
//! - counters → `(delta, dt)` points, so any window's rate is the sum
//!   of its deltas over its span;
//! - gauges → last-value points;
//! - histograms → *delta* snapshots (bucket-wise subtraction), so a
//!   window's p50/p99 is the quantile of the merged deltas inside it,
//!   not of all history.
//!
//! A process restart makes cumulative values regress; the sampler
//! detects `current < previous` and treats the current value as the
//! whole delta, so rates never go negative and restarts never poison a
//! window (property-tested in `tests/prop_watch.rs`).

use std::collections::BTreeMap;
use std::collections::VecDeque;

use dvm_telemetry::metrics::{bucket_lower, bucket_upper};
use dvm_telemetry::{HistogramSnapshot, MetricsSnapshot};

/// One per-interval counter observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterPoint {
    /// Tick timestamp (end of the interval), nanoseconds.
    pub at_ns: u64,
    /// Events observed during the interval.
    pub delta: u64,
    /// Interval length, nanoseconds (≥ 1).
    pub dt_ns: u64,
}

impl CounterPoint {
    /// Events per second over this interval.
    pub fn rate(&self) -> f64 {
        self.delta as f64 * 1e9 / self.dt_ns as f64
    }
}

/// One gauge observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugePoint {
    /// Tick timestamp, nanoseconds.
    pub at_ns: u64,
    /// Gauge value at the tick.
    pub value: i64,
}

fn push_bounded<T>(ring: &mut VecDeque<T>, capacity: usize, v: T) {
    ring.push_back(v);
    while ring.len() > capacity {
        ring.pop_front();
    }
}

/// Bucket-wise difference `cur - prev`, with restart detection: a
/// cumulative count that went *down* means the process restarted, so
/// the current snapshot *is* the delta.
fn histogram_delta(prev: &HistogramSnapshot, cur: &HistogramSnapshot) -> HistogramSnapshot {
    if cur.count < prev.count {
        return cur.clone();
    }
    let prev_map: BTreeMap<u32, u64> = prev.buckets.iter().copied().collect();
    let mut buckets: Vec<(u32, u64)> = Vec::new();
    for &(i, n) in &cur.buckets {
        let d = n.saturating_sub(prev_map.get(&i).copied().unwrap_or(0));
        if d > 0 {
            buckets.push((i, d));
        }
    }
    let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
    // The registry tracks exact min/max only cumulatively; for a delta
    // the tightest honest bounds are the outermost non-empty buckets.
    let min = buckets
        .first()
        .map(|&(i, _)| bucket_lower(i as usize))
        .unwrap_or(u64::MAX);
    let max = buckets
        .last()
        .map(|&(i, _)| bucket_upper(i as usize).saturating_sub(1))
        .unwrap_or(0);
    HistogramSnapshot {
        count,
        sum: cur.sum.saturating_sub(prev.sum),
        min,
        max,
        buckets,
    }
}

/// Diffs successive registry snapshots into bounded per-metric rings.
/// Purely deterministic: callers supply both the snapshot and the
/// clock, so tests replay exactly.
#[derive(Debug, Default)]
pub struct Sampler {
    capacity: usize,
    prev: Option<MetricsSnapshot>,
    prev_at_ns: u64,
    counters: BTreeMap<String, VecDeque<CounterPoint>>,
    gauges: BTreeMap<String, VecDeque<GaugePoint>>,
    histograms: BTreeMap<String, VecDeque<(u64, HistogramSnapshot)>>,
}

impl Sampler {
    /// Creates a sampler retaining up to `capacity` points per metric.
    pub fn new(capacity: usize) -> Sampler {
        Sampler {
            capacity: capacity.max(1),
            ..Sampler::default()
        }
    }

    /// Ingests one snapshot taken at `now_ns`. The first tick only
    /// establishes the baseline; every later tick appends one point per
    /// metric. Ticks that do not advance the clock are ignored.
    pub fn tick(&mut self, now_ns: u64, snapshot: MetricsSnapshot) {
        let Some(prev) = self.prev.take() else {
            self.prev = Some(snapshot);
            self.prev_at_ns = now_ns;
            return;
        };
        if now_ns <= self.prev_at_ns {
            self.prev = Some(prev);
            return;
        }
        let dt_ns = now_ns - self.prev_at_ns;
        for (k, &cur) in &snapshot.counters {
            let before = prev.counters.get(k).copied().unwrap_or(0);
            // Restart: the cumulative value regressed, so everything
            // seen now happened since the restart.
            let delta = if cur >= before { cur - before } else { cur };
            push_bounded(
                self.counters.entry(k.clone()).or_default(),
                self.capacity,
                CounterPoint {
                    at_ns: now_ns,
                    delta,
                    dt_ns,
                },
            );
        }
        for (k, &value) in &snapshot.gauges {
            push_bounded(
                self.gauges.entry(k.clone()).or_default(),
                self.capacity,
                GaugePoint {
                    at_ns: now_ns,
                    value,
                },
            );
        }
        for (k, cur) in &snapshot.histograms {
            let delta = match prev.histograms.get(k) {
                Some(before) => histogram_delta(before, cur),
                None => cur.clone(),
            };
            if delta.count > 0 {
                push_bounded(
                    self.histograms.entry(k.clone()).or_default(),
                    self.capacity,
                    (now_ns, delta),
                );
            }
        }
        self.prev = Some(snapshot);
        self.prev_at_ns = now_ns;
    }

    /// Timestamp of the last accepted tick.
    pub fn last_tick_ns(&self) -> u64 {
        self.prev_at_ns
    }

    /// Counter metric names with at least one point.
    pub fn counter_names(&self) -> Vec<String> {
        self.counters.keys().cloned().collect()
    }

    /// The retained points for counter `name`, oldest first.
    pub fn counter_points(&self, name: &str) -> Vec<CounterPoint> {
        self.counters
            .get(name)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Total counter events inside `(now - window, now]`.
    pub fn window_delta(&self, name: &str, window_ns: u64, now_ns: u64) -> u64 {
        let from = now_ns.saturating_sub(window_ns);
        self.counters
            .get(name)
            .map(|r| {
                r.iter()
                    .filter(|p| p.at_ns > from && p.at_ns <= now_ns)
                    .map(|p| p.delta)
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Events per second for counter `name` over the window.
    pub fn window_rate(&self, name: &str, window_ns: u64, now_ns: u64) -> f64 {
        let delta = self.window_delta(name, window_ns, now_ns);
        delta as f64 * 1e9 / window_ns.max(1) as f64
    }

    /// `errors / total` inside the window (0.0 when `total` saw no
    /// events — no traffic is not an outage).
    pub fn window_ratio(&self, errors: &str, total: &str, window_ns: u64, now_ns: u64) -> f64 {
        let t = self.window_delta(total, window_ns, now_ns);
        if t == 0 {
            return 0.0;
        }
        let e = self.window_delta(errors, window_ns, now_ns);
        e as f64 / t as f64
    }

    /// Merged delta histogram for `name` inside the window (empty
    /// snapshot when no interval recorded anything).
    pub fn window_histogram(&self, name: &str, window_ns: u64, now_ns: u64) -> HistogramSnapshot {
        let from = now_ns.saturating_sub(window_ns);
        let mut merged = HistogramSnapshot {
            min: u64::MAX,
            ..HistogramSnapshot::default()
        };
        if let Some(ring) = self.histograms.get(name) {
            for (at, delta) in ring {
                if *at > from && *at <= now_ns {
                    merged.merge(delta);
                }
            }
        }
        merged
    }

    /// Windowed quantile for histogram `name` (0 when the window is
    /// empty).
    pub fn window_quantile(&self, name: &str, q: f64, window_ns: u64, now_ns: u64) -> u64 {
        self.window_histogram(name, window_ns, now_ns).quantile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvm_telemetry::Registry;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn counter_deltas_become_rates() {
        let reg = Registry::new();
        let c = reg.counter("reqs");
        let mut s = Sampler::new(64);
        s.tick(0, reg.snapshot());
        c.add(10);
        s.tick(SEC, reg.snapshot());
        c.add(30);
        s.tick(2 * SEC, reg.snapshot());
        let pts = s.counter_points("reqs");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].delta, 10);
        assert_eq!(pts[1].delta, 30);
        assert!((pts[1].rate() - 30.0).abs() < 1e-9);
        assert_eq!(s.window_delta("reqs", 2 * SEC, 2 * SEC), 40);
        assert!((s.window_rate("reqs", 2 * SEC, 2 * SEC) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn restart_regression_never_yields_negative_deltas() {
        let reg = Registry::new();
        reg.counter("reqs").add(1000);
        let mut s = Sampler::new(64);
        s.tick(0, reg.snapshot());
        // "Restart": a fresh registry restarts the cumulative count.
        let fresh = Registry::new();
        fresh.counter("reqs").add(5);
        s.tick(SEC, fresh.snapshot());
        let pts = s.counter_points("reqs");
        assert_eq!(pts[0].delta, 5);
    }

    #[test]
    fn windowed_histogram_sees_only_the_window() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        let mut s = Sampler::new(64);
        s.tick(0, reg.snapshot());
        // Old interval: slow.
        for _ in 0..100 {
            h.record(1_000_000);
        }
        s.tick(SEC, reg.snapshot());
        // Recent interval: fast.
        for _ in 0..100 {
            h.record(1_000);
        }
        s.tick(2 * SEC, reg.snapshot());
        let recent = s.window_quantile("lat", 0.99, SEC, 2 * SEC);
        assert!(recent < 2_000, "recent p99 {recent}");
        let both = s.window_histogram("lat", 2 * SEC, 2 * SEC);
        assert_eq!(both.count, 200);
        assert!(s.window_quantile("lat", 0.99, 2 * SEC, 2 * SEC) >= 500_000);
    }

    #[test]
    fn ratio_is_zero_without_traffic() {
        let s = Sampler::new(8);
        assert_eq!(s.window_ratio("err", "total", SEC, SEC), 0.0);
    }
}
