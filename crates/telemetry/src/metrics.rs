//! The metrics registry: counters, gauges, and log-linear histograms.
//!
//! Design constraints, in order:
//!
//! 1. **The hot path is atomics only.** Components call
//!    [`Registry::counter`] (et al.) once at wiring time and keep the
//!    `Arc` handle; recording is then a relaxed `fetch_add` — no locks,
//!    no allocation, no formatting. The registry's own maps are touched
//!    only at registration and snapshot time.
//! 2. **Histograms bound error, not range.** Latencies span seven orders
//!    of magnitude, so buckets are log-linear: 16 linear sub-buckets per
//!    power of two, giving ≤ 1/16 relative quantile error over the full
//!    `u64` range with a fixed 976-slot table (the same scheme HDR-style
//!    recorders use).
//! 3. **Snapshots merge.** A cluster is observable only if per-shard
//!    snapshots combine into one: counters add, gauges add, histograms
//!    add bucket-wise. Merging is associative and commutative (verified
//!    by property test), so any aggregation order yields the same fleet
//!    view.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// How a gauge combines across nodes when fleet snapshots merge.
///
/// Counters always add — more shards, more events. Gauges do not:
/// `net.server.live_connections` summed across shards is a real fleet
/// total, but `cluster.breaker.open_now` summed across *observers* of
/// the same breaker double-counts, and a config-value gauge summed is
/// nonsense. The registrant declares the semantics once; merging and
/// the wire encoding carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GaugeMode {
    /// Values add (per-shard quantities: live connections, queue depth).
    #[default]
    Sum,
    /// The maximum wins (worst-case point-in-time values: breakers open,
    /// backlog high-water marks).
    Max,
    /// The most recently merged value wins (config echoes, epochs —
    /// values every node reports identically).
    Last,
}

impl GaugeMode {
    /// Stable wire byte.
    pub fn as_u8(self) -> u8 {
        match self {
            GaugeMode::Sum => 0,
            GaugeMode::Max => 1,
            GaugeMode::Last => 2,
        }
    }

    /// Parses a wire byte.
    pub fn from_u8(b: u8) -> Option<GaugeMode> {
        match b {
            0 => Some(GaugeMode::Sum),
            1 => Some(GaugeMode::Max),
            2 => Some(GaugeMode::Last),
            _ => None,
        }
    }
}

/// An instantaneous signed value (e.g. live connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (negative to decrement).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two: 2^4 = 16.
const SUB_BITS: u32 = 4;
const SUB_COUNT: usize = 1 << SUB_BITS;
const SUB_MASK: u64 = (SUB_COUNT - 1) as u64;

/// Total bucket count covering the full `u64` range: the linear range
/// `0..16` plus 60 octaves of 16 sub-buckets each.
pub const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_COUNT + SUB_COUNT;

/// Bucket index for a recorded value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    (((msb - SUB_BITS + 1) << SUB_BITS) + ((v >> shift) as u32 & SUB_MASK as u32)) as usize
}

/// Inclusive lower bound of bucket `i` (the smallest value that lands in
/// it). The exclusive upper bound is `bucket_lower(i + 1)`.
pub fn bucket_lower(i: usize) -> u64 {
    if i < SUB_COUNT {
        return i as u64;
    }
    let octave = (i >> SUB_BITS) as u32; // >= 1
    let sub = (i & (SUB_COUNT - 1)) as u64;
    (SUB_COUNT as u64 + sub) << (octave - 1)
}

/// Exclusive upper bound of bucket `i` (saturating at `u64::MAX`).
pub fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_lower(i + 1)
}

/// A concurrent log-linear histogram over `u64` values (conventionally
/// nanoseconds). Recording is three relaxed atomic RMWs plus two
/// fetch-min/max; no locks anywhere.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        // `AtomicU64` is not `Copy`; build the array element by element.
        let buckets: Box<[AtomicU64; BUCKETS]> =
            Box::new(std::array::from_fn(|_| AtomicU64::new(0)));
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent-enough snapshot for reporting (buckets are read while
    /// writers may be racing; totals can differ from the bucket sum by
    /// in-flight recordings, which reporting tolerates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u32, n));
            }
        }
        let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time, mergeable view of a [`Histogram`]. Buckets are
/// sparse `(index, count)` pairs sorted by index.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Sparse non-empty buckets, sorted by bucket index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`): the midpoint of the
    /// bucket holding the `ceil(q·count)`-th smallest value, clamped to
    /// the observed `[min, max]`. Relative error is bounded by the
    /// bucket width — at most 1/16 of the value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // The extremes are tracked exactly; report them exactly.
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(i, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                let lo = bucket_lower(i as usize);
                let hi = bucket_upper(i as usize);
                let mid = lo + (hi - lo) / 2;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Adds `other`'s recordings into this snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            let slot = merged.entry(i).or_insert(0);
            *slot = slot.saturating_add(n);
        }
        self.buckets = merged.into_iter().collect();
    }
}

/// A named set of metrics. Handles are `Arc`s to the live atomics:
/// register once, record forever without re-entering the registry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    gauge_modes: RwLock<BTreeMap<String, GaugeMode>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().get(name) {
        return m.clone();
    }
    map.write()
        .entry(name.to_owned())
        .or_insert_with(|| Arc::new(T::default()))
        .clone()
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// The gauge named `name`, created on first use with the default
    /// [`GaugeMode::Sum`] merge semantics.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// The gauge named `name` with explicit fleet-merge semantics.
    pub fn gauge_with_mode(&self, name: &str, mode: GaugeMode) -> Arc<Gauge> {
        if mode != GaugeMode::Sum {
            self.gauge_modes.write().insert(name.to_owned(), mode);
        }
        get_or_insert(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Snapshots every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauge_modes: self.gauge_modes.read().clone(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Declares a set of registry counters once and yields two structs: a
/// handle struct of `Arc<Counter>`s with `register(&Registry)` and
/// `view()`, and a `Copy` view of plain `u64` fields read from those
/// handles. Each entry names its field and its registry name together,
/// so a view cannot read the wrong counter and no counter can be left
/// out of its view.
///
/// ```
/// dvm_telemetry::counters! {
///     /// Handles behind [`DemoStats`].
///     pub struct DemoCounters;
///     /// What the demo did.
///     pub struct DemoStats {
///         /// Requests handled.
///         requests = "demo.requests",
///     }
/// }
/// let registry = dvm_telemetry::Registry::new();
/// let counters = DemoCounters::register(&registry);
/// counters.requests.inc();
/// assert_eq!(counters.view(), DemoStats { requests: 1 });
/// assert_eq!(registry.snapshot().counter("demo.requests"), 1);
/// ```
///
/// An optional `gauges { … }` block after the view declares gauge
/// handles the same way; the view reads them as `u64` (a negative
/// gauge reads 0).
#[macro_export]
macro_rules! counters {
    (
        $(#[$handles_meta:meta])*
        $handles_vis:vis struct $handles:ident;
        $(#[$view_meta:meta])*
        $view_vis:vis struct $view:ident {
            $( $(#[$field_meta:meta])* $field:ident = $name:literal, )*
        }
        $( gauges {
            $( $(#[$gauge_meta:meta])* $gauge:ident = $gauge_name:literal, )*
        } )?
    ) => {
        $(#[$handles_meta])*
        #[derive(Debug, Clone)]
        $handles_vis struct $handles {
            $( $(#[$field_meta])* $handles_vis $field: ::std::sync::Arc<$crate::Counter>, )*
            $($( $(#[$gauge_meta])* $handles_vis $gauge: ::std::sync::Arc<$crate::Gauge>, )*)?
        }

        impl $handles {
            /// Resolves every handle on `registry`, creating the
            /// metrics that do not exist yet.
            $handles_vis fn register(registry: &$crate::Registry) -> $handles {
                $handles {
                    $( $field: registry.counter($name), )*
                    $($( $gauge: registry.gauge($gauge_name), )*)?
                }
            }

            /// Reads every handle into the typed view.
            $handles_vis fn view(&self) -> $view {
                $view {
                    $( $field: self.$field.get(), )*
                    $($( $gauge: self.$gauge.get().max(0) as u64, )*)?
                }
            }
        }

        $(#[$view_meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $view_vis struct $view {
            $( $(#[$field_meta])* pub $field: u64, )*
            $($( $(#[$gauge_meta])* pub $gauge: u64, )*)?
        }
    };
}

/// A point-in-time view of a whole [`Registry`], mergeable across nodes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Merge semantics for gauges that are not [`GaugeMode::Sum`]
    /// (absent means `Sum`, keeping the map sparse).
    pub gauge_modes: BTreeMap<String, GaugeMode>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Merge semantics for the gauge named `name`.
    pub fn gauge_mode(&self, name: &str) -> GaugeMode {
        self.gauge_modes.get(name).copied().unwrap_or_default()
    }

    /// Merges `other` into this snapshot: counters add, gauges combine
    /// per their declared [`GaugeMode`], histograms combine bucket-wise.
    /// Metrics present on only one side survive unchanged, so shards
    /// with disjoint instrumentation still aggregate.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            // Either side may carry the declaration (a freshly-started
            // shard can report a gauge the aggregate hasn't seen).
            let mode = self
                .gauge_modes
                .get(k)
                .or_else(|| other.gauge_modes.get(k))
                .copied()
                .unwrap_or_default();
            match self.gauges.entry(k.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(*v);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => match mode {
                    GaugeMode::Sum => {
                        let cur = *slot.get();
                        slot.insert(cur.saturating_add(*v));
                    }
                    GaugeMode::Max => {
                        let cur = *slot.get();
                        slot.insert(cur.max(*v));
                    }
                    GaugeMode::Last => {
                        slot.insert(*v);
                    }
                },
            }
        }
        for (k, m) in &other.gauge_modes {
            self.gauge_modes.entry(k.clone()).or_insert(*m);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_in_the_linear_range() {
        for v in 0..16u64 {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_lower(i), v);
            assert_eq!(bucket_upper(i), v + 1);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bounds_contain_the_value() {
        let mut values: Vec<u64> = Vec::new();
        for exp in 0..64 {
            for off in [0u64, 1, 7] {
                values.push((1u64 << exp).saturating_add(off));
            }
        }
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            last = i;
            assert!(i < BUCKETS);
            assert!(bucket_lower(i) <= v, "lower({i}) > {v}");
            assert!(v < bucket_upper(i) || bucket_upper(i) == u64::MAX);
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        // Log-linear with 16 sub-buckets: width / lower ≤ 1/16 for all
        // log-regime buckets (the quantile error bound).
        for i in 16..BUCKETS - 1 {
            let lo = bucket_lower(i);
            let width = bucket_upper(i) - lo;
            assert!(
                width as f64 / lo as f64 <= 1.0 / 16.0 + 1e-12,
                "bucket {i}: width {width} lower {lo}"
            );
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp_are_accurate() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for (q, exact) in [(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900)] {
            let est = s.quantile(q);
            let err = est.abs_diff(exact);
            assert!(
                err as f64 <= exact as f64 / 16.0 + 1.0,
                "q{q}: est {est} exact {exact}"
            );
        }
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(1.0), 10_000);
    }

    #[test]
    fn single_value_quantiles_collapse_to_it() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(77_777);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 77_777);
        assert_eq!(s.quantile(0.99), 77_777);
        assert_eq!(s.min, 77_777);
        assert_eq!(s.max, 77_777);
    }

    #[test]
    fn concurrent_counter_increments_from_8_threads_lose_nothing() {
        let reg = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                // Half the threads race the registration path too.
                let c = reg.counter("hits");
                let h = reg.histogram("lat");
                for i in 0..10_000u64 {
                    c.inc();
                    h.record(i % 977);
                }
            }));
        }
        for t in handles {
            t.join().unwrap();
        }
        assert_eq!(reg.counter("hits").get(), 80_000);
        let s = reg.histogram("lat").snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 80_000);
    }

    #[test]
    fn merge_combines_counters_gauges_and_histograms() {
        let a = Registry::new();
        a.counter("c").add(2);
        a.gauge("g").set(5);
        a.histogram("h").record(10);
        let b = Registry::new();
        b.counter("c").add(3);
        b.counter("only_b").inc();
        b.gauge("g").set(-1);
        b.histogram("h").record(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("c"), 5);
        assert_eq!(m.counter("only_b"), 1);
        assert_eq!(m.gauge("g"), 4);
        let h = &m.histograms["h"];
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 1_000_000);
    }

    #[test]
    fn gauge_merge_modes_govern_fleet_aggregation() {
        // Three shards each report: a per-shard quantity (sum), a
        // point-in-time worst case (max), and an identical config echo
        // (last). Summing everything — the old behavior — was only
        // right for the first.
        let mut merged = MetricsSnapshot::default();
        for (live, open) in [(4i64, 0i64), (7, 1), (2, 1)] {
            let r = Registry::new();
            r.gauge("live_connections").set(live);
            r.gauge_with_mode("breaker.open_now", GaugeMode::Max)
                .set(open);
            r.gauge_with_mode("ring.vnodes", GaugeMode::Last).set(64);
            merged.merge(&r.snapshot());
        }
        assert_eq!(merged.gauge("live_connections"), 13);
        assert_eq!(merged.gauge("breaker.open_now"), 1);
        assert_eq!(merged.gauge("ring.vnodes"), 64);
        // The declaration itself survives the merge for re-aggregation.
        assert_eq!(merged.gauge_mode("breaker.open_now"), GaugeMode::Max);
        assert_eq!(merged.gauge_mode("live_connections"), GaugeMode::Sum);
    }
}
